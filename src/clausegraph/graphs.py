"""Labeled graphs with ordered interfaces and patterns with variable hyperedges.

The two gluing operations live here as well: ``compose`` identifies the
interfaces of two graphs positionally, ``realize`` substitutes graphs with
interface for the variable hyperedges of a pattern. Both return ``None``
("undefined") when an identification would force two different vertex labels
onto one vertex or two different edge labels onto one vertex pair; coinciding
edges with equal labels merge silently, so results stay simple graphs.
Malformed inputs raise ``ValueError`` instead — "undefined" is a legitimate
outcome, a structural error is not.

Everything is immutable after construction and all operations are pure, so
values can be shared freely. Cached attributes (adjacency, canonical keys)
are filled at most once and never change.
"""

from __future__ import annotations

import hashlib
from itertools import permutations
from typing import Iterable, Mapping, Optional, Sequence, Union


class LabeledGraph:
    """Finite undirected labeled graph: no self-loops, no parallel edges."""

    __slots__ = ("vertices", "vlabel", "edges", "_adj", "_degrees")

    def __init__(self, vlabel: Mapping[int, str], edges: Mapping[tuple, str]):
        self.vlabel = dict(vlabel)
        self.vertices = tuple(sorted(self.vlabel))
        norm = {}
        for (u, v), lab in edges.items():
            if u == v:
                raise ValueError(f"edge ({u},{v}): self-loops are not allowed")
            if u not in self.vlabel or v not in self.vlabel:
                raise ValueError(f"edge ({u},{v}): endpoint not a declared vertex")
            key = (u, v) if u < v else (v, u)
            if key in norm and norm[key] != lab:
                raise ValueError(f"edge {key}: conflicting labels {norm[key]!r}/{lab!r}")
            norm[key] = lab
        self.edges = norm
        adj = {v: [] for v in self.vertices}
        for (u, v), lab in norm.items():
            adj[u].append((v, lab))
            adj[v].append((u, lab))
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        self._degrees = {v: len(nbrs) for v, nbrs in self._adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def max_degree(self) -> int:
        return max(self._degrees.values(), default=0)

    def neighbors(self, v: int) -> tuple:
        """Sorted (neighbor, edge label) pairs of ``v``."""
        return self._adj[v]

    def edge_label(self, u: int, v: int) -> Optional[str]:
        return self.edges.get((u, v) if u < v else (v, u))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.vlabel == other.vlabel and self.edges == other.edges

    def __hash__(self):
        return hash((tuple(sorted(self.vlabel.items())), tuple(sorted(self.edges.items()))))

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={self.m})"


EMPTY_GRAPH = LabeledGraph({}, {})


class GraphWithInterface:
    """A labeled graph plus an ordered tuple of distinct interface vertices."""

    __slots__ = ("graph", "interface", "_key", "_iface_labels")

    def __init__(self, graph: LabeledGraph, interface: Sequence[int]):
        interface = tuple(interface)
        if len(set(interface)) != len(interface):
            raise ValueError(f"interface {interface}: vertices must be distinct")
        for v in interface:
            if v not in graph.vlabel:
                raise ValueError(f"interface vertex {v} not in graph")
        self.graph = graph
        self.interface = interface
        self._key = None
        self._iface_labels = None

    @property
    def rank(self) -> int:
        return len(self.interface)

    @property
    def closed(self) -> bool:
        return not self.interface

    def interface_labels(self) -> tuple:
        if self._iface_labels is None:
            self._iface_labels = tuple(self.graph.vlabel[v] for v in self.interface)
        return self._iface_labels

    @property
    def key(self):
        if self._key is None:
            self._key = canonical_key(self)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphWithInterface):
            return NotImplemented
        return self.interface == other.interface and self.graph == other.graph

    def __hash__(self):
        return hash((self.graph, self.interface))

    def __repr__(self):
        return f"GraphWithInterface(n={self.graph.n}, m={self.graph.m}, rank={self.rank})"


EMPTY_INTERFACE_GRAPH = GraphWithInterface(EMPTY_GRAPH, ())


def closed(graph: LabeledGraph) -> GraphWithInterface:
    """View a plain graph as a graph with empty interface."""
    return GraphWithInterface(graph, ())


class VariableHyperedge:
    """A placeholder with a ranked variable label and ordered, distinct ports."""

    __slots__ = ("label", "ports")

    def __init__(self, label: str, ports: Sequence[int]):
        ports = tuple(ports)
        if len(set(ports)) != len(ports):
            raise ValueError(f"hyperedge {label!r}: ports {ports} must be distinct")
        self.label = label
        self.ports = ports

    @property
    def rank(self) -> int:
        return len(self.ports)

    def __eq__(self, other):
        if not isinstance(other, VariableHyperedge):
            return NotImplemented
        return self.label == other.label and self.ports == other.ports

    def __hash__(self):
        return hash((self.label, self.ports))

    def __repr__(self):
        return f"VariableHyperedge({self.label!r}, ports={self.ports})"


class GraphPattern:
    """Graph with interface extended by variable hyperedges.

    A pattern with no hyperedges is ground and stands for its underlying
    graph with interface.
    """

    __slots__ = ("base", "hyperedges", "_key", "_renaming_keys")

    def __init__(self, base: GraphWithInterface, hyperedges: Iterable[VariableHyperedge] = ()):
        hyperedges = tuple(sorted(hyperedges, key=lambda h: (h.label, h.ports)))
        ranks = {}
        for h in hyperedges:
            for p in h.ports:
                if p not in base.graph.vlabel:
                    raise ValueError(f"hyperedge {h.label!r}: port {p} not in pattern graph")
            if ranks.setdefault(h.label, h.rank) != h.rank:
                raise ValueError(f"variable {h.label!r} used with two different ranks")
        self.base = base
        self.hyperedges = hyperedges
        self._key = None
        self._renaming_keys = None

    @property
    def ground(self) -> bool:
        return not self.hyperedges

    @property
    def interface(self) -> tuple:
        return self.base.interface

    @property
    def rank(self) -> int:
        return self.base.rank

    def variables(self) -> dict:
        """Variable label -> rank, in sorted label order."""
        out = {}
        for h in self.hyperedges:
            out[h.label] = h.rank
        return dict(sorted(out.items()))

    def as_interface_graph(self) -> GraphWithInterface:
        if not self.ground:
            raise ValueError("pattern has hyperedges; not a plain graph with interface")
        return self.base

    @property
    def key(self):
        if self._key is None:
            self._key = canonical_key(self)
        return self._key

    @property
    def renaming_keys(self) -> tuple:
        """``(renaming, canonical key)`` for every bijection of the variable
        labels, in sorted order, onto ``v0, v1, ...``; a ground pattern has
        the one empty renaming."""
        if self._renaming_keys is None:
            labels = list(self.variables())
            out = []
            for perm in permutations(range(len(labels))):
                rename = {lab: f"v{perm[j]}" for j, lab in enumerate(labels)}
                out.append((rename, canonical_key(self, rename_vars=rename)))
            self._renaming_keys = tuple(out)
        return self._renaming_keys

    def __eq__(self, other):
        if not isinstance(other, GraphPattern):
            return NotImplemented
        return self.base == other.base and self.hyperedges == other.hyperedges

    def __hash__(self):
        return hash((self.base, self.hyperedges))

    def __repr__(self):
        return (f"GraphPattern(n={self.base.graph.n}, m={self.base.graph.m}, "
                f"rank={self.rank}, hyperedges={len(self.hyperedges)})")


Substitution = Mapping[str, GraphWithInterface]

GraphLike = Union[GraphWithInterface, GraphPattern]


def star_pattern(label: str, port_labels: Sequence[str]) -> GraphPattern:
    """Pattern with no edges, one hyperedge, interface equal to its ports."""
    vlabel = {i: lab for i, lab in enumerate(port_labels)}
    base = GraphWithInterface(LabeledGraph(vlabel, {}), tuple(range(len(port_labels))))
    return GraphPattern(base, [VariableHyperedge(label, base.interface)])


def is_star_pattern(p: GraphPattern) -> bool:
    return (len(p.hyperedges) == 1
            and not p.base.graph.edges
            and p.interface == p.hyperedges[0].ports)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

class _Gluer:
    """Accumulates vertices and edges under identification; None on conflict."""

    __slots__ = ("vlabel", "edges", "next_id")

    def __init__(self):
        self.vlabel = {}
        self.edges = {}
        self.next_id = 0

    def fresh(self, label: str) -> int:
        v = self.next_id
        self.next_id += 1
        self.vlabel[v] = label
        return v

    def merge_label(self, v: int, label: str) -> bool:
        return self.vlabel[v] == label

    def add_edge(self, u: int, v: int, label: str) -> bool:
        key = (u, v) if u < v else (v, u)
        old = self.edges.get(key)
        if old is None:
            self.edges[key] = label
            return True
        return old == label

    def add_copy(self, g: LabeledGraph, anchored: Mapping[int, int]) -> Optional[dict]:
        """Add a fresh copy of ``g``; vertices in ``anchored`` map onto existing
        result vertices (label checked), the rest get fresh ids."""
        vmap = {}
        for v in g.vertices:
            if v in anchored:
                t = anchored[v]
                if not self.merge_label(t, g.vlabel[v]):
                    return None
                vmap[v] = t
            else:
                vmap[v] = self.fresh(g.vlabel[v])
        for (u, v), lab in sorted(g.edges.items()):
            if not self.add_edge(vmap[u], vmap[v], lab):
                return None
        return vmap


def compose(g: GraphWithInterface, h: GraphWithInterface) -> Optional[LabeledGraph]:
    """Glue disjoint copies of ``g`` and ``h`` by identifying their interfaces
    positionally.  Returns a plain closed graph (the glued interface is
    discarded), or ``None`` when the ranks differ or identification conflicts.
    """
    if g.rank != h.rank:
        return None
    glue = _Gluer()
    gmap = glue.add_copy(g.graph, {})
    anchored = {h.interface[i]: gmap[g.interface[i]] for i in range(g.rank)}
    if glue.add_copy(h.graph, anchored) is None:
        return None
    return LabeledGraph(glue.vlabel, glue.edges)


def realize(pattern: GraphPattern, theta: Substitution) -> Optional[GraphWithInterface]:
    """Replace every hyperedge of ``pattern`` by a fresh copy of its binding,
    identifying the j-th port with the j-th interface vertex of the copy, and
    keep the pattern's interface.  Hyperedges sharing a label receive copies of
    the same graph.  ``None`` on label or edge conflicts; unbound variables and
    rank mismatches raise ``ValueError``.
    """
    for label, rank in pattern.variables().items():
        if label not in theta:
            raise ValueError(f"variable {label!r} is not bound")
        if theta[label].rank != rank:
            raise ValueError(
                f"variable {label!r} has rank {rank} but is bound to a graph "
                f"of interface rank {theta[label].rank}")
    glue = _Gluer()
    base = pattern.base.graph
    vmap = glue.add_copy(base, {})
    if vmap is None:
        return None
    for h in pattern.hyperedges:
        bound = theta[h.label]
        anchored = {bound.interface[j]: vmap[h.ports[j]] for j in range(h.rank)}
        if glue.add_copy(bound.graph, anchored) is None:
            return None
    graph = LabeledGraph(glue.vlabel, glue.edges)
    return GraphWithInterface(graph, tuple(vmap[v] for v in pattern.interface))


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def iso_check(a: GraphWithInterface, b: GraphWithInterface) -> bool:
    """Interface-preserving isomorphism test for graphs with interface.

    True iff a vertex bijection exists preserving edges, vertex labels, edge
    labels, and mapping the i-th interface vertex of ``a`` to the i-th of
    ``b``.  Patterns are compared by ``canonical_key``.

    The interface is mapped first, then the other vertices of ``a`` in
    breadth-first order from it; a new root (the least unplaced vertex) is
    taken only once that queue is empty.  A vertex reached from an earlier
    vertex ``u`` by an edge labelled ``lab`` may map only to a neighbour of
    ``u``'s image joined by ``lab``, so it has at most Δ candidates, and only
    a root scans all of ``b``.  A miss between two fragments that differ only
    in where the interface sits then fails within O(n·Δ) checks.  The sorted
    ``(label, degree)`` pairs of both graphs are compared up front: roots
    match any vertex of equal label and degree, so without it a graph of
    isolated vertices that differs in one label backtracks factorially.
    """
    ga, gb = a.graph, b.graph
    if ga.n != gb.n or ga.m != gb.m or a.rank != b.rank:
        return False
    if (sorted((ga.vlabel[v], ga.degree(v)) for v in ga.vertices)
            != sorted((gb.vlabel[w], gb.degree(w)) for w in gb.vertices)):
        return False
    mapping = dict(zip(a.interface, b.interface))
    used = set(b.interface)
    for v, w in mapping.items():
        if ga.vlabel[v] != gb.vlabel[w] or ga.degree(v) != gb.degree(w):
            return False
    for v in a.interface:
        if not _edges_consistent(ga, gb, v, mapping, used):
            return False

    # Breadth-first queue of (vertex, earlier neighbour, edge label), the
    # neighbour None for the interface and for roots; ``order`` is what
    # follows the interface.
    queue = [(v, None, None) for v in a.interface]
    seen = set(a.interface)
    roots = iter(ga.vertices)
    head = 0
    while len(queue) < ga.n:
        if head == len(queue):
            root = next(v for v in roots if v not in seen)
            seen.add(root)
            queue.append((root, None, None))
        u = queue[head][0]
        head += 1
        for x, lab in ga.neighbors(u):
            if x not in seen:
                seen.add(x)
                queue.append((x, u, lab))
    order = queue[a.rank:]

    def candidates(k):
        if k == len(order):
            return None  # every vertex is placed
        _, u, lab = order[k]
        if u is None:
            return iter(gb.vertices)
        return iter([x for x, xlab in gb.neighbors(mapping[u]) if xlab == lab])

    # Depth-first over ``order`` with an explicit stack of candidate
    # iterators, one per placed vertex, so depth is not bounded by the
    # recursion limit.  Re-entering a level undoes that level's last choice.
    stack = [candidates(0)]
    while stack:
        if len(stack) > len(order):
            return True
        v = order[len(stack) - 1][0]
        if v in mapping:
            used.discard(mapping.pop(v))
        for w in stack[-1]:
            if w in used or gb.vlabel[w] != ga.vlabel[v] or gb.degree(w) != ga.degree(v):
                continue
            mapping[v] = w
            used.add(w)
            if _edges_consistent(ga, gb, v, mapping, used):
                stack.append(candidates(len(stack)))
                break
            del mapping[v]
            used.discard(w)
        else:
            stack.pop()
    return False


def _edges_consistent(ga, gb, v, mapping, used):
    """Edges between v and previously mapped vertices agree in both directions;
    ``used`` is the set of mapped-to vertices of ``gb``."""
    w = mapping[v]
    mapped_nbrs_b = 0
    for u, lab in ga.neighbors(v):
        if u in mapping:
            if gb.edge_label(mapping[u], w) != lab:
                return False
            mapped_nbrs_b += 1
    count_b = sum(1 for x, _ in gb.neighbors(w) if x in used)
    return count_b == mapped_nbrs_b


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonical_key(g: GraphLike, rename_vars: Optional[Mapping[str, str]] = None):
    """Deterministic key, equal for two graphs with interface or two patterns
    exactly when a vertex bijection preserves vertex and edge labels and the
    interface order, and maps hyperedges onto hyperedges with their variable
    labels and port order.

    A pattern is canonicalised as one plain coloured graph, its incidence
    graph (McKay & Piperno, *Practical graph isomorphism II*, 2014): each
    hyperedge becomes a vertex coloured by its variable label and joined to
    its j-th port by an edge labelled j.  Graph vertices are coloured by
    (label, interface position).  Edge labels are numbered graph labels
    first, port positions after them, so the two kinds never coincide.  The
    key is the least leaf encoding of an individualisation-refinement search.
    ``rename_vars`` substitutes variable labels before encoding, which lets
    callers compare pattern shapes up to a variable renaming of their choice.
    """
    base, hyper = (g.base, g.hyperedges) if isinstance(g, GraphPattern) else (g, ())
    graph = base.graph
    verts = graph.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    iface = [idx[v] for v in base.interface]
    ipos = {v: i for i, v in enumerate(iface)}
    elab = {lab: i for i, lab in enumerate(sorted(set(graph.edges.values())))}
    init = [(0, graph.vlabel[v], ipos.get(i, -1)) for i, v in enumerate(verts)]
    adj = [[(elab[lab], idx[w]) for w, lab in graph.neighbors(v)] for v in verts]
    hedges = []
    for h in hyper:
        e = len(init)
        label = rename_vars[h.label] if rename_vars else h.label
        ports = tuple(idx[p] for p in h.ports)
        hedges.append((label, ports))
        init.append((1, label))
        adj.append([(len(elab) + j, p) for j, p in enumerate(ports)])
        for j, p in enumerate(ports):
            adj[p].append((len(elab) + j, e))
    edges = [(idx[u], idx[v], lab) for (u, v), lab in graph.edges.items()]
    size = len(init)
    palette = {s: c for c, s in enumerate(sorted(set(init)))}
    best = None
    stack = [[palette[s] for s in init]]
    while stack:
        colors = _refine(size, stack.pop(), adj)
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            leaf = _leaf_encoding(n, colors, init, iface, edges, hedges)
            if best is None or leaf < best:
                best = leaf
            continue
        for v in _twin_reps(target, adj):
            branched = list(colors)
            branched[v] = size  # above every colour: v is individualised
            stack.append(branched)
    return best


def _leaf_encoding(n, colors, init, iface, edges, hedges):
    """The pattern with its graph vertices numbered in the order of a
    discrete colouring: vertex labels, interface, edges, then hyperedges as
    (label, port positions)."""
    order = sorted(range(n), key=colors.__getitem__)
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    return (
        n,
        tuple(init[i][1] for i in order),
        tuple(pos[i] for i in iface),
        tuple(sorted((*sorted((pos[u], pos[v])), lab) for u, v, lab in edges)),
        tuple(sorted((lab, tuple(pos[p] for p in ports)) for lab, ports in hedges)),
    )


def _refine(n, colors, adj):
    """Stable color refinement; colors are small ints, canonically compressed."""
    ncolors = len(set(colors))
    while True:
        sigs = [(colors[i], tuple(sorted((lab, colors[j]) for lab, j in adj[i])))
                for i in range(n)]
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        nnew = len(palette)
        if nnew == ncolors:
            return new
        colors, ncolors = new, nnew


def _twin_reps(cell, adj):
    """One representative per group of mutually swappable cell vertices.

    Two same-cell vertices whose labeled neighborhoods agree once the pair is
    swapped can be exchanged by an automorphism fixing everything else, so
    branching on both can only repeat work.  The grouping is transitive
    within a cell: chained transpositions compose to automorphisms.
    """
    reps = []
    for v in cell:
        if not any({(lab, v if j == w else j) for lab, j in adj[v]} == set(adj[w])
                   for w in reps):
            reps.append(v)
    return reps


def key_digest(g: GraphLike) -> str:
    """Short stable hex digest of the canonical key, for names and logs."""
    return hashlib.blake2b(repr(g.key).encode(), digest_size=8).hexdigest()[:10]


# ---------------------------------------------------------------------------
# cheap invariants (bucketing aid for iso-dedup without full canonicalization)
# ---------------------------------------------------------------------------

def invariant_signature(g: GraphWithInterface) -> tuple:
    """Isomorphism-invariant fingerprint; equal keys imply equal signatures.
    It is the bucket key of ``membership.FragmentUniverse``.

    Rank, n, m, the sorted edge labels, the interface's labels and degrees,
    and one sorted entry per vertex: its label, its degree and its
    breadth-first distance to each interface vertex in interface order, -1
    where unreachable.  Distances from individualised vertices are the
    textbook cheap vertex invariant (McKay & Piperno, *Practical graph
    isomorphism II*, 2014).  They separate fragments that differ only in
    where the interface sits along a path, which labels, degrees and
    neighbour labels do not.  Cost O(w·(n+m)).
    """
    graph = g.graph
    adj, degrees, vlabel = graph._adj, graph._degrees, graph.vlabel
    dists = []
    for s in g.interface:
        dist = {s: 0}
        queue = [s]
        for u in queue:  # breadth-first: the loop reaches what it appends
            du = dist[u] + 1
            for x, _ in adj[u]:
                if x not in dist:
                    dist[x] = du
                    queue.append(x)
        dists.append(dist)
    return (
        g.rank,
        graph.n,
        graph.m,
        tuple(sorted(graph.edges.values())),
        g.interface_labels(),
        tuple([degrees[v] for v in g.interface]),
        tuple(sorted([(vlabel[v], degrees[v], tuple([d.get(v, -1) for d in dists]))
                      for v in graph.vertices])),
    )


def graph_from_parts(vertices: Iterable[tuple], edges: Iterable[tuple] = ()) -> LabeledGraph:
    """Build a graph from (id, label) vertex pairs and (u, v, label) triples."""
    return LabeledGraph({v: lab for v, lab in vertices},
                        {(u, v): lab for u, v, lab in edges})
