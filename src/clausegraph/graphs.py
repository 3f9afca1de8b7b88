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

def _as_pattern_parts(g: GraphLike):
    if isinstance(g, GraphPattern):
        return g.base, g.hyperedges
    if isinstance(g, GraphWithInterface):
        return g, ()
    raise ValueError(f"expected a graph with interface or a pattern, got {type(g)!r}")


def _vertex_signatures(base: GraphWithInterface, hyper):
    """Per-vertex invariant: (vlabel, interface position, hyperedge incidences)."""
    g = base.graph
    ipos = {v: i for i, v in enumerate(base.interface)}
    hsig = {v: [] for v in g.vertices}
    for h in hyper:
        for j, p in enumerate(h.ports):
            hsig[p].append((h.label, h.rank, j))
    return {v: (g.vlabel[v], ipos.get(v, -1), tuple(sorted(hsig[v]))) for v in g.vertices}


def iso_check(a: GraphLike, b: GraphLike) -> bool:
    """Interface-preserving isomorphism test.

    True iff a vertex bijection exists preserving edges, vertex labels, edge
    labels, and mapping the i-th interface vertex of ``a`` to the i-th of
    ``b``; pattern inputs additionally need a hyperedge bijection preserving
    variable labels and port order.
    """
    abase, ahyper = _as_pattern_parts(a)
    bbase, bhyper = _as_pattern_parts(b)
    ga, gb = abase.graph, bbase.graph
    if ga.n != gb.n or ga.m != gb.m or abase.rank != bbase.rank:
        return False
    if len(ahyper) != len(bhyper):
        return False
    if sorted((h.label, h.rank) for h in ahyper) != sorted((h.label, h.rank) for h in bhyper):
        return False
    asig = _vertex_signatures(abase, ahyper)
    bsig = _vertex_signatures(bbase, bhyper)
    if sorted(asig.values()) != sorted(bsig.values()):
        return False
    deg_sig_a = sorted((asig[v], ga.degree(v)) for v in ga.vertices)
    deg_sig_b = sorted((bsig[v], gb.degree(v)) for v in gb.vertices)
    if deg_sig_a != deg_sig_b:
        return False

    # Interface vertices are forced; remaining vertices are matched by
    # backtracking, most-constrained (already-placed neighbors) first.
    mapping = {}
    used = set()
    for i, v in enumerate(abase.interface):
        w = bbase.interface[i]
        if asig[v] != bsig[w] or ga.degree(v) != gb.degree(w):
            return False
        mapping[v] = w
        used.add(w)

    def compatible(v, w):
        if bsig[w] != asig[v] or gb.degree(w) != ga.degree(v):
            return False
        for u, lab in ga.neighbors(v):
            if u in mapping and gb.edge_label(mapping[u], w) != lab:
                return False
        return True

    # Order free vertices: prefer ones adjacent to already-mapped vertices.
    free = [v for v in ga.vertices if v not in mapping]
    order = []
    placed = set(mapping)
    remaining = set(free)
    while remaining:
        nxt = None
        for v in sorted(remaining):
            if any(u in placed for u, _ in ga.neighbors(v)):
                nxt = v
                break
        if nxt is None:
            nxt = min(remaining)
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)

    bverts = gb.vertices

    def extend(i):
        if i == len(order):
            return _hyperedges_match(ahyper, bhyper, mapping)
        v = order[i]
        for w in bverts:
            if w in used or not compatible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if _edges_consistent(ga, gb, v, mapping):
                if extend(i + 1):
                    return True
            del mapping[v]
            used.discard(w)
        return False

    for i, v in enumerate(abase.interface):
        if not _edges_consistent(ga, gb, v, mapping):
            return False
    return extend(0)


def _edges_consistent(ga, gb, v, mapping):
    """Edges between v and previously mapped vertices agree in both directions."""
    w = mapping[v]
    mapped_nbrs_b = 0
    for u, lab in ga.neighbors(v):
        if u in mapping:
            if gb.edge_label(mapping[u], w) != lab:
                return False
            mapped_nbrs_b += 1
    inv = set(mapping.values())
    count_b = sum(1 for x, _ in gb.neighbors(w) if x in inv)
    return count_b == mapped_nbrs_b


def _hyperedges_match(ahyper, bhyper, mapping) -> bool:
    want = sorted((h.label, tuple(mapping[p] for p in h.ports)) for h in ahyper)
    have = sorted((h.label, h.ports) for h in bhyper)
    return want == have


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def canonical_key(g: GraphLike, rename_vars: Optional[Mapping[str, str]] = None):
    """Deterministic key with ``key(g) == key(h)`` iff ``iso_check(g, h)``.

    ``rename_vars`` substitutes variable labels before encoding, which lets
    callers compare pattern shapes up to a variable renaming of their choice.
    """
    base, hyper = _as_pattern_parts(g)
    graph = base.graph
    verts = graph.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = []
    for u in verts:
        row = tuple((lab, idx[w]) for w, lab in graph.neighbors(u))
        adj.append(row)
    ipos = {idx[v]: i for i, v in enumerate(base.interface)}
    hsig = [[] for _ in range(n)]
    hedges = []
    for h in hyper:
        lab = rename_vars[h.label] if rename_vars else h.label
        hedges.append((lab, tuple(idx[p] for p in h.ports)))
        for j, p in enumerate(h.ports):
            hsig[idx[p]].append((lab, len(h.ports), j))
    init = [(graph.vlabel[verts[i]], ipos.get(i, -1), tuple(sorted(hsig[i])))
            for i in range(n)]
    iface_idx = tuple(idx[v] for v in base.interface)
    return _canonical_encoding(n, init, adj, iface_idx, tuple(sorted(hedges)))


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


def _encode(n, colors, adj, init, iface_idx, hedges):
    order = sorted(range(n), key=lambda i: colors[i])
    pos = {v: i for i, v in enumerate(order)}
    edges = set()
    for i in range(n):
        for lab, j in adj[i]:
            a, b = pos[i], pos[j]
            edges.add((a, b, lab) if a < b else (b, a, lab))
    return (
        n,
        tuple(init[v][0] for v in order),
        tuple(pos[v] for v in iface_idx),
        tuple(sorted(edges)),
        tuple(sorted((lab, tuple(pos[p] for p in ports)) for lab, ports in hedges)),
    )


def _canonical_encoding(n, init, adj, iface_idx, hedges):
    if n == 0:
        return (0, (), (), (), tuple(sorted(hedges)))
    palette = {s: c for c, s in enumerate(sorted(set(init)))}
    colors = _refine(n, [palette[s] for s in init], adj)

    def search(colors):
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            return _encode(n, colors, adj, init, iface_idx, hedges)
        best = None
        bump = max(colors) + 1
        for v in _twin_reps(target, adj):
            branched = list(colors)
            branched[v] = bump
            enc = search(_refine(n, branched, adj))
            if best is None or enc < best:
                best = enc
        return best

    return search(colors)


def _twin_reps(cell, adj):
    """One representative per group of mutually swappable cell vertices.

    Two same-cell vertices whose labeled neighborhoods agree outside the pair
    can be exchanged by an automorphism fixing everything else, so branching
    on both can only repeat work.  Grouping by the off-pair neighborhood is
    transitive within a cell: chained transpositions compose to automorphisms.
    """
    reps = []
    groups = []
    for v in cell:
        nv = set(adj[v])
        placed = False
        for gi, w in enumerate(reps):
            nw = set(adj[w])
            ev = [lab for lab, j in nv if j == w]
            ew = [lab for lab, j in nw if j == v]
            if ev == ew and {(lab, j) for lab, j in nv if j != w} == \
                    {(lab, j) for lab, j in nw if j != v}:
                groups[gi].append(v)
                placed = True
                break
        if not placed:
            reps.append(v)
            groups.append([v])
    return reps


def key_digest(g: GraphLike, length: int = 10) -> str:
    """Short stable hex digest of the canonical key, for names and logs."""
    return hashlib.blake2b(repr(g.key).encode(), digest_size=8).hexdigest()[:length]


# ---------------------------------------------------------------------------
# cheap invariants (bucketing aid for iso-dedup without full canonicalization)
# ---------------------------------------------------------------------------

def invariant_signature(g: GraphWithInterface) -> tuple:
    """Isomorphism-invariant fingerprint; equal keys imply equal signatures."""
    graph = g.graph
    degs = sorted(graph._degrees.values())
    return (
        g.rank,
        graph.n,
        graph.m,
        tuple(sorted(graph.vlabel.values())),
        tuple(sorted(graph.edges.values())),
        tuple(degs),
        g.interface_labels(),
        tuple(graph.degree(v) for v in g.interface),
        tuple(sorted(
            (graph.vlabel[v], tuple(sorted((lab, graph.vlabel[u]) for u, lab in graph.neighbors(v))))
            for v in graph.vertices)),
    )


def graph_from_parts(vertices: Iterable[tuple], edges: Iterable[tuple] = ()) -> LabeledGraph:
    """Build a graph from (id, label) vertex pairs and (u, v, label) triples."""
    return LabeledGraph({v: lab for v, lab in vertices},
                        {(u, v): lab for u, v, lab in edges})
