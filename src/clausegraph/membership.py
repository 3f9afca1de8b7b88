"""Bottom-up saturation for fixed-interface clause systems: membership and
generation.

One semi-naive loop (``saturate``) derives the least set of (predicate,
fragment) pairs over a universe of fragments.  Membership runs it over a
fixed universe: the input graph's boundary-attached fragments of rank at
most w whose sorted interface labels are some clause head's (``sub_w``,
which classes each boundary specification by its parts and builds only the
first of each class), plus the whole graph with empty interface, and a
realized graph counts only when it is already in that universe.  Only a
fragment with a head's interface labels can be a realized head, and every
binding is an earlier realized head, so the fragments left out would never
be found or bound (``derive_fixpoint``).  The input graph is a fragment
like any other, so a graph is a member exactly when the start predicate
holds on it.  Generation (``teacher.generate_language``) runs the
same loop over a universe that starts empty and grows by every realized
graph within its bounds.  The loop runs over groups of rules whose heads
share a canonical key, variable labels included, whose variables share
pools, and which differ only in the head predicate, so a binding is
realized once for the whole group (``_rule_groups``).

Provenance is kept for every derived pair, so a successful query can be
replayed as a derivation tree of any depth.  ``Provenance`` is a NamedTuple;
``DerivedAtomSet``, which saturation fills in, and ``DerivationNode``, which
hashes by identity, are ``__slots__`` classes.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple, Optional

from .boundary import boundary_specs, build_fragment, chosen
from .clauses import ClauseSystem, ParamTuple, PredicateSymbol
from .graphs import (
    GraphWithInterface,
    LabeledGraph,
    closed,
    iso_check,
    realize,
)


class FragmentUniverse:
    """Fragments deduplicated up to isomorphism: those of one host graph for
    membership, or the graphs derived so far for generation.

    Lookup buckets on each fragment's cached ``signature`` (edge labels,
    and vertex labels and degrees) and resolves within a bucket by exact
    isomorphism (``iso_check``).  Fragments that differ only in where the
    interface sits share a bucket, and ``iso_check``'s forced extension
    rejects such a mate within O(n·Δ) edge checks.  ``sub_w`` looks up only
    specifications of exactly one part and no beta-beta edge; it resolves
    the rest, the edgeless one included, by their labels and the classes of
    their parts, and ``append``s a fragment it knows to be new.
    """

    def __init__(self):
        self.fragments: list[GraphWithInterface] = []
        self.by_labels: dict[tuple, list[int]] = {}  # interface labels -> indices
        self._buckets: dict[tuple, list[int]] = {}  # signature -> indices

    def add(self, g: GraphWithInterface) -> int:
        idx = self.find(g)
        return self.append(g) if idx is None else idx

    def append(self, g: GraphWithInterface) -> int:
        """Index of ``g`` as a new class; the caller knows no fragment of the
        universe is isomorphic to it."""
        idx = len(self.fragments)
        self.fragments.append(g)
        self.by_labels.setdefault(g.interface_labels(), []).append(idx)
        self._buckets.setdefault(g.signature, []).append(idx)
        return idx

    def find(self, g: GraphWithInterface) -> Optional[int]:
        """Index of the fragment isomorphic to ``g``, or None."""
        for idx in self._buckets.get(g.signature, ()):
            if iso_check(self.fragments[idx], g):
                return idx
        return None

    def __len__(self):
        return len(self.fragments)

    def __getitem__(self, idx: int) -> GraphWithInterface:
        return self.fragments[idx]


def _part_masks(g: LabeledGraph, bset: set, incident: list) -> list:
    """For each component of g - beta that an edge of ``incident`` reaches,
    the mask of the incident edges into it; edges within beta are in none."""
    component: dict = {}
    out = []
    for i, (u, v) in enumerate(incident):
        x = u if v in bset else v
        if x in bset:
            continue
        if x not in component:
            component[x] = len(out)
            out.append(0)
            stack = [x]
            while stack:
                for y, _ in g.neighbors(stack.pop()):
                    if y not in bset and y not in component:
                        component[y] = component[x]
                        stack.append(y)
        out[component[x]] |= 1 << i
    return out


def sub_w(g: LabeledGraph, w: int, heads: Optional[set] = None) -> FragmentUniverse:
    """All boundary-attached fragments of ``g`` with rank <= w, one
    representative per isomorphism class: the first fragment of each class
    in ``boundary_specs`` order.  With ``heads``, a set of sorted interface
    label tuples, only the boundary tuples whose sorted labels are in it are
    kept; the rest are skipped before anything is built for them.

    Each specification is put in its class before anything is built.  The
    fragment F of (beta, chosen edges) is beta, its chosen beta-beta edges,
    and one part per component C of g - beta that a chosen edge reaches: C
    and beta with the chosen edges into C.  An isomorphism that keeps the
    interface order maps the components of F - beta onto those of F' -
    beta, and isomorphisms of the parts glue along beta, so F and F' are
    isomorphic exactly when their interface labels, their beta-beta edges
    by interface position and label, and the multisets of their parts'
    classes agree.  Hence:

    - a spec of exactly one part and no beta-beta edge is built and
      deduplicated by ``FragmentUniverse.add``;
    - any other spec is keyed by its labels, beta-beta edges and the
      classes of its one-part sub-specs, which have smaller masks and so
      are already resolved; it is built only when its key is new.  The
      edgeless spec (mask 0) is keyed by its interface labels alone,
      ``(labels, (), ())``, so it is built once per label tuple;
    - an ordering of beta other than the sorted one, which comes first,
      takes its class from the sorted ordering's class and the
      permutation, since reordering the interface commutes with
      isomorphism; the pair (class, permutation) is resolved once, and
      its answer also gives the class of (answer, inverse permutation).

    The universe therefore holds the same fragments in the same order as
    adding every specification's fragment would give.  ``heads`` keeps or
    skips a boundary tuple together with all its reorderings, which share
    its sorted labels, so every class of a kept tuple keeps the same first
    representative, and the universe is the unfiltered one with the
    fragments of skipped tuples left out.
    """
    universe = FragmentUniverse()
    several: dict = {}  # key of a spec of several parts -> universe index
    reordered: dict = {}  # (class under sorted beta, permutation) -> index
    sorted_classes: dict = {}  # sorted beta -> class of each mask
    for beta, incident, masks in boundary_specs(g, w):
        if heads is not None and tuple(sorted(g.vlabel[v] for v in beta)) not in heads:
            continue
        base = tuple(sorted(beta))
        perm = None if beta == base else tuple(base.index(v) for v in beta)
        inverse = perm and tuple(beta.index(v) for v in base)
        pos = {v: i for i, v in enumerate(beta)}
        inner = sum(1 << i for i, (u, v) in enumerate(incident)  # beta-beta edges
                    if u in pos and v in pos)
        parts = None
        classes = []  # universe index of each mask of beta
        for mask in masks:
            if perm is not None:
                memo = (sorted_classes[base][mask], perm)
                if memo in reordered:
                    classes.append(reordered[memo])
                    continue
            subs = ()
            if mask & (mask - 1) or mask & inner:
                if parts is None:
                    parts = _part_masks(g, set(beta), incident)
                subs = [mask & p for p in parts if mask & p]
            if mask and not mask & inner and len(subs) <= 1:
                idx = universe.add(build_fragment(g, beta, chosen(incident, mask)))
            else:
                key = (tuple(g.vlabel[v] for v in beta),
                       tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), g.edges[u, v])
                                    for u, v in chosen(incident, mask & inner))),
                       tuple(sorted(classes[s] for s in subs)))
                idx = several.get(key)
                if idx is None:
                    idx = several[key] = universe.append(
                        build_fragment(g, beta, chosen(incident, mask)))
            if perm is not None:
                reordered[memo] = idx
                reordered[idx, inverse] = memo[0]
            classes.append(idx)
        if perm is None:
            sorted_classes[beta] = classes
    return universe


class Provenance(NamedTuple):
    clause_index: int
    bindings: dict  # variable label -> fragment index


class DerivedAtomSet:
    __slots__ = ("universe", "derived", "rounds", "goal")

    def __init__(self, universe: FragmentUniverse):
        self.universe = universe
        self.derived: dict = {}  # (pred name, frag idx) -> Provenance
        self.rounds = 0
        self.goal: Optional[int] = None  # universe index of the whole input graph

    def holds(self, pred: str, frag_idx: int) -> bool:
        return (pred, frag_idx) in self.derived

    def by_predicate(self, pred: str) -> list:
        return sorted(idx for (p, idx) in self.derived if p == pred)


def _rule_groups(gamma: ClauseSystem) -> tuple:
    """The facts as (head pattern, head predicate, clause index), the rule
    groups in order of their first clause, an index from pool key to the
    groups that use it, the set of every clause head's sorted interface
    labels, facts included, and the first head variable of the greatest
    rank as (rank, clause index, label); cached on ``gamma``.

    A group holds the rules with the same sorted variables, pool keys and
    head key: the head pattern's ``key``, its canonical key with those
    variables renamed ``v0, v1, ...``.  Equal head keys then
    mean an isomorphism that keeps the interface order and every variable
    label, so one binding realizes, up to isomorphism, the graph of every
    member through the first member's head pattern: (head pattern, sorted
    variables, pool keys, members), the members being (head predicate,
    clause index) in clause order.  A
    variable's pool key, read from the clause's ``stars``, is the port
    labels of its stars and its sorted distinct body predicates; a clause
    whose stars disagree on a variable's port labels can never bind it and
    joins no group."""
    cache = getattr(gamma, "_rule_groups", None)
    if cache is None:
        facts, groups, heads, widest = [], {}, set(), (0, None, None)
        for i, cl in enumerate(gamma.clauses):
            head = cl.head.predicate.name
            heads.add(tuple(sorted(cl.head.pattern.base.interface_labels())))
            if not cl.stars:
                facts.append((cl.head.pattern, head, i))
                continue
            labels, preds = {}, {}
            for var, port_labels, name in cl.stars:
                labels.setdefault(var, set()).add(port_labels)
                preds.setdefault(var, set()).add(name)
                if len(port_labels) > widest[0]:
                    widest = (len(port_labels), i, var)
            if any(len(wanted) > 1 for wanted in labels.values()):
                continue
            variables = sorted(labels)
            pool_keys = tuple((next(iter(labels[v])), tuple(sorted(preds[v])))
                              for v in variables)
            key = (cl.head.pattern.key, tuple(variables), pool_keys)
            if key not in groups:
                groups[key] = (cl.head.pattern, variables, pool_keys, [])
            groups[key][3].append((head, i))
        groups = list(groups.values())
        by_pool_key: dict = {}
        for gi, (_, _, pool_keys, _) in enumerate(groups):
            for pk in set(pool_keys):
                by_pool_key.setdefault(pk, []).append(gi)
        cache = gamma._rule_groups = (facts, groups, by_pool_key, heads, widest)
    return cache


def _check_rank(gamma: ClauseSystem, w: int) -> None:
    """``sub_w`` offers no fragment to bind a variable of rank above w."""
    rank, i, var = _rule_groups(gamma)[4]
    if rank > w:
        raise ValueError(f"clause {i}: variable {var!r} has rank {rank} > w={w}")


def saturate(gamma: ClauseSystem, universe: FragmentUniverse,
             lookup: Callable[[GraphWithInterface], Optional[int]]) -> DerivedAtomSet:
    """Least set of (predicate, fragment) pairs derivable over ``universe``.

    ``lookup`` maps a realized clause head to its universe index, or to None
    when the graph does not count; it may add the graph to the universe.
    Semi-naive over rule groups (Bancilhon & Ramakrishnan, 1986): each round
    computes every pool it needs once, from the pairs derived before the
    round, and visits only the groups whose pools are all non-empty and one
    of which meets the previous round's new pairs.  A binding is tried in
    one round only, the first in which all its indices are in their pools,
    and every member's head predicate is derived from its realization.
    Groups that differ only in pool keys share a head key, so a binding is
    realized and looked up once per head key: ``key`` names the sorted
    variables ``v0, v1, ...``, equal keys bound alike realize isomorphic
    graphs, and ``lookup`` maps those alike (a growing universe already
    holds the first one's graph).
    """
    out = DerivedAtomSet(universe)
    facts, groups, by_pool_key, _, _ = _rule_groups(gamma)
    found: dict = {}

    def realized(pattern, variables, combo) -> Optional[int]:
        key = (pattern.key, combo)
        if key not in found:
            res = realize(pattern, {var: universe[idx]
                                    for var, idx in zip(variables, combo)})
            found[key] = lookup(res) if res is not None else None
        return found[key]

    for pattern, head_pred, clause_index in facts:
        idx = realized(pattern, (), ())
        if idx is not None:
            out.derived.setdefault((head_pred, idx), Provenance(clause_index, {}))

    new_pairs = set(out.derived)
    by_pred: dict[str, set] = {}
    for pred, idx in out.derived:
        by_pred.setdefault(pred, set()).add(idx)

    while new_pairs:
        out.rounds += 1
        frontier_by_pred: dict[str, set] = {}
        for pred, idx in new_pairs:
            frontier_by_pred.setdefault(pred, set()).add(idx)
        new_pairs = set()
        # pools and frontiers are snapshots: a pair derived in this round
        # joins them in the next, when it is in the frontier
        pools: dict = {}
        frontiers: dict = {}

        def pool(pk) -> list:
            if pk not in pools:
                labels, preds = pk
                have = set(universe.by_labels.get(labels, ()))
                fresh = set()
                for pred in preds:
                    have.intersection_update(by_pred.get(pred, ()))
                    fresh |= frontier_by_pred.get(pred, set())
                pools[pk] = sorted(have)
                frontiers[pk] = have & fresh
            return pools[pk]

        touched = set()
        for pk, gis in by_pool_key.items():
            if any(pred in frontier_by_pred for pred in pk[1]):
                pool(pk)
                if frontiers[pk]:
                    touched.update(gis)
        for gi in sorted(touched):
            pattern, variables, pool_keys, members = groups[gi]
            candidates = [pool(pk) for pk in pool_keys]
            if not all(candidates):
                continue
            frontier_sets = [frontiers[pk] for pk in pool_keys]
            for combo in product(*candidates):
                if not any(idx in frontier_sets[i] for i, idx in enumerate(combo)):
                    continue
                result_idx = realized(pattern, variables, combo)
                if result_idx is None:
                    continue
                for head_pred, clause_index in members:
                    pair = (head_pred, result_idx)
                    if pair not in out.derived:
                        out.derived[pair] = Provenance(
                            clause_index, dict(zip(variables, combo)))
                        new_pairs.add(pair)
        for pred, idx in new_pairs:
            by_pred.setdefault(pred, set()).add(idx)
    return out


def derive_fixpoint(gamma: ClauseSystem, g: LabeledGraph, w: int) -> DerivedAtomSet:
    """Least set of derivable (predicate, fragment) pairs over ``sub_w(g)``
    plus ``g`` itself with empty interface.

    ``sub_w`` builds only the fragments whose sorted interface labels are
    some clause head's.  That loses no pair: a lookup target is a realized
    head, whose interface labels are its head pattern's, and every binding
    is a derived pair, so an earlier lookup's target; a fragment whose
    labels match no head is never found and never bound.  Leaving it out
    shifts universe indices and nothing else: the kept fragments keep their
    order and vertex ids, so every pair is derived in the same order, with
    the same provenance.  A variable of rank above ``w`` is a ValueError."""
    _check_rank(gamma, w)
    universe = sub_w(g, w, _rule_groups(gamma)[3])
    goal = universe.add(closed(g))
    out = saturate(gamma, universe, universe.find)
    out.goal = goal
    return out


class DerivationNode:
    """One node of a derivation tree.  Trees can be as deep as the graph is
    large, so nothing here recurses: ``replay`` walks the tree as one flat
    list, ``repr`` shows one node, and nodes compare by identity."""

    __slots__ = ("predicate", "clause_index", "graph", "children")

    def __init__(self, predicate: str, clause_index: int,
                 graph: GraphWithInterface, children: dict):
        self.predicate = predicate
        self.clause_index = clause_index
        self.graph = graph
        self.children = children  # variable label -> DerivationNode

    def replay(self, gamma: ClauseSystem) -> Optional[GraphWithInterface]:
        """Re-realize the recorded tree bottom-up; the result should be
        isomorphic to the recorded graph, and is None if some node's
        realization is undefined."""
        order = [self]  # breadth-first, so every child comes after its parent
        for node in order:
            order.extend(node.children.values())
        replayed = {}
        for node in reversed(order):
            theta = {var: replayed[child] for var, child in node.children.items()}
            replayed[node] = None if None in theta.values() else realize(
                gamma.clauses[node.clause_index].head.pattern, theta)
        return replayed[self]

    def __repr__(self):
        return (f"DerivationNode({self.predicate!r}, clause={self.clause_index}, "
                f"children={sorted(self.children)})")


def _expand_tree(gamma: ClauseSystem, derived: DerivedAtomSet,
                 pred: str, idx: int) -> DerivationNode:
    """The derivation tree of a derived pair, built with an explicit stack.
    Each child is named after the first star of its variable; siblings are
    pushed in reverse so that they pop, and join their parent, in sorted
    variable order."""
    top: dict = {}
    stack = [(pred, idx, top, None)]  # (pred, idx, parent's children, variable)
    while stack:
        pred, idx, siblings, var = stack.pop()
        prov = derived.derived[(pred, idx)]
        node = siblings[var] = DerivationNode(
            pred, prov.clause_index, derived.universe[idx], {})
        first = {v: name for v, _, name in reversed(gamma.clauses[prov.clause_index].stars)}
        for v in sorted(first, reverse=True):
            stack.append((first[v], prov.bindings[v], node.children, v))
    return top[None]


def member(gamma: ClauseSystem, p: PredicateSymbol, g: LabeledGraph,
           params: ParamTuple, want_tree: bool = False):
    """Does the start predicate derive ``g``?

    A variable of rank above ``w`` is a ValueError, whatever the input;
    inputs beyond the degree bound are then rejected outright.  With
    ``want_tree`` the result is a (bool, DerivationNode-or-None) pair.
    """
    _check_rank(gamma, params.w)
    if p.name not in gamma.by_name or gamma.by_name[p.name].irank != 0:
        raise ValueError(f"predicate {p.name!r} is not a declared rank-0 predicate")
    if g.max_degree() > params.delta:
        return (False, None) if want_tree else False
    derived = derive_fixpoint(gamma, g, params.w)
    ok = derived.holds(p.name, derived.goal)
    if not want_tree:
        return ok
    return ok, _expand_tree(gamma, derived, p.name, derived.goal) if ok else None


def format_tree(node: DerivationNode) -> str:
    lines = []
    stack = [(node, 0, [])]  # (node, indent, the line naming it, if any)
    while stack:
        node, indent, heading = stack.pop()
        pad = "  " * indent
        g = node.graph
        lines += heading
        lines.append(f"{pad}{node.predicate} derives [n={g.graph.n}, m={g.graph.m}, "
                     f"rank={g.rank}] via clause {node.clause_index}")
        for var in sorted(node.children, reverse=True):
            stack.append((node.children[var], indent + 2, [f"{pad}  {var} :="]))
    return "\n".join(lines)
