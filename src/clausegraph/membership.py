"""Bottom-up saturation for fixed-interface clause systems: membership and
generation.

One semi-naive loop (``saturate``) derives the least set of (predicate,
fragment) pairs over a universe of fragments.  Membership runs it over a
fixed universe: the input graph's boundary-attached fragments of rank at
most w, plus the whole graph with empty interface, and a realized graph
counts only when it is already in that universe.  The input graph is a
fragment like any other, so a graph is a member exactly when the start
predicate holds on it.  Generation (``teacher.generate_language``) runs the
same loop over a universe that starts empty and grows by every realized
graph within its bounds.

Provenance is kept for every derived pair, so a successful query can be
replayed as a derivation tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from .boundary import brep_for_graph
from .clauses import Clause, ClauseSystem, ParamTuple, PredicateSymbol
from .graphs import (
    GraphWithInterface,
    LabeledGraph,
    closed,
    invariant_signature,
    iso_check,
    realize,
)


class FragmentUniverse:
    """Fragments deduplicated up to isomorphism: those of one host graph for
    membership, or the graphs derived so far for generation.

    Lookup buckets on ``invariant_signature``, which records each vertex's
    distances to the interface, and resolves within a bucket by exact
    isomorphism (``iso_check``).  Fragments that differ only in where the
    interface sits fall into different buckets, so nearly every exact test
    finds its match: on the benchmark's grids (seed 1) 0 of 2,560 and 8 of
    11,102 tests fail.  One unscaled pass over the twin grid takes 0.78 s
    this way against 4.99 s with a universe keyed by canonical key alone,
    and one pass over the path grid 1.32 s against 1.81 s (2-core host),
    because a key refines colours over the whole fragment.  Keys can
    replace the buckets once they are cheaper; see ROADMAP items 2 and 3.
    """

    def __init__(self):
        self.fragments: list[GraphWithInterface] = []
        self.by_labels: dict[tuple, list[int]] = {}  # interface labels -> indices
        self._buckets: dict[tuple, list[int]] = {}

    def add(self, g: GraphWithInterface) -> int:
        bucket = self._buckets.setdefault(invariant_signature(g), [])
        idx = self.find(g, bucket)
        if idx is not None:
            return idx
        idx = len(self.fragments)
        self.fragments.append(g)
        self.by_labels.setdefault(g.interface_labels(), []).append(idx)
        bucket.append(idx)
        return idx

    def find(self, g: GraphWithInterface, bucket: Optional[list] = None) -> Optional[int]:
        """Index of the fragment isomorphic to ``g``, or None.  ``bucket`` is
        ``g``'s signature bucket when the caller has already looked it up."""
        if bucket is None:
            bucket = self._buckets.get(invariant_signature(g), ())
        for idx in bucket:
            if iso_check(self.fragments[idx], g):
                return idx
        return None

    def __len__(self):
        return len(self.fragments)

    def __getitem__(self, idx: int) -> GraphWithInterface:
        return self.fragments[idx]


def sub_w(g: LabeledGraph, w: int) -> FragmentUniverse:
    """All boundary-attached fragments of ``g`` with rank <= w, one
    representative per isomorphism class, in deterministic enumeration
    order."""
    universe = FragmentUniverse()
    for rep in brep_for_graph(g, w):
        universe.add(rep.fragment)
    return universe


@dataclass
class Provenance:
    clause_index: int
    bindings: dict  # variable label -> fragment index


@dataclass
class DerivedAtomSet:
    universe: FragmentUniverse
    derived: dict = field(default_factory=dict)  # (pred name, frag idx) -> Provenance
    rounds: int = 0
    goal: Optional[int] = None  # universe index of the whole input graph

    def holds(self, pred: str, frag_idx: int) -> bool:
        return (pred, frag_idx) in self.derived

    def by_predicate(self, pred: str) -> list:
        return sorted(idx for (p, idx) in self.derived if p == pred)


class _CompiledClause:
    """Per-clause data the fixpoint loop needs: distinct variables, the
    interface labels a binding of each variable must carry, and the body
    predicates grouped per variable."""

    __slots__ = ("index", "head_pred", "pattern", "vars", "body_preds", "labels")

    def __init__(self, clause: Clause, index: int):
        self.index = index
        self.head_pred = clause.head.predicate.name
        self.pattern = clause.head.pattern
        self.vars = sorted(clause.variables())
        star_labels = {v: set() for v in self.vars}
        body_preds = {v: [] for v in self.vars}
        for atom in clause.body:
            h = atom.pattern.hyperedges[0]
            star_labels[h.label].add(
                tuple(atom.pattern.base.graph.vlabel[p] for p in h.ports))
            body_preds[h.label].append(atom.predicate.name)
        self.body_preds = body_preds
        # per variable: the port labels of its stars, or None when the
        # clause's stars disagree and nothing can ever bind (a fixed-interface
        # clause gives every variable at least one star)
        self.labels = {v: next(iter(wanted)) if len(wanted) == 1 else None
                       for v, wanted in star_labels.items()}

    def admissible(self, var: str, universe: FragmentUniverse):
        """Universe indices a binding for ``var`` may range over."""
        labels = self.labels[var]
        return () if labels is None else universe.by_labels.get(labels, ())


def _compiled(gamma: ClauseSystem) -> list:
    cache = getattr(gamma, "_compiled_clauses", None)
    if cache is None:
        cache = [_CompiledClause(cl, i) for i, cl in enumerate(gamma.clauses)]
        gamma._compiled_clauses = cache
    return cache


def saturate(gamma: ClauseSystem, universe: FragmentUniverse,
             lookup: Callable[[GraphWithInterface], Optional[int]]) -> DerivedAtomSet:
    """Least set of (predicate, fragment) pairs derivable over ``universe``.

    ``lookup`` maps a realized clause head to its universe index, or to None
    when the graph does not count; it may add the graph to the universe.
    Semi-naive: after the first round, a clause instantiation is retried
    only when at least one of its body pairs became derivable in the
    previous round.
    """
    out = DerivedAtomSet(universe)
    compiled = _compiled(gamma)
    facts = [c for c in compiled if not c.vars]
    rules = [c for c in compiled if c.vars]

    for c in facts:
        res = realize(c.pattern, {})
        idx = lookup(res) if res is not None else None
        if idx is not None:
            out.derived.setdefault((c.head_pred, idx), Provenance(c.index, {}))

    realize_memo: dict = {}
    new_pairs = set(out.derived)
    by_pred: dict[str, list[int]] = {}
    for pred, idx in out.derived:
        by_pred.setdefault(pred, []).append(idx)

    while new_pairs:
        out.rounds += 1
        frontier_pairs = new_pairs
        frontier_by_pred: dict[str, set] = {}
        for pred, idx in frontier_pairs:
            frontier_by_pred.setdefault(pred, set()).add(idx)
        new_pairs = set()
        for c in rules:
            candidates = []
            feasible = True
            for var in c.vars:
                # a variable bound by several body atoms needs every one derived
                pool = set(c.admissible(var, universe))
                for pred in c.body_preds[var]:
                    pool.intersection_update(by_pred.get(pred, ()))
                if not pool:
                    feasible = False
                    break
                candidates.append(sorted(pool))
            if not feasible:
                continue
            frontier_sets = []
            for var in c.vars:
                fs = set()
                for pred in c.body_preds[var]:
                    fs |= frontier_by_pred.get(pred, set())
                frontier_sets.append(fs)
            for combo in product(*candidates):
                if not any(idx in frontier_sets[i] for i, idx in enumerate(combo)):
                    continue
                key = (c.index, combo)
                if key in realize_memo:
                    result_idx = realize_memo[key]
                else:
                    theta = {var: universe[idx] for var, idx in zip(c.vars, combo)}
                    res = realize(c.pattern, theta)
                    result_idx = lookup(res) if res is not None else None
                    realize_memo[key] = result_idx
                if result_idx is None:
                    continue
                pair = (c.head_pred, result_idx)
                if pair not in out.derived:
                    out.derived[pair] = Provenance(
                        c.index, {var: idx for var, idx in zip(c.vars, combo)})
                    new_pairs.add(pair)
                    by_pred.setdefault(c.head_pred, []).append(result_idx)
    return out


def derive_fixpoint(gamma: ClauseSystem, g: LabeledGraph, w: int) -> DerivedAtomSet:
    """Least set of derivable (predicate, fragment) pairs over ``sub_w(g)``
    plus ``g`` itself with empty interface."""
    universe = sub_w(g, w)
    goal = universe.add(closed(g))
    out = saturate(gamma, universe, universe.find)
    out.goal = goal
    return out


@dataclass
class DerivationNode:
    predicate: str
    clause_index: int
    graph: GraphWithInterface
    children: dict  # variable label -> DerivationNode

    def replay(self, gamma: ClauseSystem) -> Optional[GraphWithInterface]:
        """Re-realize the recorded tree bottom-up; the result should be
        isomorphic to the recorded graph."""
        clause = gamma.clauses[self.clause_index]
        theta = {}
        for var, child in self.children.items():
            sub = child.replay(gamma)
            if sub is None:
                return None
            theta[var] = sub
        return realize(clause.head.pattern, theta)


def _expand_tree(gamma: ClauseSystem, derived: DerivedAtomSet,
                 pred: str, idx: int) -> DerivationNode:
    prov = derived.derived[(pred, idx)]
    node = DerivationNode(pred, prov.clause_index, derived.universe[idx], {})
    compiled = _compiled(gamma)[prov.clause_index]
    for var in compiled.vars:
        child_idx = prov.bindings[var]
        child_pred = compiled.body_preds[var][0]
        node.children[var] = _expand_tree(gamma, derived, child_pred, child_idx)
    return node


def member(gamma: ClauseSystem, p: PredicateSymbol, g: LabeledGraph,
           params: ParamTuple, want_tree: bool = False):
    """Does the start predicate derive ``g``?

    Inputs beyond the degree bound are rejected outright.  With
    ``want_tree`` the result is a (bool, DerivationNode-or-None) pair.
    """
    if p.name not in gamma.by_name or gamma.by_name[p.name].irank != 0:
        raise ValueError(f"predicate {p.name!r} is not a declared rank-0 predicate")
    if g.max_degree() > params.delta:
        return (False, None) if want_tree else False
    derived = derive_fixpoint(gamma, g, params.w)
    ok = derived.holds(p.name, derived.goal)
    if not want_tree:
        return ok
    return ok, _expand_tree(gamma, derived, p.name, derived.goal) if ok else None


def format_tree(node: DerivationNode, indent: int = 0) -> str:
    pad = "  " * indent
    g = node.graph
    desc = (f"{pad}{node.predicate} derives [n={g.graph.n}, m={g.graph.m}, "
            f"rank={g.rank}] via clause {node.clause_index}")
    lines = [desc]
    for var in sorted(node.children):
        lines.append(f"{pad}  {var} :=")
        lines.append(format_tree(node.children[var], indent + 2))
    return "\n".join(lines)
