"""The distributional learner.

State is a pair of fragment-representation sets extracted from the positive
sample: a predicate basis (refreshed only when the current hypothesis fails
to cover the sample) and a residual set (refreshed every stage).  Each stage
rebuilds the hypothesis by enumerating bounded clause candidates over the
basis and admitting exactly those that survive membership-query tests against
residual substitutions.

Representations with isomorphic fragments are collapsed into one class:
every admission test depends on a representation only through its fragment,
so the collapse changes no outcome while keeping the hypothesis small.  When
a tested family's head composition is undefined, the candidate is rejected,
mirroring how undefined compositions read as "not in the language"
everywhere else; genuine clauses over faithful context representatives never
trip this, since their head compositions land inside the language.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations, product
from typing import Callable, Optional, Sequence

from .boundary import enumerate_brep
from .clauses import (Atom, Clause, ClauseSystem, ParamTuple, clause_key,
                      predicate_for_fragment)
from .graphs import (
    EMPTY_INTERFACE_GRAPH,
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    VariableHyperedge,
    canonical_key,
    closed,
    compose,
    key_digest,
    realize,
    star_pattern,
)
from .membership import member


class RepClass:
    """One isomorphism class of boundary representations: the representative
    fragment, its canonical key, and how many raw representations collapsed
    into it."""

    __slots__ = ("fragment", "key", "rank", "count", "predicate")

    def __init__(self, fragment: GraphWithInterface, count: int = 1):
        self.fragment = fragment
        self.key = fragment.key
        self.rank = fragment.rank
        self.count = count
        self.predicate = predicate_for_fragment(fragment)

    def __repr__(self):
        return f"RepClass({self.predicate.name}, count={self.count})"


EMPTY_CLASS = RepClass(EMPTY_INTERFACE_GRAPH)


def collapse_reps(reps) -> list:
    """Group raw representations by fragment canonical key; deterministic
    order by (rank, key)."""
    by_key: dict = {}
    for rep in reps:
        key = rep.fragment.key
        if key in by_key:
            by_key[key].count += 1
        else:
            by_key[key] = RepClass(rep.fragment)
    return sorted(by_key.values(), key=lambda c: (c.rank, c.key))


def with_empty_class(classes: Sequence[RepClass]) -> list:
    """The predicate basis always contains the empty representation."""
    if any(c.key == EMPTY_CLASS.key for c in classes):
        return list(classes)
    return sorted([EMPTY_CLASS, *classes], key=lambda c: (c.rank, c.key))


class ObservationTable:
    """Boolean table over (basis class, residual class) pairs: a cell is true
    iff the composition of the two fragments is defined and the oracle
    accepts it.  Rank mismatches and undefined compositions are false without
    a query."""

    def __init__(self, rows: Sequence[RepClass], cols: Sequence[RepClass],
                 oracle: Callable[[LabeledGraph], bool]):
        self.rows = list(rows)
        self.cols = list(cols)
        self.cells: dict = {}
        self.queries = 0
        self._positives = [[] for _ in self.rows]
        for ri, row in enumerate(self.rows):
            for ci, col in enumerate(self.cols):
                value = False
                if row.rank == col.rank:
                    composed = compose(row.fragment, col.fragment)
                    if composed is not None:
                        self.queries += 1
                        value = oracle(composed)
                self.cells[(ri, ci)] = value
                if value:
                    self._positives[ri].append(ci)

    def cell(self, ri: int, ci: int) -> bool:
        return self.cells[(ri, ci)]

    def positives(self, ri: int) -> list:
        return self._positives[ri]


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadShape:
    """A head pattern with canonically named variables and its hyperedge
    occurrences.  Clause keys read the pattern's cached ``renaming_keys``, so
    candidates and the clauses built from them share one head-key cache."""

    pattern: GraphPattern
    occurrences: tuple  # (variable, rank, port label tuple) per hyperedge

    @property
    def head_keys(self) -> tuple:
        """Canonical pattern key per variable renaming."""
        return tuple(key for _, key in self.pattern.renaming_keys)

    @property
    def body_len(self) -> int:
        return len(self.occurrences)


@dataclass
class ClauseCandidate:
    head: RepClass
    shape: HeadShape
    body: tuple  # (variable, port labels, RepClass) aligned with occurrences
    key: tuple = field(default=None, compare=False)

    @property
    def is_fact(self) -> bool:
        return not self.body

    def distinct_variables(self) -> list:
        return sorted({var for var, _, _ in self.body})

    def to_clause(self) -> Clause:
        head_atom = Atom(self.head.predicate, self.shape.pattern)
        body_atoms = [Atom(cls.predicate, _shared_star(var, labels))
                      for var, labels, cls in self.body]
        return Clause(head_atom, body_atoms)


_STAR_CACHE: dict = {}


def _shared_star(var: str, labels: tuple) -> GraphPattern:
    """One star pattern per (variable, port labels); patterns are immutable,
    so every clause that needs the star shares it and its cached keys."""
    star = _STAR_CACHE.get((var, labels))
    if star is None:
        star = _STAR_CACHE[(var, labels)] = star_pattern(var, labels)
    return star


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _edge_assignments(n, d, elabels):
    """All labeled edge sets over vertices 0..n-1 with max degree <= d."""
    pairs = list(combinations_with_replacement(range(n), 2))
    pairs = [(u, v) for u, v in pairs if u != v]
    out = []

    def rec(i, edges, deg):
        if i == len(pairs):
            out.append(dict(edges))
            return
        u, v = pairs[i]
        rec(i + 1, edges, deg)
        if deg[u] < d and deg[v] < d:
            deg[u] += 1
            deg[v] += 1
            edges[(u, v)] = None
            for lab in elabels:
                edges[(u, v)] = lab
                rec(i + 1, edges, deg)
            del edges[(u, v)]
            deg[u] -= 1
            deg[v] -= 1

    rec(0, {}, {i: 0 for i in range(n)})
    return out


_SHAPE_CACHE: dict = {}


def head_shapes(iface_rank: int, params: ParamTuple,
                vlabels: tuple, elabels: tuple) -> list:
    """All head-pattern shapes with the given interface rank, up to
    isomorphism and variable renaming: at most ``h_max`` vertices, pattern
    degree at most ``d``, at most ``s`` hyperedges of rank at most ``w``,
    every grouping of hyperedges into equal-label classes."""
    cache_key = (iface_rank, params.s, params.w, params.d, params.h_max,
                 vlabels, elabels)
    if cache_key in _SHAPE_CACHE:
        return _SHAPE_CACHE[cache_key]
    shapes = []
    seen = set()
    for n in range(iface_rank, params.h_max + 1):
        # rank-0 variables are excluded: the only rank-0 fragment is the
        # empty graph, so they guard on nothing and say nothing
        port_choices = []
        for rank in range(1, params.w + 1):
            port_choices.extend(permutations(range(n), rank))
        for vassign in product(vlabels, repeat=n):
            vlabel = dict(enumerate(vassign))
            for edges in _edge_assignments(n, params.d, elabels):
                graph = LabeledGraph(vlabel, edges)
                for iface in permutations(range(n), iface_rank):
                    base = GraphWithInterface(graph, iface)
                    for k in range(params.s + 1):
                        for ports_multi in combinations_with_replacement(port_choices, k):
                            for shape in _shapes_for(base, ports_multi, seen):
                                shapes.append(shape)
    _SHAPE_CACHE[cache_key] = shapes
    return shapes


def _shapes_for(base: GraphWithInterface, ports_multi, seen):
    """Attach hyperedges on the given port tuples under every rank-consistent
    label grouping (``GraphPattern`` rejects the others); dedup against
    ``seen`` by renaming-minimal key."""
    occ = list(range(len(ports_multi)))
    for grouping in _set_partitions(occ):
        labels = {}
        for gi, g in enumerate(grouping):
            for i in g:
                labels[i] = f"x{gi}"
        try:
            hyper = [VariableHyperedge(labels[i], ports_multi[i]) for i in occ]
            pattern = GraphPattern(base, hyper)
        except ValueError:
            continue
        shape = make_shape(pattern)
        best = min(shape.head_keys)
        if best in seen:
            continue
        seen.add(best)
        yield shape


def make_shape(pattern: GraphPattern) -> HeadShape:
    """Wrap a head pattern as a shape."""
    occurrences = tuple(
        (h.label, h.rank, tuple(pattern.base.graph.vlabel[p] for p in h.ports))
        for h in pattern.hyperedges)
    return HeadShape(pattern, occurrences)


def candidate_key(cand: ClauseCandidate) -> tuple:
    """The ``clause_key`` of the clause the candidate builds."""
    return clause_key(cand.head.predicate.name, cand.shape.pattern,
                      [(var, labels, cls.predicate.name)
                       for var, labels, cls in cand.body])


@dataclass
class EnumerationInfo:
    total: int = 0
    facts: int = 0
    nonfacts: int = 0
    by_body_len: dict = field(default_factory=dict)
    shape_constant: int = 0  # max shapes over (interface rank, body length)


def enumerate_candidates(basis: Sequence[RepClass], params: ParamTuple,
                         vlabels: tuple, elabels: tuple):
    """All clause candidates over the basis, deduplicated by whole-clause
    shape key, in deterministic order."""
    by_rank: dict = {}
    for cls in basis:
        by_rank.setdefault(cls.rank, []).append(cls)
    candidates = []
    info = EnumerationInfo()
    seen = set()
    shape_counts: dict = {}
    for head_rank in sorted(by_rank):
        shapes = head_shapes(head_rank, params, vlabels, elabels)
        for shape in shapes:
            sck = (head_rank, shape.body_len)
            shape_counts[sck] = shape_counts.get(sck, 0) + 1
        for head_cls in by_rank[head_rank]:
            for shape in shapes:
                if shape.body_len > params.t:
                    continue
                groups: dict = {}
                for var, rank, labels in shape.occurrences:
                    groups.setdefault(var, []).append((rank, labels))
                assignable = True
                group_choices = []
                for var in sorted(groups):
                    rank = groups[var][0][0]
                    pool = by_rank.get(rank, [])
                    if not pool:
                        assignable = False
                        break
                    group_choices.append(
                        (var, list(combinations_with_replacement(pool, len(groups[var])))))
                if not assignable:
                    continue
                for combo in product(*(choices for _, choices in group_choices)):
                    assignment: dict = {}
                    for (var, _), chosen in zip(group_choices, combo):
                        assignment[var] = list(chosen)
                    body = []
                    counters = {var: 0 for var in assignment}
                    for var, rank, labels in shape.occurrences:
                        cls = assignment[var][counters[var]]
                        counters[var] += 1
                        body.append((var, labels, cls))
                    cand = ClauseCandidate(head_cls, shape, tuple(body))
                    cand.key = candidate_key(cand)
                    if cand.key in seen:
                        continue
                    seen.add(cand.key)
                    candidates.append(cand)
    candidates.sort(key=lambda c: c.key)
    for cand in candidates:
        info.total += 1
        ell = len(cand.body)
        info.by_body_len[ell] = info.by_body_len.get(ell, 0) + 1
        if cand.is_fact:
            info.facts += 1
        else:
            info.nonfacts += 1
    info.shape_constant = max(shape_counts.values(), default=0)
    return candidates, info


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

class _AdmissionMemo:
    """Shared scratch for one hypothesis construction: realizations keyed by
    (shape, residual bindings) and oracle verdicts keyed by (head class,
    realization)."""

    def __init__(self):
        self.realize_memo: dict = {}
        self.head_memo: dict = {}
        self.realized: dict = {}


def admit_clause(cand: ClauseCandidate, table: ObservationTable,
                 oracle: Callable[[LabeledGraph], bool],
                 memo: Optional[_AdmissionMemo] = None,
                 counter: Optional[dict] = None) -> bool:
    """Apply the admission test for one candidate against the table's
    residual classes.

    Facts are admitted iff the composition of the head fragment with the
    ground head is defined and oracle-positive.  Non-facts are rejected iff
    some residual family with all-positive body cells realizes to a defined
    graph whose head composition is undefined or oracle-negative.
    """
    memo = memo if memo is not None else _AdmissionMemo()
    counter = counter if counter is not None else {}
    if cand.is_fact:
        counter["fact_queries"] = counter.get("fact_queries", 0)
        composed = compose(cand.head.fragment, cand.shape.pattern.as_interface_graph())
        if composed is None:
            return False
        counter["fact_queries"] += 1
        return oracle(composed)

    row_index = {cls.key: ri for ri, cls in enumerate(table.rows)}
    variables = sorted({var for var, _, _ in cand.body})
    per_var_cols = []
    for var in variables:
        sets = []
        for v, _, cls in cand.body:
            if v != var:
                continue
            ri = row_index.get(cls.key)
            if ri is None:
                return True  # body predicate outside the table: no family exists
            sets.append(set(table.positives(ri)))
        cols = set.intersection(*sets) if sets else set()
        if not cols:
            return True  # vacuous admission: no all-positive family
        per_var_cols.append(sorted(cols))

    shape_id = cand.shape.pattern.key
    for family in product(*per_var_cols):
        counter["families"] = counter.get("families", 0) + 1
        rkey = (shape_id, family)
        if rkey in memo.realize_memo:
            realized_id = memo.realize_memo[rkey]
        else:
            theta = {var: table.cols[ci].fragment
                     for var, ci in zip(variables, family)}
            realized = realize(cand.shape.pattern, theta)
            if realized is None:
                realized_id = None
            else:
                realized_id = canonical_key(realized)
                memo.realized.setdefault(realized_id, realized)
            memo.realize_memo[rkey] = realized_id
        if realized_id is None:
            continue
        hkey = (cand.head.key, realized_id)
        if hkey in memo.head_memo:
            verdict = memo.head_memo[hkey]
        else:
            realized = memo.realized[realized_id]
            composed = compose(cand.head.fragment, realized)
            if composed is None:
                verdict = False  # undefined head composition reads as negative
            else:
                counter["admission_queries"] = counter.get("admission_queries", 0) + 1
                verdict = oracle(composed)
            memo.head_memo[hkey] = verdict
        if not verdict:
            return False
    return True


# ---------------------------------------------------------------------------
# hypothesis construction
# ---------------------------------------------------------------------------

@dataclass
class GammaStats:
    table_queries: int = 0
    fact_candidates: int = 0
    nonfact_candidates: int = 0
    candidates_total: int = 0
    shape_constant: int = 0
    fact_queries: int = 0
    admission_queries: int = 0
    families: int = 0
    admitted: int = 0
    oracle_calls: int = 0


@dataclass
class ConstructionRecord:
    """What a stage's construction saw: enough to replay admissions."""
    basis: list
    residual: list
    table: ObservationTable
    rejected: list
    admitted: list


def construct_gamma(basis: Sequence[RepClass], residual: Sequence[RepClass],
                    oracle: Callable[[LabeledGraph], bool], params: ParamTuple,
                    vlabels: tuple, elabels: tuple,
                    record: Optional[ConstructionRecord] = None):
    """Build the hypothesis for one (basis, residual) pair: one predicate per
    basis class, admitted candidates as clauses, the empty class as start."""
    basis = with_empty_class(basis)
    calls = {"n": 0}

    def counting_oracle(g):
        calls["n"] += 1
        return oracle(g)

    table = ObservationTable(basis, residual, counting_oracle)
    candidates, info = enumerate_candidates(basis, params, vlabels, elabels)
    memo = _AdmissionMemo()
    counter: dict = {}
    clauses = []
    for cand in candidates:
        ok = admit_clause(cand, table, counting_oracle, memo, counter)
        if ok:
            clauses.append(cand.to_clause())
            if record is not None:
                record.admitted.append(cand)
        elif record is not None:
            record.rejected.append(cand)
    if record is not None:
        record.basis = list(basis)
        record.residual = list(residual)
        record.table = table
    predicates = [cls.predicate for cls in basis]
    start = next(cls.predicate for cls in basis if cls.key == EMPTY_CLASS.key)
    gamma = ClauseSystem(predicates, clauses, start=start)
    stats = GammaStats(
        table_queries=table.queries,
        fact_candidates=info.facts,
        nonfact_candidates=info.nonfacts,
        candidates_total=info.total,
        shape_constant=info.shape_constant,
        fact_queries=counter.get("fact_queries", 0),
        admission_queries=counter.get("admission_queries", 0),
        families=counter.get("families", 0),
        admitted=len(clauses),
        oracle_calls=calls["n"],
    )
    return gamma, stats


def gamma_digest(gamma: ClauseSystem) -> str:
    return hashlib.blake2b(repr(gamma.digest_key()).encode(),
                           digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# the stage loop
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    stage: int
    presented: str            # digest of the presented graph
    sample_size: int
    update_fired: bool
    basis_size: int
    residual_size: int
    hypothesis: ClauseSystem
    hypothesis_digest: str
    counters: dict
    wall_time: float
    construction: Optional[ConstructionRecord] = None

    def summary(self) -> dict:
        """Machine-readable stage facts; deterministic for equal runs, so
        wall-clock time stays out."""
        out = {
            "stage": self.stage,
            "presented": self.presented,
            "sample_size": self.sample_size,
            "update_fired": self.update_fired,
            "basis_size": self.basis_size,
            "residual_size": self.residual_size,
            "hypothesis_digest": self.hypothesis_digest,
        }
        out.update(self.counters)
        return out


class Learner:
    """Runs the stage loop against a membership oracle.

    The learner sees the teacher only through the oracle callable and the
    graphs handed to ``observe``; convergence means the hypothesis digest
    stops changing and no update fires.
    """

    def __init__(self, oracle: Callable[[LabeledGraph], bool],
                 params: ParamTuple, record_admissions: bool = False):
        self.oracle = oracle
        self.params = params
        self.record_admissions = record_admissions
        self.sample: list = []
        self._sample_keys: set = set()
        self.basis: list = [EMPTY_CLASS]
        self.residual: list = []
        self.stage = 0
        self.records: list = []
        self._vlabels: set = set()
        self._elabels: set = set()
        self._cache_key = None
        self._cache_value = None  # (hypothesis, stats, digest)
        self._coverage_memo: dict = {}

    # -- helpers -----------------------------------------------------------

    def _alphabets(self):
        return tuple(sorted(self._vlabels)), tuple(sorted(self._elabels))

    def _state_key(self):
        return (tuple(c.key for c in self.basis),
                tuple(c.key for c in self.residual),
                self._alphabets())

    def _construct(self, record: Optional[ConstructionRecord] = None):
        key = self._state_key()
        if record is None and self._cache_key == key:
            return self._cache_value
        vlabels, elabels = self._alphabets()
        gamma, stats = construct_gamma(
            self.basis, self.residual, self.oracle, self.params,
            vlabels, elabels, record=record)
        self._cache_key = key
        self._cache_value = (gamma, stats, gamma_digest(gamma))
        return self._cache_value

    def _covers_sample(self, gamma: ClauseSystem, digest: str) -> tuple:
        calls = 0
        covered = True
        for g in self.sample:
            gkey = (digest, canonical_key(closed(g)))
            if gkey in self._coverage_memo:
                verdict = self._coverage_memo[gkey]
            else:
                calls += 1
                verdict = member(gamma, gamma.start, g, self.params)
                self._coverage_memo[gkey] = verdict
            if not verdict:
                covered = False
                break
        return covered, calls

    # -- the stage ----------------------------------------------------------

    def observe(self, g: LabeledGraph) -> StageRecord:
        t0 = time.perf_counter()
        self.stage += 1
        if g.max_degree() > self.params.delta:
            raise ValueError(
                f"presented graph exceeds the degree bound "
                f"{self.params.delta}")

        # the interim hypothesis reflects the end of the previous stage; on
        # unchanged state this is the cached previous construction
        interim, _, interim_digest = self._construct()

        key = canonical_key(closed(g))
        if key not in self._sample_keys:
            self._sample_keys.add(key)
            self.sample.append(g)
            self._vlabels.update(g.vlabel.values())
            self._elabels.update(g.edges.values())

        covered, member_calls = self._covers_sample(interim, interim_digest)
        update_fired = not covered

        reps = enumerate_brep(self.sample, self.params.w, self.params.delta)
        classes = collapse_reps(reps)
        if update_fired:
            self.basis = with_empty_class(classes)
        self.residual = classes

        record = ConstructionRecord([], [], None, [], []) if self.record_admissions else None
        gamma, stats, digest = self._construct(record=record)

        counters = {
            "oracle_queries": stats.oracle_calls,
            "table_queries": stats.table_queries,
            "fact_queries": stats.fact_queries,
            "admission_queries": stats.admission_queries,
            "families": stats.families,
            "candidates": stats.candidates_total,
            "fact_candidates": stats.fact_candidates,
            "nonfact_candidates": stats.nonfact_candidates,
            "shape_constant": stats.shape_constant,
            "admitted_clauses": stats.admitted,
            "internal_member_calls": member_calls,
            "raw_representations": len(reps),
        }
        out = StageRecord(
            stage=self.stage,
            presented=key_digest(closed(g)),
            sample_size=len(self.sample),
            update_fired=update_fired,
            basis_size=len(self.basis),
            residual_size=len(self.residual),
            hypothesis=gamma,
            hypothesis_digest=digest,
            counters=counters,
            wall_time=time.perf_counter() - t0,
            construction=record,
        )
        self.records.append(out)
        return out

    def run(self, presentation, stages: int) -> list:
        return [self.observe(next(presentation)) for _ in range(stages)]

    @property
    def hypothesis(self) -> Optional[ClauseSystem]:
        return self.records[-1].hypothesis if self.records else None

    def stable_from(self) -> Optional[int]:
        """First stage from which the hypothesis digest never changes and no
        update fires; None if that never happens within the recorded run."""
        if not self.records:
            return None
        final = self.records[-1].hypothesis_digest
        start = None
        for rec in self.records:
            if rec.hypothesis_digest == final and not rec.update_fired:
                if start is None:
                    start = rec.stage
            else:
                start = None
        return start
