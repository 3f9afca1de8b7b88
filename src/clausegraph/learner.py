"""The distributional learner.

State is a pair of fragment-representation sets extracted from the positive
sample: a predicate basis (refreshed only when the current hypothesis fails
to cover the sample) and a residual set, which is every class seen so far.
The classes grow with the sample: a graph new to it adds the classes of its
own representations, and a graph already in it adds nothing.  Whenever the
basis, the residual or the label alphabets change, the learner rebuilds the
hypothesis by enumerating bounded clause candidates over the basis and
admitting exactly those that survive membership-query tests against residual
substitutions; a stage that changes none of them keeps the last hypothesis.
A candidate is its clause: it builds its ``Clause`` once, is keyed by that
clause's ``shape_key``, and every hypothesis that admits it holds that same
clause object.  A rebuild reuses what a growing residual cannot change: the
candidates while the basis and the alphabets stay, the realizations of
residual classes, the composed query graphs of table cells and admission
tests, and the clause system while the admitted set stays.  Candidates that
share a head pattern and a body and differ only in their head class are
admitted together: their families are walked and realized once, and a body
that no family can realize is settled by counting alone.  Every oracle query
is still asked, so the stage counters are those of a rebuild from scratch,
one candidate at a time; a query asked again is the graph composed the first
time, which the teacher answers from its memos without keying it again.

Representations with isomorphic fragments form one class, taken from
``membership.sub_w``: every admission test depends on a representation only
through its fragment, so this changes no outcome and keeps the hypothesis
small.  When a tested family's head composition is undefined, the candidate
is rejected, mirroring how undefined compositions read as "not in the
language" everywhere else; genuine clauses over faithful context
representatives never trip this, since their head compositions land inside
the language.  ``Construction`` and ``StageRecord`` are NamedTuples, and
``ClauseCandidate``, which builds its clause when it is made, is a
``__slots__`` class.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod
from typing import Callable, NamedTuple, Optional, Sequence

from .boundary import boundary_specs
from .clauses import (Atom, Clause, ClauseSystem, ParamTuple,
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
from .membership import member, sub_w


class RepClass:
    """One isomorphism class of boundary representations: the representative
    fragment and its canonical key."""

    __slots__ = ("fragment", "key", "rank", "predicate")

    def __init__(self, fragment: GraphWithInterface):
        self.fragment = fragment
        self.key = fragment.key
        self.rank = fragment.rank
        self.predicate = predicate_for_fragment(fragment)

    def __repr__(self):
        return f"RepClass({self.predicate.name})"


EMPTY_CLASS = RepClass(EMPTY_INTERFACE_GRAPH)


def collapse_reps(fragments) -> list:
    """One class per fragment canonical key, the first fragment of each kept;
    deterministic order by (rank, key)."""
    by_key: dict = {}
    for fragment in fragments:
        if fragment.key not in by_key:
            by_key[fragment.key] = RepClass(fragment)
    return sorted(by_key.values(), key=lambda c: (c.rank, c.key))


def with_empty_class(classes: Sequence[RepClass]) -> list:
    """The predicate basis always contains the empty representation."""
    if any(c.key == EMPTY_CLASS.key for c in classes):
        return list(classes)
    return sorted([EMPTY_CLASS, *classes], key=lambda c: (c.rank, c.key))


def _composed(composed: dict, key, g: GraphWithInterface,
              h: GraphWithInterface) -> Optional[LabeledGraph]:
    """``compose(g, h)``, memoised in ``composed`` under ``key``, which must
    determine both fragments exactly; an undefined composition is memoised
    as None."""
    if key not in composed:
        composed[key] = compose(g, h)
    return composed[key]


class ObservationTable:
    """Boolean table over (basis class, residual class) pairs: a cell is true
    iff the composition of the two fragments is defined and the oracle
    accepts it.  Rank mismatches and undefined compositions are false without
    a query.  Each row keeps the set of its true columns, and ``row_of`` finds
    a basis class's row by key, so admission tests read the table directly.
    ``composed``, if given, memoises each cell's composition under its (row
    class, column class) pair across tables; every query is still asked."""

    def __init__(self, rows: Sequence[RepClass], cols: Sequence[RepClass],
                 oracle: Callable[[LabeledGraph], bool],
                 composed: Optional[dict] = None):
        self.rows = list(rows)
        self.cols = list(cols)
        self.row_of = {cls.key: ri for ri, cls in enumerate(self.rows)}
        self.queries = 0
        self.true_cols = []
        composed = composed if composed is not None else {}
        for row in self.rows:
            true = []
            for ci, col in enumerate(self.cols):
                if row.rank == col.rank:
                    query = _composed(composed, (row, col),
                                      row.fragment, col.fragment)
                    if query is not None:
                        self.queries += 1
                        if oracle(query):
                            true.append(ci)
            self.true_cols.append(frozenset(true))

    def cell(self, ri: int, ci: int) -> bool:
        return ci in self.true_cols[ri]


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------

class ClauseCandidate:
    """A clause over the basis: a head class, a head pattern with canonically
    named variables, and one (variable, port labels, class) body entry per
    hyperedge of the pattern, in hyperedge order.  The candidate builds its
    ``Clause`` when it is made and keeps it, so every hypothesis that admits
    the candidate holds that one clause object, and ``key`` is the clause's
    cached ``shape_key``."""

    __slots__ = ("head", "pattern", "body", "clause")

    def __init__(self, head: RepClass, pattern: GraphPattern, body: tuple):
        self.head = head
        self.pattern = pattern
        self.body = body
        self.clause = Clause(
            Atom(head.predicate, pattern),
            [Atom(cls.predicate, _shared_star(var, labels)) for var, labels, cls in body])

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def key(self) -> tuple:
        return self.clause.shape_key

    def to_clause(self) -> Clause:
        return self.clause


@cache
def _shared_star(var: str, labels: tuple) -> GraphPattern:
    """One star pattern per (variable, port labels); patterns are immutable,
    so every clause that needs the star shares it and its cached keys."""
    return star_pattern(var, labels)


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
    pairs = list(combinations(range(n), 2))
    out = []
    for choice in product((None, *elabels), repeat=len(pairs)):
        edges = {uv: lab for uv, lab in zip(pairs, choice) if lab is not None}
        if max(Counter(v for uv in edges for v in uv).values(), default=0) <= d:
            out.append(edges)
    return out


@cache
def head_shapes(iface_rank: int, params: ParamTuple,
                vlabels: tuple, elabels: tuple) -> tuple:
    """All head patterns with the given interface rank, up to isomorphism
    and variable renaming: at most ``h_max`` vertices, pattern degree at
    most ``d``, at most ``s`` hyperedges of rank at most ``w``, every
    grouping of hyperedges of one rank into equal-label classes."""
    shapes = []
    seen = set()
    for n in range(iface_rank, params.h_max + 1):
        # rank-0 variables are excluded: the only rank-0 fragment is the
        # empty graph, so they guard on nothing and say nothing
        port_choices = []
        for rank in range(1, params.w + 1):
            port_choices.extend(permutations(range(n), rank))
        edge_sets = _edge_assignments(n, params.d, elabels)
        for vassign in product(vlabels, repeat=n):
            vlabel = dict(enumerate(vassign))
            for edges in edge_sets:
                graph = LabeledGraph(vlabel, edges)
                for iface in permutations(range(n), iface_rank):
                    base = GraphWithInterface(graph, iface)
                    for k in range(params.s + 1):
                        for ports_multi in combinations_with_replacement(port_choices, k):
                            shapes.extend(_shapes_for(base, ports_multi, seen))
    return tuple(shapes)


def _shapes_for(base: GraphWithInterface, ports_multi, seen):
    """Attach hyperedges on the given port tuples, which come in ascending
    rank, under every grouping into equal-label classes of one rank: the
    set partitions of each rank's occurrences, labelled ``x0, x1, ...``
    lowest rank first; dedup against ``seen`` by renaming-minimal key."""
    by_rank: dict = {}
    for ports in ports_multi:
        by_rank.setdefault(len(ports), []).append(ports)
    # the highest rank's partition varies slowest, the order in which
    # partitioning all occurrences at once meets the rank-consistent ones
    for parts in product(*map(_set_partitions, reversed(by_rank.values()))):
        grouping = [block for part in reversed(parts) for block in part]
        pattern = GraphPattern(base, [VariableHyperedge(f"x{gi}", ports)
                                      for gi, block in enumerate(grouping)
                                      for ports in block])
        best = min(key for _, key in pattern.renaming_keys)
        if best in seen:
            continue
        seen.add(best)
        yield pattern


def _bodies(pattern: GraphPattern, by_rank: dict) -> list:
    """Every body of a head pattern over the classes in ``by_rank``: one
    (variable, port labels, class) entry per hyperedge, in hyperedge order,
    where each variable's entries take a multiset of classes of its rank."""
    vlabel = pattern.base.graph.vlabel
    occurrences = [(h.label, tuple(vlabel[p] for p in h.ports))
                   for h in pattern.hyperedges]
    uses = Counter(var for var, _ in occurrences)
    ranks = pattern.variables()  # sorted by label
    choices = [combinations_with_replacement(by_rank.get(rank, []), uses[var])
               for var, rank in ranks.items()]
    bodies = []
    for combo in product(*choices):
        picks = {var: iter(chosen) for var, chosen in zip(ranks, combo)}
        bodies.append(tuple((var, labels, next(picks[var]))
                            for var, labels in occurrences))
    return bodies


def enumerate_candidates(basis: Sequence[RepClass], params: ParamTuple,
                         vlabels: tuple, elabels: tuple):
    """All clause candidates over the basis, deduplicated by whole-clause
    shape key, in deterministic order, and the shape constant: the most head
    shapes for one (interface rank, body length)."""
    by_rank: dict = {}
    for cls in basis:
        by_rank.setdefault(cls.rank, []).append(cls)
    candidates = []
    seen = set()
    shape_counts: Counter = Counter()
    for head_rank in sorted(by_rank):
        shapes = head_shapes(head_rank, params, vlabels, elabels)
        shape_counts.update((head_rank, len(p.hyperedges)) for p in shapes)
        bodies = [(pattern, _bodies(pattern, by_rank)) for pattern in shapes
                  if len(pattern.hyperedges) <= params.t]
        for head_cls in by_rank[head_rank]:
            for pattern, pattern_bodies in bodies:
                for body in pattern_bodies:
                    cand = ClauseCandidate(head_cls, pattern, body)
                    if cand.key not in seen:
                        seen.add(cand.key)
                        candidates.append(cand)
    candidates.sort(key=lambda c: c.key)
    return candidates, max(shape_counts.values(), default=0)


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------

class _AdmissionMemo:
    """Scratch for hypothesis constructions; a ``Learner`` keeps one for its
    whole life.

    What a growing residual cannot change is carried from one construction
    to the next: the candidate list and shape constant, while the basis
    keys, the bounds and the alphabets stay the same; realizations, keyed by
    (head pattern, residual classes), each distinct realized graph (equal
    vertex ids, labels, edges and interface) canonicalised once in
    ``realized_keys`` and the first graph of each key kept in ``realized``;
    the composed query graphs (``composed``), keyed by (row class, column
    class) for table cells, by (head class, ground head) for facts and by
    (head class, realized id) for admission heads; and the clause system,
    while the basis keys and the admitted candidates' keys stay the same,
    built from the clause each candidate keeps.  Oracle verdicts
    (``head_memo``) are kept for one construction only, so every query,
    family and counter is the one a construction from scratch makes; a query
    built on a carried realization may differ from the scratch one in its
    vertex ids only."""

    def __init__(self):
        self.realize_memo: dict = {}
        self.head_memo: dict = {}
        self.realized: dict = {}
        self.realized_keys: dict = {}
        self.composed: dict = {}
        self._candidates = None  # (key, candidates, shape constant)
        self._system = None  # (key, ClauseSystem)

    def candidates(self, basis: Sequence[RepClass], params: ParamTuple,
                   vlabels: tuple, elabels: tuple):
        """``enumerate_candidates`` and the candidates' indices grouped by
        (head pattern, body), in order of first appearance; reused while the
        inputs are unchanged."""
        key = (tuple(c.key for c in basis), params, vlabels, elabels)
        if self._candidates is None or self._candidates[0] != key:
            candidates, shape_constant = enumerate_candidates(
                basis, params, vlabels, elabels)
            groups: dict = {}
            for i, cand in enumerate(candidates):
                groups.setdefault((cand.pattern.key, cand.body), []).append(i)
            self._candidates = (key, candidates, shape_constant,
                                list(groups.values()))
        return self._candidates[1:]

    def system(self, basis: Sequence[RepClass], admitted) -> ClauseSystem:
        """The hypothesis over the basis with the admitted candidates as
        clauses and the empty class as start; the same object while the
        basis keys and the admitted keys, in order, are unchanged."""
        key = (tuple(c.key for c in basis), tuple(c.key for c in admitted))
        if self._system is None or self._system[0] != key:
            start = next(c.predicate for c in basis if c.key == EMPTY_CLASS.key)
            self._system = (key, ClauseSystem(
                [c.predicate for c in basis],
                [cand.to_clause() for cand in admitted], start=start))
        return self._system[1]


def admit_clause(cand: ClauseCandidate, table: ObservationTable,
                 oracle: Callable[[LabeledGraph], bool],
                 memo: Optional[_AdmissionMemo] = None,
                 counter: Optional[Counter] = None) -> bool:
    """Apply the admission test for one candidate against the table's
    residual classes, counting queries and families in ``counter``.

    Facts are admitted iff the composition of the head fragment with the
    ground head is defined and oracle-positive.  Non-facts are rejected iff
    some residual family with all-positive body cells realizes to a defined
    graph whose head composition is undefined or oracle-negative.
    """
    return admit_group([cand], table, oracle, memo, counter)[0]


def admit_group(group: Sequence[ClauseCandidate], table: ObservationTable,
                oracle: Callable[[LabeledGraph], bool],
                memo: Optional[_AdmissionMemo] = None,
                counter: Optional[Counter] = None) -> list:
    """``admit_clause`` for candidates that share a head pattern and a body and
    differ only in their head class, one verdict per candidate.

    The families and their realizations depend only on the shared part, so
    each family is walked and realized once for the whole group, and each
    head keeps its own early stop: every candidate asks the same (head,
    realized) queries and counts the same families as on its own.  A body
    class whose interface labels differ from its port labels makes the body
    dead: every column of that class's row carries the row's labels, since
    composition checks them, so no family realizes and every head is
    admitted after all its families, without realizing any.  Every body
    class must be a row of ``table``; another is a ``KeyError``.
    """
    memo = memo if memo is not None else _AdmissionMemo()
    counter = counter if counter is not None else Counter()
    first = group[0]
    if first.is_fact:
        ground = first.pattern.base
        verdicts = []
        for cand in group:
            composed = _composed(memo.composed, (cand.head, ground),
                                 cand.head.fragment, ground)
            if composed is not None:
                counter["fact_queries"] += 1
            verdicts.append(composed is not None and oracle(composed))
        return verdicts

    admitted = [True] * len(group)
    variables = sorted({var for var, _, _ in first.body})
    per_var_cols = []
    for var in variables:
        rows = [table.row_of[cls.key] for v, _, cls in first.body if v == var]
        cols = frozenset.intersection(*(table.true_cols[ri] for ri in rows))
        if not cols:
            return admitted  # vacuous admission: no all-positive family
        per_var_cols.append(sorted(cols))
    if any(cls.fragment.interface_labels() != labels
           for _, labels, cls in first.body):
        counter["families"] += len(group) * prod(map(len, per_var_cols))
        return admitted

    shape_id = first.pattern.key
    cols = table.cols
    alive = list(range(len(group)))
    for family in product(*per_var_cols):
        counter["families"] += len(alive)
        # residual classes, not column indices: a class keeps its object for
        # the learner's life while its column shifts as the residual grows
        classes = tuple(cols[ci] for ci in family)
        rkey = (shape_id, classes)
        if rkey in memo.realize_memo:
            realized_id = memo.realize_memo[rkey]
        else:
            theta = {var: cls.fragment for var, cls in zip(variables, classes)}
            realized = realize(first.pattern, theta)
            if realized is None:
                realized_id = None
            else:
                realized_id = memo.realized_keys.get(realized)
                if realized_id is None:
                    realized_id = memo.realized_keys[realized] = canonical_key(realized)
                memo.realized.setdefault(realized_id, realized)
            memo.realize_memo[rkey] = realized_id
        if realized_id is None:
            continue
        for i in alive:
            head = group[i].head
            hkey = (head.key, realized_id)
            if hkey in memo.head_memo:
                verdict = memo.head_memo[hkey]
            else:
                composed = _composed(memo.composed, (head, realized_id),
                                     head.fragment, memo.realized[realized_id])
                if composed is None:
                    verdict = False  # undefined head composition reads as negative
                else:
                    counter["admission_queries"] += 1
                    verdict = oracle(composed)
                memo.head_memo[hkey] = verdict
            admitted[i] = verdict
        alive = [i for i in alive if admitted[i]]
        if not alive:
            break
    return admitted


# ---------------------------------------------------------------------------
# hypothesis construction
# ---------------------------------------------------------------------------

class Construction(NamedTuple):
    """One hypothesis construction: the hypothesis, its counters under the
    trace field names, what it was built from, and every candidate's
    verdict."""
    hypothesis: ClauseSystem
    counters: dict
    basis: list
    residual: list
    table: ObservationTable
    admitted: list
    rejected: list


def construct_gamma(basis: Sequence[RepClass], residual: Sequence[RepClass],
                    oracle: Callable[[LabeledGraph], bool], params: ParamTuple,
                    vlabels: tuple, elabels: tuple,
                    memo: Optional[_AdmissionMemo] = None) -> Construction:
    """Build the hypothesis for one (basis, residual) pair: one predicate per
    basis class, admitted candidates as clauses, the empty class as start.
    Without ``memo`` everything is built from scratch; with one carried over
    from earlier constructions on the same oracle and bounds, the result is
    the same and only the reusable work is skipped."""
    memo = memo if memo is not None else _AdmissionMemo()
    memo.head_memo = {}
    basis = with_empty_class(basis)
    table = ObservationTable(basis, residual, oracle, memo.composed)
    candidates, shape_constant, groups = memo.candidates(
        basis, params, vlabels, elabels)
    counter: Counter = Counter()
    verdicts = [False] * len(candidates)
    for group in groups:
        shared = admit_group([candidates[i] for i in group], table, oracle,
                             memo, counter)
        for i, verdict in zip(group, shared):
            verdicts[i] = verdict
    admitted = [c for c, ok in zip(candidates, verdicts) if ok]
    rejected = [c for c, ok in zip(candidates, verdicts) if not ok]
    gamma = memo.system(basis, admitted)
    facts = sum(cand.is_fact for cand in candidates)
    counters = {
        "oracle_queries": (table.queries + counter["fact_queries"]
                           + counter["admission_queries"]),
        "table_queries": table.queries,
        "fact_queries": counter["fact_queries"],
        "admission_queries": counter["admission_queries"],
        "families": counter["families"],
        "candidates": len(candidates),
        "fact_candidates": facts,
        "nonfact_candidates": len(candidates) - facts,
        "shape_constant": shape_constant,
        "admitted_clauses": len(admitted),
    }
    return Construction(gamma, counters, basis, list(residual), table,
                        admitted, rejected)


def gamma_digest(gamma: ClauseSystem) -> str:
    return gamma.digest


# ---------------------------------------------------------------------------
# the stage loop
# ---------------------------------------------------------------------------

class StageRecord(NamedTuple):
    """One stage's facts.  A stage that keeps its hypothesis repeats the
    counters of the construction that built it, so summing
    ``oracle_queries`` over the stages overstates the queries sent; a run's
    true count is the teacher's ``queries_total``."""

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
                 params: ParamTuple):
        self.oracle = oracle
        self.params = params
        self._sample: dict = {}  # canonical key of closed(g) -> g, in arrival order
        self._classes: dict = {}  # fragment key -> RepClass, first seen kept
        self._raw_reps = 0
        self.basis: list = [EMPTY_CLASS]
        self.residual: list = []
        self.stage = 0
        self.records: list = []
        self._vlabels: set = set()
        self._elabels: set = set()
        self._cache = None  # (state key, hypothesis, counters)
        self._memo = _AdmissionMemo()
        self._coverage_memo: dict = {}

    # -- helpers -----------------------------------------------------------

    def _alphabets(self):
        return tuple(sorted(self._vlabels)), tuple(sorted(self._elabels))

    def _state_key(self):
        return (tuple(c.key for c in self.basis),
                tuple(c.key for c in self.residual),
                self._alphabets())

    def _construct(self):
        """The hypothesis, counters and digest for the current state, rebuilt
        only when the basis, the residual or the alphabets changed.  The
        construction itself is dropped: its table is large, and what the
        next construction can reuse stays in the learner's memo."""
        key = self._state_key()
        if self._cache is None or self._cache[0] != key:
            cons = construct_gamma(self.basis, self.residual, self.oracle,
                                   self.params, *self._alphabets(),
                                   memo=self._memo)
            self._cache = (key, cons.hypothesis, cons.counters)
        _, gamma, counters = self._cache
        return gamma, counters, gamma_digest(gamma)

    @property
    def sample(self) -> list:
        """The distinct graphs seen so far, in arrival order."""
        return list(self._sample.values())

    def _add_classes(self, g: LabeledGraph):
        """Merge the classes of a graph new to the sample into the classes.
        ``sub_w`` keeps each class's first fragment in ``boundary_specs``
        order and the sample only grows by appending, so the first class seen
        for a key holds the fragment that collapsing every representation of
        the whole sample would keep."""
        w = self.params.w
        self._raw_reps += sum(len(masks) for _, _, masks in boundary_specs(g, w))
        for cls in collapse_reps(sub_w(g, w).fragments):
            self._classes.setdefault(cls.key, cls)
        self.residual = sorted(self._classes.values(),
                               key=lambda c: (c.rank, c.key))

    def _covers_sample(self, gamma: ClauseSystem, digest: str) -> tuple:
        calls = 0
        covered = True
        for key, g in self._sample.items():
            gkey = (digest, key)
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
        if g.max_degree() > self.params.delta:
            raise ValueError(
                f"presented graph exceeds the degree bound "
                f"{self.params.delta}")
        self.stage += 1

        # the interim hypothesis reflects the end of the previous stage; on
        # unchanged state this is the cached previous hypothesis
        interim, _, interim_digest = self._construct()

        presented = closed(g)
        if presented.key not in self._sample:
            self._sample[presented.key] = g
            self._vlabels.update(g.vlabel.values())
            self._elabels.update(g.edges.values())
            self._add_classes(g)

        covered, member_calls = self._covers_sample(interim, interim_digest)
        update_fired = not covered
        if update_fired:
            self.basis = with_empty_class(self.residual)

        gamma, counters, digest = self._construct()
        counters = {**counters, "internal_member_calls": member_calls,
                    "raw_representations": self._raw_reps}
        out = StageRecord(
            stage=self.stage,
            presented=key_digest(presented),
            sample_size=len(self._sample),
            update_fired=update_fired,
            basis_size=len(self.basis),
            residual_size=len(self.residual),
            hypothesis=gamma,
            hypothesis_digest=digest,
            counters=counters,
            wall_time=time.perf_counter() - t0,
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
