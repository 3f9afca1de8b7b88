"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed summaries).  Expensive corpora and convergence runs are shared
through session fixtures.
"""

import gc
import math
import random
import statistics
import time
from collections import deque

import pytest

from clausegraph.boundary import brep_for_graph, build_fragment, validate_spec
from clausegraph.graphs import (
    GraphWithInterface,
    LabeledGraph,
    canonical_key,
    closed,
    graph_from_parts,
    iso_check,
)
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.learner import (
    EMPTY_CLASS,
    ClauseCandidate,
    Learner,
    ObservationTable,
    RepClass,
    admit_clause,
)
from clausegraph.graphs import GraphPattern, VariableHyperedge
from clausegraph.membership import member
from clausegraph.teacher import Teacher, generate_language

from .conftest import (random_connected_graph, random_interface_graph,
                       rank0_grammar, recorded_constructions)
from .enumeration import all_graphs_upto
from .oracles import TopDownOracle, brute_iso, naive_boundary_specs

CHECK_CAP = 6
SIZE_CAP = 6

TARGETS = {
    "path": (path_grammar, ("a",)),
    "triangle": (triangle_grammar, ("a",)),
    "twin": (twin_grammar, ("a", "b")),
    "rank0": (rank0_grammar, ("a",)),
}


# ---------------------------------------------------------------------------
# shared corpora and runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus_single_8():
    return all_graphs_upto(8)


@pytest.fixture(scope="session")
def corpus_ab_6():
    return all_graphs_upto(6, vlabels=("a", "b"))


@pytest.fixture(scope="session")
def corpus_ab_deg2_78():
    return [g for g in all_graphs_upto(8, vlabels=("a", "b"), max_degree=2)
            if g.n >= 7]


@pytest.fixture(scope="session")
def convergence_runs():
    runs = {}
    for name, (builder, _) in TARGETS.items():
        gamma, params = builder()
        teacher = Teacher(gamma, params, size_cap=SIZE_CAP)
        learner = Learner(teacher.answer, params)
        presentation = teacher.presentation()
        with recorded_constructions() as built:
            records = learner.run(presentation, 2 * len(teacher.language))
        runs[name] = {
            "gamma": gamma,
            "params": params,
            "teacher": teacher,
            "learner": learner,
            "records": records,
            "constructions": built,
        }
    return runs


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_boundary_enumeration_exactness():
    """Enumerated representations equal the brute-force enumerator on 200
    random bounded-degree graphs, within the per-rank counting bound."""
    rng = random.Random(0xACCE55)
    delta = 3
    t0 = time.perf_counter()
    for trial in range(200):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n, max_degree=delta,
                                   vlabels=("a", "b"), elabels=("e",))
        w = rng.randint(0, 2)
        got = {(r.beta, r.boundary_edges) for r in brep_for_graph(g, w)}
        want = set(naive_boundary_specs(g, w))
        assert got == want, f"trial {trial}: spec sets differ"
        counts = {}
        for beta, _ in got:
            counts[len(beta)] = counts.get(len(beta), 0) + 1
        for r, count in counts.items():
            assert count <= n ** r * 2 ** (r * delta), f"trial {trial}, rank {r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"
    print(f"\nACCEPTANCE 1 PASS: boundary enumeration exact on 200 graphs "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def _reference_traversal(g: LabeledGraph):
    """One breadth-first pass over the whole graph plus one edge pass,
    building copied containers: the yardstick for 'a single traversal'."""
    visited = set()
    queue = deque(g.vertices[:1])
    while queue:
        x = queue.popleft()
        if x in visited:
            continue
        visited.add(x)
        for y, _ in g.neighbors(x):
            if y not in visited:
                queue.append(y)
    vlabel = {v: g.vlabel[v] for v in g.vertices}
    edges = dict(g.edges)
    return LabeledGraph(vlabel, edges)


def test_criterion_2_fragment_determinism_and_linear_time():
    """Rebuilding a fragment from its specification is bit-for-bit
    deterministic, and costs at most twice a single graph traversal.  Each
    build is timed right after one reference traversal, so both sides of a
    ratio see the same host speed; the bound is on the median ratio."""
    rng = random.Random(0xF5A6)
    # determinism: 1000 repeated builds across random valid specifications
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(1, 10), max_degree=3)
        verts = sorted(g.vertices)
        for _ in range(10):
            r = rng.randint(0, min(2, len(verts)))
            beta = tuple(rng.sample(verts, r))
            bset = set(beta)
            incident = [e for e in sorted(g.edges) if e[0] in bset or e[1] in bset]
            eb = {e for e in incident if rng.random() < 0.5}
            assert validate_spec(g, beta, eb)
            first = build_fragment(g, beta, eb)
            second = build_fragment(g, beta, eb)
            assert first.graph.vlabel == second.graph.vlabel
            assert first.graph.edges == second.graph.edges
            assert first.interface == second.interface

    # timing: large bounded-degree graph, maximal-ish fragments
    big = random_connected_graph(rng, 3000, max_degree=3,
                                 vlabels=("a", "b"), elabels=("e",))
    verts = sorted(big.vertices)
    ratios = []
    for _ in range(8):
        beta = tuple(rng.sample(verts, 2))
        bset = set(beta)
        incident = [e for e in sorted(big.edges) if e[0] in bset or e[1] in bset]
        eb = {e for e in incident if rng.random() < 0.8}
        base = _timed(_reference_traversal, big)
        ratios.append(_timed(lambda: (validate_spec(big, beta, eb),
                                      build_fragment(big, beta, eb))) / base)
    ratio = statistics.median(ratios)
    assert ratio <= 2.0, f"fragment build is {ratio:.2f}x a single traversal"
    print(f"\nACCEPTANCE 2 PASS: fragment construction deterministic, "
          f"{ratio:.2f}x one traversal")


def _timed(fn, *args):
    """Seconds one call takes, with the garbage collector paused: a
    collection that earlier allocations trigger would otherwise land in
    whichever call happens to run then."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

def _iso_corpus():
    rng = random.Random(0x150C)
    corpus = []
    while len(corpus) < 88:
        corpus.append(random_interface_graph(rng, rng.randint(0, 7),
                                             max_rank=2,
                                             vlabels=("a", "b"),
                                             elabels=("e", "f")))
    # adversarial tail: renamed copies, interface permutations, and the
    # classic same-degree-sequence non-isomorphic pair
    base = random_interface_graph(rng, 7, max_rank=2)
    renamed = GraphWithInterface(
        LabeledGraph({v + 31: base.graph.vlabel[v] for v in base.graph.vertices},
                     {(u + 31, v + 31): lab
                      for (u, v), lab in base.graph.edges.items()}),
        tuple(v + 31 for v in base.interface))
    pendant = graph_from_parts([(0, "a"), (1, "a"), (2, "b")],
                               [(0, 1, "e"), (1, 2, "e")])
    c6 = graph_from_parts([(i, "a") for i in range(6)],
                          [(i, (i + 1) % 6, "e") for i in range(6)])
    triangles = graph_from_parts(
        [(i, "a") for i in range(6)],
        [(0, 1, "e"), (1, 2, "e"), (0, 2, "e"),
         (3, 4, "e"), (4, 5, "e"), (3, 5, "e")])
    corpus += [
        base, renamed,
        GraphWithInterface(pendant, (0, 1)),
        GraphWithInterface(pendant, (1, 0)),
        closed(c6), closed(triangles),
        GraphWithInterface(c6, (0, 1)), GraphWithInterface(c6, (0, 2)),
        GraphWithInterface(c6, (0, 3)),
        GraphWithInterface(triangles, (0, 1)), GraphWithInterface(triangles, (0, 3)),
        closed(graph_from_parts([(i, "a") for i in range(7)])),
    ]
    return corpus[:100]


def test_criterion_3_isomorphism_oracle_equivalence():
    """Canonical keys and the isomorphism test agree with brute-force
    bijection search on every pair from a 100-graph corpus."""
    corpus = _iso_corpus()
    assert len(corpus) == 100
    keys = [canonical_key(g) for g in corpus]
    disagreements = 0
    t0 = time.perf_counter()
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            want = brute_iso(corpus[i], corpus[j])
            if iso_check(corpus[i], corpus[j]) != want:
                disagreements += 1
            if (keys[i] == keys[j]) != want:
                disagreements += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 3 PASS: iso and keys match brute force on "
          f"{len(corpus) * (len(corpus) - 1) // 2} pairs "
          f"({time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_criterion_4_membership_oracle_equivalence(
        corpus_single_8, corpus_ab_6, corpus_ab_deg2_78):
    """The bottom-up decision procedure agrees with an independent top-down
    derivation search on every graph up to 8 vertices over each bundled
    grammar's alphabet (two-label corpus exhaustive to 6 vertices, and
    through 8 within the degree bound where both languages live)."""
    t0 = time.perf_counter()
    checked = 0
    for name, (builder, vlabels) in TARGETS.items():
        gamma, params = builder()
        corpus = corpus_single_8 if vlabels == ("a",) else \
            corpus_ab_6 + corpus_ab_deg2_78
        oracle = TopDownOracle(gamma, delta=params.delta)
        for g in corpus:
            got = member(gamma, gamma.start, g, params)
            want = oracle.member(g)
            assert got == want, f"{name}: disagreement on n={g.n}, m={g.m}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 5 minutes"
    print(f"\nACCEPTANCE 4 PASS: membership matches derivation search on "
          f"{checked} (grammar, graph) pairs ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def test_criterion_5_identification_in_the_limit(
        convergence_runs, corpus_single_8, corpus_ab_6):
    """Each bundled target converges within twice the presentation length:
    no further update stages, a syntactically stable hypothesis, and exact
    agreement with the target on every graph up to 6 vertices."""
    t0 = time.perf_counter()
    for name, run in convergence_runs.items():
        learner = run["learner"]
        records = run["records"]
        gamma, params = run["gamma"], run["params"]
        distinct = len(run["teacher"].language)
        stable = learner.stable_from()
        assert stable is not None, f"{name}: never converged"
        assert stable <= 2 * distinct, f"{name}: stabilized too late ({stable})"
        tail = [r for r in records if r.stage >= stable]
        assert all(not r.update_fired for r in tail), f"{name}: late update"
        assert len({r.hypothesis_digest for r in tail}) == 1, f"{name}: drift"
        hyp = learner.hypothesis
        vlabels = TARGETS[name][1]
        corpus = [g for g in (corpus_single_8 if vlabels == ("a",) else corpus_ab_6)
                  if g.n <= CHECK_CAP]
        for g in corpus:
            got = member(hyp, hyp.start, g, params)
            want = member(gamma, gamma.start, g, params)
            assert got == want, \
                f"{name}: languages differ on n={g.n}, m={g.m} (hyp={got})"
    print(f"\nACCEPTANCE 5 PASS: all targets identified and verified "
          f"exhaustively to {CHECK_CAP} vertices "
          f"({time.perf_counter() - t0:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

def test_criterion_6_spurious_clause_elimination(convergence_runs):
    """A candidate that closes a two-ranked body under a chord is wrong for
    the path language exactly when the two-edge witness fragment is
    available; withholding the witness lets it through."""
    teacher = convergence_runs["path"]["teacher"]
    isolated_pair = RepClass(GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")]), (0, 1)))
    edge_both = RepClass(GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0, 1)))
    witness = RepClass(GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a"), (2, "a")],
                         [(0, 1, "e"), (1, 2, "e")]), (0, 2)))
    head_base = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), ())
    pattern = GraphPattern(head_base, [VariableHyperedge("x", (0, 1))])
    cand = ClauseCandidate(EMPTY_CLASS, pattern,
                           (("x", ("a", "a"), isolated_pair),))

    rows = [EMPTY_CLASS, isolated_pair]
    with_witness = ObservationTable(rows, [edge_both, witness], teacher.answer)
    assert not admit_clause(cand, with_witness, teacher.answer), \
        "spurious candidate admitted despite witness"
    withheld = ObservationTable(rows, [edge_both], teacher.answer)
    assert admit_clause(cand, withheld, teacher.answer), \
        "candidate rejected without any witness"
    print("\nACCEPTANCE 6 PASS: spurious candidate rejected exactly when "
          "its witness is available")


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_criterion_7_monotone_rejection(convergence_runs):
    """Growing the residual set never turns a rejected non-fact candidate
    into an admitted one, across every construction of every run."""
    t0 = time.perf_counter()
    replays = 0
    for name, run in convergence_runs.items():
        teacher = run["teacher"]
        built = run["constructions"]
        for i, (cons, cons_next) in enumerate(zip(built, built[1:])):
            have = {c.key for c in cons.residual}
            added = [c for c in cons_next.residual if c.key not in have]
            rejected_nonfacts = [c for c in cons.rejected if not c.is_fact]
            for extra in added:
                grown = ObservationTable(cons.basis, cons.residual + [extra],
                                         teacher.answer)
                for cand in rejected_nonfacts:
                    assert not admit_clause(cand, grown, teacher.answer), \
                        f"{name} construction {i}: rejection flipped"
                    replays += 1
    print(f"\nACCEPTANCE 7 PASS: {replays} rejection replays stayed rejected "
          f"({time.perf_counter() - t0:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

def test_criterion_8_polynomial_update_accounting():
    """Per-stage query and candidate counters respect the closed-form
    budgets, and stage wall-time over a 50-stage run shows no
    super-polynomial trend in the cumulative sample size."""
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=SIZE_CAP)
    learner = Learner(teacher.answer, params)
    presentation = teacher.presentation()
    cumulative = 0
    points = []
    for _ in range(50):
        g = next(presentation)
        cumulative += g.n
        rec = learner.observe(g)
        c = rec.counters
        query_budget = (rec.basis_size * rec.residual_size
                        + c["fact_candidates"]
                        + c["nonfact_candidates"]
                        * max(1, rec.residual_size) ** params.t)
        assert c["oracle_queries"] <= query_budget, f"stage {rec.stage}"
        cand_budget = c["shape_constant"] * sum(
            (rec.basis_size + 1) ** (ell + 1) for ell in range(params.t + 1))
        assert c["candidates"] <= cand_budget, f"stage {rec.stage}"
        points.append((cumulative, rec.wall_time))
    # log-log fit: a super-polynomial blow-up would show as a huge slope or
    # late-stage growth; converged stages are flat while the sample grows
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(max(t, 1e-4)) for _, t in points]
    xbar, ybar = statistics.mean(xs), statistics.mean(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / \
        sum((x - xbar) ** 2 for x in xs)
    assert slope < 8, f"fitted degree {slope:.1f} suggests a blow-up"
    late = statistics.median(t for _, t in points[-10:])
    early_max = max(t for _, t in points[:40])
    assert late <= max(early_max, 1e-3), "stage times grow at the end"
    print(f"\nACCEPTANCE 8 PASS: 50-stage budgets hold, fitted time degree "
          f"{slope:.2f}")


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------

def test_criterion_9_teacher_completeness(corpus_single_8, corpus_ab_6):
    """Bottom-up generation at cap 5 equals exhaustive filtering of all
    small graphs through the decision procedure, and every presented graph
    answers positively."""
    t0 = time.perf_counter()
    for name, (builder, vlabels) in TARGETS.items():
        gamma, params = builder()
        generated = generate_language(gamma, params, size_cap=5)
        gen_keys = {canonical_key(closed(g)) for g in generated}
        assert len(gen_keys) == len(generated), f"{name}: duplicate members"
        corpus = [g for g in (corpus_single_8 if vlabels == ("a",) else corpus_ab_6)
                  if g.n <= 5]
        want_keys = {canonical_key(closed(g)) for g in corpus
                     if member(gamma, gamma.start, g, params)}
        assert gen_keys == want_keys, f"{name}: generation mismatch"
        teacher = Teacher(gamma, params, size_cap=SIZE_CAP)
        presentation = teacher.presentation()
        for _ in range(len(teacher.language)):
            assert teacher.answer(next(presentation)), f"{name}: negative emission"
    print(f"\nACCEPTANCE 9 PASS: generation equals exhaustive filtering at "
          f"cap 5 for all targets ({time.perf_counter() - t0:.0f}s)")
