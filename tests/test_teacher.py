import hashlib

import pytest

import clausegraph.teacher as teacher_mod
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import closed, graph_from_parts, iso_check
from clausegraph.learner import Learner
from clausegraph.membership import FragmentUniverse, member
from clausegraph.teacher import Presentation, Teacher, generate_language

from .conftest import learned_hypothesis, rank0_grammar, two_arm_grammar
from .enumeration import all_graphs_upto
from .oracles import KeyEveryQueryTeacher, TopDownOracle, saturate_each


def path_graph(n, labels=None):
    labels = labels or ["a"] * n
    return graph_from_parts(
        [(i, labels[i]) for i in range(n)],
        [(i, i + 1, "e") for i in range(n - 1)],
    )


def test_path_language_at_cap_5():
    gamma, params = path_grammar()
    members = generate_language(gamma, params, 5)
    assert len(members) == 4
    for got, n in zip(members, (2, 3, 4, 5)):
        assert iso_check(closed(got), closed(path_graph(n)))


def test_single_fact_language():
    gamma, params = triangle_grammar()
    members = generate_language(gamma, params, 5)
    assert len(members) == 1
    assert members[0].n == 3 and members[0].m == 3


def test_cap_below_smallest_member_is_empty():
    gamma, params = path_grammar()
    assert generate_language(gamma, params, 1) == []


def test_twin_language_at_cap_6():
    gamma, params = twin_grammar()
    members = generate_language(gamma, params, 6)
    # even all-a paths (2, 4, 6) plus b-capped paths (2..6 vertices)
    assert len(members) == 8
    sizes = sorted(g.n for g in members)
    assert sizes == [2, 2, 3, 4, 4, 5, 6, 6]
    for g in members:
        assert member(gamma, gamma.start, g, params)


def path_grammar_delta1():
    # only the 2-vertex path stays within the degree bound
    gamma, params = path_grammar()
    return gamma, params._replace(delta=1)


@pytest.mark.parametrize("builder, vlabels, cap", [
    (path_grammar, ("a",), 8),
    (twin_grammar, ("a", "b"), 7),
    (triangle_grammar, ("a",), 8),
    (rank0_grammar, ("a",), 7),
    (path_grammar_delta1, ("a",), 6),
    (two_arm_grammar, ("a", "b"), 7),
])
def test_generation_equals_filtered_exhaustive_corpus(builder, vlabels, cap):
    # the corpus and the top-down derivation search share no code with the
    # saturation that generation and membership both run
    gamma, params = builder()
    oracle = TopDownOracle(gamma, delta=params.delta)
    want = {closed(g).key for g in all_graphs_upto(cap, vlabels, max_degree=params.delta)
            if oracle.member(g)}
    generated = [closed(g).key for g in generate_language(gamma, params, cap)]
    assert len(set(generated)) == len(generated)
    assert set(generated) == want


@pytest.mark.parametrize("builder, count, digest", [
    (path_grammar, 9, "b13494e84d959f2644dfa8a0f6cea51e453fbb2c20c097e14c1b19c0ad8d1c5b"),
    (twin_grammar, 14, "3b46ddc28a299cb73fe9bf797044f599a6172812d0638b0d72fc17ecd2dfe9dd"),
    (triangle_grammar, 1, "e0c40bca6f7f6c39807d7c22c9aa3cdcead1001edb1e25bf23e00eae0f1601bb"),
])
def test_generated_representatives_are_pinned(builder, count, digest):
    # the benchmark's learn workloads renumber these exact graphs, and a
    # graph's numbering moves its learning time
    gamma, params = builder()
    members = generate_language(gamma, params, 10)
    blob = repr([(sorted(g.vlabel.items()), sorted(g.edges.items())) for g in members])
    assert len(members) == count
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("builder, cap", [
    (path_grammar, 8), (twin_grammar, 8), (triangle_grammar, 8),
    (rank0_grammar, 7), (two_arm_grammar, 8),
    (lambda: learned_hypothesis(twin_grammar, 5), 7),
    (lambda: learned_hypothesis(path_grammar, 5), 7),
], ids=["path", "twin", "triangle", "rank0", "two_arm", "learned_twin",
        "learned_path"])
def test_generation_matches_per_clause_saturation(builder, cap):
    """Generation over rule groups yields the language the per-clause loop
    yields over the same growing universe."""
    gamma, params = builder()
    universe = FragmentUniverse()

    def within_bounds(g):
        if g.graph.n > cap or g.graph.max_degree() > params.delta:
            return None
        return universe.add(g)

    derived = saturate_each(gamma, universe, within_bounds)
    want = {universe[idx].key for pred, idx in derived if pred == gamma.start.name}
    got = [closed(g).key for g in generate_language(gamma, params, cap)]
    assert len(got) == len(set(got)) and set(got) == want


def test_generated_members_are_oracle_positive():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    for g in teacher.language:
        assert teacher.answer(g)


def test_degree_violation_answers_false():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    star = graph_from_parts([(i, "a") for i in range(4)],
                            [(0, i, "e") for i in range(1, 4)])
    assert not teacher.answer(star)


def test_query_counters_deduplicate_up_to_iso():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    g1 = path_graph(3)
    g2 = graph_from_parts([(10, "a"), (20, "a"), (30, "a")],
                          [(10, 20, "e"), (20, 30, "e")])
    assert teacher.answer(g1) and teacher.answer(g2)
    assert teacher.queries_total == 2
    assert teacher.queries_unique == 1


def test_cache_spot_check():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    for g in teacher.language:
        teacher.answer(g)
    teacher.answer(graph_from_parts([(0, "b")]))
    assert teacher.verify_cache()


def test_query_key_memo_keys_each_distinct_graph_once(monkeypatch):
    """An equal graph, even a fresh object, reuses its memoized key; an
    isomorphic graph under other vertex ids is keyed again and still counts
    as the same unique query."""
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    keyed = []
    original = teacher_mod.canonical_key

    def counting(g, *args):
        keyed.append(g)
        return original(g, *args)

    monkeypatch.setattr(teacher_mod, "canonical_key", counting)
    assert teacher.answer(path_graph(3)) and teacher.answer(path_graph(3))
    assert len(keyed) == 1
    renumbered = graph_from_parts([(10, "a"), (20, "a"), (30, "a")],
                                  [(10, 20, "e"), (20, 30, "e")])
    assert teacher.answer(renumbered)
    assert len(keyed) == 2
    assert teacher.queries_total == 3 and teacher.queries_unique == 1
    assert len(teacher.key_memo) == 2 and len(teacher.query_cache) == 1


def test_verify_cache_catches_a_corrupted_key_memo_entry():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=5)
    for g in teacher.language:
        teacher.answer(g)
    assert teacher.verify_cache()
    # fewer entries than the sample size, so every one is checked
    first, second = teacher.language[:2]
    teacher.key_memo[first] = closed(second).key
    assert not teacher.verify_cache()


@pytest.mark.parametrize("builder, cap", [
    (path_grammar, 5), (twin_grammar, 4), (triangle_grammar, 5),
    (rank0_grammar, 5),
], ids=["path", "twin", "triangle", "rank0"])
def test_memoized_keys_answer_as_keying_every_query(builder, cap):
    """Against the teacher that keys every query afresh, a learn run asks
    the same query graphs in the same order, gets the same answers, leaves
    the same counters and cache keys and records the same stages."""
    gamma, params = builder()
    runs = []
    for make in (KeyEveryQueryTeacher, Teacher):
        teacher = make(gamma, params, size_cap=cap)
        log = []

        def oracle(g, teacher=teacher, log=log):
            verdict = teacher.answer(g)
            log.append((g, verdict))
            return verdict

        learner = Learner(oracle, params)
        records = learner.run(teacher.presentation(seed=2),
                              2 * len(teacher.language))
        runs.append((log, teacher.queries_total, teacher.queries_unique,
                     list(teacher.query_cache),
                     [rec.summary() for rec in records]))
    log, total, unique = runs[0][:3]
    assert len(log) == total > unique > 0
    assert runs[1] == runs[0]


def test_presentation_cycles_in_order():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=4)
    pres = teacher.presentation()
    first = next(pres)
    second = next(pres)
    third = next(pres)
    assert iso_check(closed(first), closed(path_graph(2)))
    assert iso_check(closed(second), closed(path_graph(3)))
    assert iso_check(closed(third), closed(path_graph(4)))
    fourth = next(pres)
    assert iso_check(closed(fourth), closed(first))


def test_presentation_single_member_language():
    gamma, params = triangle_grammar()
    teacher = Teacher(gamma, params, size_cap=4)
    pres = teacher.presentation()
    a, b = next(pres), next(pres)
    assert iso_check(closed(a), closed(b))


def test_presentation_seed_permutes_deterministically():
    gamma, params = path_grammar()
    teacher = Teacher(gamma, params, size_cap=6)
    p1 = [g.n for g in list(Presentation(teacher.language, seed=5).graphs)]
    p2 = [g.n for g in list(Presentation(teacher.language, seed=5).graphs)]
    p3 = [g.n for g in list(Presentation(teacher.language, seed=6).graphs)]
    assert p1 == p2
    assert sorted(p1) == sorted(p3)


def test_empty_presentation_errors():
    with pytest.raises(ValueError):
        Presentation([])
