import random

import pytest

import clausegraph.membership as membership_mod
from clausegraph.boundary import brep_for_graph
from clausegraph.clauses import Atom, Clause, ClauseSystem, ParamTuple, PredicateSymbol
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import (
    EMPTY_INTERFACE_GRAPH,
    GraphPattern,
    GraphWithInterface,
    VariableHyperedge,
    closed,
    graph_from_parts,
    iso_check,
    star_pattern,
)
from clausegraph.membership import (
    derive_fixpoint,
    format_tree,
    member,
    sub_w,
)
from clausegraph.teacher import generate_language

from .conftest import random_graph
from .oracles import TopDownOracle, brute_iso


def path_graph(n, labels=None, elabel="e"):
    labels = labels or ["a"] * n
    return graph_from_parts(
        [(i, labels[i]) for i in range(n)],
        [(i, i + 1, elabel) for i in range(n - 1)],
    )


def cycle_graph(n):
    return graph_from_parts([(i, "a") for i in range(n)],
                            [(i, (i + 1) % n, "e") for i in range(n)])


def triangle():
    return cycle_graph(3)


# ---------------------------------------------------------------------------
# fragment universe
# ---------------------------------------------------------------------------

def test_sub_w_rank0_is_only_empty_fragment():
    u = sub_w(path_graph(4), 0)
    assert len(u) == 1
    assert u[0].graph.n == 0


def test_sub_w_single_edge_classes():
    u = sub_w(path_graph(2), 1)
    # empty, isolated vertex with interface, edge with one endpoint interface
    # (the two symmetric endpoint choices collapse)
    assert len(u) == 3
    ranks = sorted(f.rank for f in u.fragments)
    assert ranks == [0, 1, 1]


def test_sub_w_size_bound():
    for n in (2, 3, 5):
        g = path_graph(n)
        delta = max(1, g.max_degree())
        for w in (0, 1, 2):
            u = sub_w(g, w)
            bound = sum(n ** r * 2 ** (r * delta) for r in range(w + 1))
            assert len(u) <= bound


def _cheap_invariant(f):
    # an obviously isomorphism-invariant grouping that shares no code with
    # invariant_signature; it only spares brute_iso pairs it would reject
    gr = f.graph
    return (f.interface_labels(), tuple(gr.degree(v) for v in f.interface),
            tuple(sorted((gr.vlabel[v], tuple(sorted((lab, gr.vlabel[u], gr.degree(u))
                                                     for u, lab in gr.neighbors(v))))
                         for v in gr.vertices)))


def test_sub_w_keeps_the_first_fragment_of_each_brute_iso_class():
    rng = random.Random(97)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 7), edge_prob=rng.random())
        w = rng.randint(0, 2)
        want, classes = [], {}
        for rep in brep_for_graph(g, w):
            f = rep.fragment
            group = classes.setdefault(_cheap_invariant(f), [])
            if not any(brute_iso(h, f) for h in group):
                group.append(f)
                want.append(f)
        assert sub_w(g, w).fragments == want, (g.vlabel, g.edges, w)


def test_sub_w_on_paths_makes_no_failing_iso_check(monkeypatch):
    # fragments of a path that differ only in where the interface sits fall
    # into different signature buckets, so every exact test finds a match
    verdicts = []
    original = membership_mod.iso_check

    def counting(a, b):
        verdicts.append(original(a, b))
        return verdicts[-1]

    monkeypatch.setattr(membership_mod, "iso_check", counting)
    for n, w in ((37, 1), (10, 2)):
        verdicts.clear()
        sub_w(path_graph(n), w)
        assert verdicts and all(verdicts), (n, w, verdicts.count(False))


def test_universe_find_up_to_iso():
    u = sub_w(path_graph(3), 2)
    probe = GraphWithInterface(
        graph_from_parts([(10, "a"), (11, "a")], [(10, 11, "e")]), (10,))
    idx = u.find(probe)
    assert idx is not None
    assert iso_check(u[idx], probe)
    assert u.find(GraphWithInterface(graph_from_parts([(0, "b")]), (0,))) is None


# ---------------------------------------------------------------------------
# fixpoint
# ---------------------------------------------------------------------------

def test_single_fact_derives_edge_fragment():
    q = PredicateSymbol("q", 2)
    edge = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0, 1))
    p = PredicateSymbol("p", 0)
    gamma = ClauseSystem([p, q], [Clause(Atom(q, GraphPattern(edge)))], start=p)
    derived = derive_fixpoint(gamma, path_graph(3), 2)
    assert len(derived.by_predicate("q")) > 0
    for idx in derived.by_predicate("q"):
        assert iso_check(derived.universe[idx], edge)


def test_empty_system_derives_nothing():
    p = PredicateSymbol("p", 0)
    gamma = ClauseSystem([p], [], start=p)
    derived = derive_fixpoint(gamma, path_graph(3), 2)
    assert not derived.derived


def test_path_grammar_derives_subpaths():
    gamma, params = path_grammar()
    derived = derive_fixpoint(gamma, path_graph(3), params.w)
    got = {derived.universe[idx].graph.m for idx in derived.by_predicate("q")}
    assert got == {1, 2}


def test_fixpoint_is_monotone_over_rounds():
    gamma, params = path_grammar()
    derived = derive_fixpoint(gamma, path_graph(6), params.w)
    assert derived.rounds <= len(gamma.predicates) * len(derived.universe) + 1


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------

def test_path_grammar_membership_basics():
    gamma, params = path_grammar()
    assert member(gamma, gamma.start, path_graph(2), params)
    assert member(gamma, gamma.start, path_graph(5), params)
    assert not member(gamma, gamma.start, triangle(), params)
    assert not member(gamma, gamma.start, graph_from_parts([(0, "a")]), params)


def test_single_fact_membership_is_iso_test():
    gamma, params = triangle_grammar()
    assert member(gamma, gamma.start, triangle(), params)
    assert not member(gamma, gamma.start, path_graph(3), params)


def test_degree_violation_rejected_immediately():
    gamma, params = path_grammar()
    star = graph_from_parts([(i, "a") for i in range(4)],
                            [(0, i, "e") for i in range(1, 4)])
    assert star.max_degree() == 3 > params.delta
    assert not member(gamma, gamma.start, star, params)


def test_member_requires_rank0_predicate():
    gamma, params = path_grammar()
    with pytest.raises(ValueError):
        member(gamma, PredicateSymbol("q", 2), path_graph(2), params)
    with pytest.raises(ValueError):
        member(gamma, PredicateSymbol("ghost", 0), path_graph(2), params)


def test_twin_grammar_membership():
    gamma, params = twin_grammar()
    # even all-a paths and single-b-capped paths are in
    assert member(gamma, gamma.start, path_graph(2), params)
    assert member(gamma, gamma.start, path_graph(4), params)
    assert member(gamma, gamma.start, path_graph(3, ["a", "a", "b"]), params)
    assert member(gamma, gamma.start, path_graph(2, ["a", "b"]), params)
    # odd all-a paths are out: the paired halves must match
    assert not member(gamma, gamma.start, path_graph(3), params)
    assert not member(gamma, gamma.start, path_graph(5), params)
    # two b-caps are out
    assert not member(gamma, gamma.start, path_graph(4, ["b", "a", "a", "b"]), params)
    assert not member(gamma, gamma.start, path_graph(3, ["b", "a", "b"]), params)


def test_derivation_tree_replays_to_goal():
    for builder in (path_grammar, triangle_grammar, twin_grammar):
        gamma, params = builder()
        members = generate_language(gamma, params, 6)
        assert members
        for g in members:
            ok, tree = member(gamma, gamma.start, g, params, want_tree=True)
            assert ok and tree is not None
            replayed = tree.replay(gamma)
            assert replayed is not None
            assert iso_check(replayed, closed(g))


def test_rank0_variable_binds_the_whole_graph():
    # p <- r(x) with x of rank 0: the start clause binds x to the whole
    # triangle, which only the other rank-0 predicate r derives
    p, r = PredicateSymbol("p", 0), PredicateSymbol("r", 0)
    gamma = ClauseSystem([p, r], [
        Clause(Atom(r, GraphPattern(closed(triangle())))),
        Clause(Atom(p, GraphPattern(EMPTY_INTERFACE_GRAPH, [VariableHyperedge("x", ())])),
               [Atom(r, star_pattern("x", ()))]),
    ], start=p)
    params = ParamTuple(m=2, s=1, t=1, w=0, d=2, delta=2, h_max=3)
    assert TopDownOracle(gamma, delta=params.delta).member(triangle())
    assert [g.n for g in generate_language(gamma, params, 6)] == [3]
    ok, tree = member(gamma, p, triangle(), params, want_tree=True)
    assert ok
    assert iso_check(tree.replay(gamma), closed(triangle()))
    assert not member(gamma, p, path_graph(3), params)


def test_tree_formatting_mentions_clauses():
    gamma, params = path_grammar()
    ok, tree = member(gamma, gamma.start, path_graph(3), params, want_tree=True)
    text = format_tree(tree)
    assert "via clause" in text
    assert text.count("derives") >= 2


def test_negative_query_has_no_tree():
    gamma, params = path_grammar()
    ok, tree = member(gamma, gamma.start, triangle(), params, want_tree=True)
    assert not ok and tree is None


# ---------------------------------------------------------------------------
# oracle agreement on hand-picked graphs (the exhaustive sweep lives in the
# acceptance suite)
# ---------------------------------------------------------------------------

def _spot_graphs():
    yield path_graph(2)
    yield path_graph(3)
    yield path_graph(4)
    yield path_graph(6)
    yield triangle()
    yield cycle_graph(4)
    yield cycle_graph(6)
    yield graph_from_parts([(0, "a")])
    yield graph_from_parts([(0, "a"), (1, "a")])
    yield path_graph(3, ["a", "b", "a"])
    yield path_graph(3, ["a", "a", "b"])
    yield path_graph(4, ["b", "a", "a", "b"])
    yield path_graph(5, ["a", "a", "a", "a", "b"])
    # disjoint unions
    yield graph_from_parts(
        [(0, "a"), (1, "a"), (2, "a"), (3, "a")],
        [(0, 1, "e"), (2, 3, "e")])


@pytest.mark.parametrize("builder", [path_grammar, triangle_grammar, twin_grammar])
def test_member_agrees_with_topdown_oracle(builder):
    gamma, params = builder()
    oracle = TopDownOracle(gamma, delta=params.delta)
    for g in _spot_graphs():
        want = oracle.member(g)
        got = member(gamma, gamma.start, g, params)
        assert got == want, f"{builder.__name__} disagrees on n={g.n}, m={g.m}"
