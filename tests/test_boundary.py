import random

import pytest

from clausegraph.boundary import (
    brep_for_graph,
    build_fragment,
    enumerate_brep,
    rank_counts,
    validate_spec,
)
from clausegraph.graphs import graph_from_parts

from .conftest import random_connected_graph, random_graph
from .oracles import assert_adjacency_as_validated, naive_boundary_specs, naive_fragment


def single_edge():
    return graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")])


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def test_empty_spec_is_always_valid():
    assert validate_spec(single_edge(), (), set())
    assert validate_spec(graph_from_parts([]), (), set())


def test_single_edge_specs():
    g = single_edge()
    assert validate_spec(g, (0,), {(0, 1)})
    assert validate_spec(g, (0,), set())
    assert not validate_spec(g, (0, 0), set())
    assert not validate_spec(g, (5,), set())
    assert not validate_spec(g, (0,), {(0, 5)})


def test_edge_not_touching_boundary_invalid():
    g = graph_from_parts([(0, "a"), (1, "a"), (2, "a"), (3, "a")],
                         [(0, 1, "e"), (2, 3, "e")])
    assert not validate_spec(g, (0,), {(2, 3)})
    assert validate_spec(g, (0, 2), {(2, 3)})


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------

def test_empty_spec_builds_empty_fragment():
    frag = build_fragment(single_edge(), (), set())
    assert frag.graph.n == 0 and frag.rank == 0


def test_fragment_keeps_whole_attached_edge():
    frag = build_fragment(single_edge(), (0,), {(0, 1)})
    assert frag.interface == (0,)
    assert sorted(frag.graph.vertices) == [0, 1]
    assert frag.graph.m == 1


def test_fragment_without_edges_is_isolated_boundary():
    frag = build_fragment(single_edge(), (0,), set())
    assert frag.interface == (0,)
    assert sorted(frag.graph.vertices) == [0]
    assert frag.graph.m == 0


def test_fragment_reaches_behind_chosen_edges():
    # 0-1-2-3 path; boundary (1) with edge {1,2} pulls in 2 and 3 but not 0
    g = graph_from_parts([(i, "a") for i in range(4)],
                         [(i, i + 1, "e") for i in range(3)])
    frag = build_fragment(g, (1,), {(1, 2)})
    assert sorted(frag.graph.vertices) == [1, 2, 3]
    assert sorted(frag.graph.edges) == [(1, 2), (2, 3)]


def test_fragment_excludes_unchosen_boundary_edges():
    g = graph_from_parts([(i, "a") for i in range(3)],
                         [(0, 1, "e"), (1, 2, "e")])
    frag = build_fragment(g, (1,), {(1, 2)})
    # the edge {0,1} exists in g but was not chosen and 0 is not interior
    assert 0 not in frag.graph.vlabel


def test_fragment_invalid_spec_errors():
    with pytest.raises(ValueError):
        build_fragment(single_edge(), (0, 0), set())


def test_fragment_matches_reachability_oracle(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9))
        verts = sorted(g.vertices)
        r = rng.randint(0, min(2, len(verts)))
        beta = tuple(rng.sample(verts, r))
        bset = set(beta)
        incident = [e for e in sorted(g.edges) if e[0] in bset or e[1] in bset]
        eb = {e for e in incident if rng.random() < 0.5}
        got = build_fragment(g, beta, eb)
        want = naive_fragment(g, beta, frozenset(eb))
        assert got.graph.vlabel == want.graph.vlabel
        assert got.graph.edges == want.graph.edges
        assert got.interface == want.interface
        assert_adjacency_as_validated(got.graph)


def test_fragment_determinism(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        reps = brep_for_graph(g, 2)
        for rep in reps:
            again = build_fragment(g, rep.beta, rep.boundary_edges)
            assert again.graph.vlabel == rep.fragment.graph.vlabel
            assert again.graph.edges == rep.fragment.graph.edges
            assert again.interface == rep.fragment.interface


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_single_edge_rank1_reps():
    reps = enumerate_brep([single_edge()], 1, delta=3)
    specs = {(r.beta, r.boundary_edges) for r in reps}
    assert specs == {
        ((), frozenset()),
        ((0,), frozenset()),
        ((0,), frozenset({(0, 1)})),
        ((1,), frozenset()),
        ((1,), frozenset({(0, 1)})),
    }


def test_isolated_vertex_rank0():
    reps = enumerate_brep([graph_from_parts([(0, "a")])], 0, delta=1)
    assert len(reps) == 1
    assert reps[0].beta == ()
    assert reps[0].fragment.graph.n == 0


def test_degree_violation_is_an_error():
    star = graph_from_parts([(i, "a") for i in range(5)],
                            [(0, i, "e") for i in range(1, 5)])
    with pytest.raises(ValueError, match="graph 0"):
        enumerate_brep([star], 1, delta=3)


def test_enumeration_matches_naive_oracle(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 9), max_degree=3)
        w = rng.randint(0, 2)
        got = {(r.beta, r.boundary_edges) for r in brep_for_graph(g, w)}
        want = {(beta, eb) for beta, eb in naive_boundary_specs(g, w)}
        assert got == want


def test_enumeration_order_matches_naive_oracle():
    # rank ascending, boundary tuples in permutations order, edge subsets in
    # binary-counter order over the edges meeting the tuple, as the naive
    # oracle scans them
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 7), edge_prob=rng.random())
        w = rng.randint(0, 3 if g.n <= 5 else 2)
        got = [(r.beta, r.boundary_edges) for r in brep_for_graph(g, w)]
        assert got == naive_boundary_specs(g, w)


def test_rank_counts_within_bound(rng):
    delta = 3
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 9), max_degree=delta)
        n = g.n
        reps = brep_for_graph(g, 2)
        counts = rank_counts(reps)
        for r, count in counts.items():
            assert count <= n ** r * 2 ** (r * delta)


def test_monotone_under_sample_growth(rng):
    g1 = random_connected_graph(rng, 5, max_degree=3)
    g2 = random_connected_graph(rng, 4, max_degree=3)
    small = {(r.source, r.beta, r.boundary_edges)
             for r in enumerate_brep([g1], 2, delta=3)}
    big = {(r.source, r.beta, r.boundary_edges)
           for r in enumerate_brep([g1, g2], 2, delta=3)}
    assert small <= big


def test_fragment_interface_equals_beta(rng):
    g = random_connected_graph(rng, 7, max_degree=3)
    for rep in brep_for_graph(g, 2):
        assert rep.fragment.interface == rep.beta


def test_enumeration_deterministic():
    g = random_connected_graph(random.Random(3), 6, max_degree=3)
    a = brep_for_graph(g, 2)
    b = brep_for_graph(g, 2)
    assert [(r.beta, sorted(r.boundary_edges)) for r in a] == \
        [(r.beta, sorted(r.boundary_edges)) for r in b]
