import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clausegraph.graphs as graphs_mod
from clausegraph.graphs import (
    EMPTY_INTERFACE_GRAPH,
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    VariableHyperedge,
    canonical_key,
    closed,
    compose,
    graph_from_parts,
    invariant_signature,
    iso_check,
    key_digest,
    realize,
    star_pattern,
)

from .conftest import random_graph, random_interface_graph
from .oracles import brute_iso, naive_compose


def path_graph(n, vlabel="a", elabel="e"):
    return graph_from_parts(
        [(i, vlabel) for i in range(n)],
        [(i, i + 1, elabel) for i in range(n - 1)],
    )


def triangle():
    return graph_from_parts(
        [(0, "a"), (1, "a"), (2, "a")],
        [(0, 1, "e"), (1, 2, "e"), (0, 2, "e")],
    )


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError):
        LabeledGraph({0: "a"}, {(0, 0): "e"})


def test_rejects_dangling_edge():
    with pytest.raises(ValueError):
        LabeledGraph({0: "a"}, {(0, 1): "e"})


def test_parallel_edges_normalize_to_one():
    g = LabeledGraph({0: "a", 1: "a"}, {(0, 1): "e", (1, 0): "e"})
    assert g.m == 1


def test_interface_must_be_distinct_vertices():
    g = path_graph(2)
    with pytest.raises(ValueError):
        GraphWithInterface(g, (0, 0))
    with pytest.raises(ValueError):
        GraphWithInterface(g, (0, 7))


def test_hyperedge_ports_distinct_and_present():
    g = closed(path_graph(3))
    with pytest.raises(ValueError):
        GraphPattern(g, [VariableHyperedge("x", (0, 0))])
    with pytest.raises(ValueError):
        GraphPattern(g, [VariableHyperedge("x", (0, 9))])


def test_variable_rank_consistent_within_pattern():
    g = closed(path_graph(3))
    with pytest.raises(ValueError):
        GraphPattern(g, [VariableHyperedge("x", (0, 1)),
                         VariableHyperedge("x", (2,))])


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_empty_is_identity():
    g = closed(triangle())
    out = compose(EMPTY_INTERFACE_GRAPH, g)
    assert out is not None
    assert iso_check(closed(out), g)


def test_compose_path_context_with_edge_gives_triangle():
    # u1 - u3 - u2 with interface (u1, u2), glued with a single (v1, v2) edge
    g = GraphWithInterface(
        graph_from_parts([(1, "a"), (2, "a"), (3, "a")],
                         [(1, 3, "e"), (2, 3, "e")]),
        (1, 2))
    h = GraphWithInterface(
        graph_from_parts([(1, "a"), (2, "a")], [(1, 2, "e")]),
        (1, 2))
    out = compose(g, h)
    assert out is not None
    assert iso_check(closed(out), closed(triangle()))


def test_compose_rank_mismatch_undefined():
    g = GraphWithInterface(path_graph(2), (0, 1))
    h = GraphWithInterface(path_graph(2), (0,))
    assert compose(g, h) is None


def test_compose_vertex_label_conflict_undefined():
    g = GraphWithInterface(graph_from_parts([(0, "a")]), (0,))
    h = GraphWithInterface(graph_from_parts([(0, "b")]), (0,))
    assert compose(g, h) is None


def test_compose_edge_label_conflict_undefined():
    g = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0, 1))
    h = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "f")]), (0, 1))
    assert compose(g, h) is None


def test_compose_same_label_edges_merge():
    g = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0, 1))
    out = compose(g, g)
    assert out is not None
    assert out.n == 2 and out.m == 1


def test_compose_rank_zero_is_disjoint_union():
    g = closed(path_graph(2))
    out = compose(g, g)
    assert out is not None
    assert out.n == 4 and out.m == 2


def test_compose_size_formula_and_oracle_agreement(rng):
    for _ in range(150):
        n1, n2 = rng.randint(0, 5), rng.randint(0, 5)
        rank = rng.randint(0, min(2, n1, n2))
        a = random_graph(rng, n1)
        b = random_graph(rng, n2)
        g = GraphWithInterface(a, tuple(rng.sample(list(a.vertices), rank)))
        h = GraphWithInterface(b, tuple(rng.sample(list(b.vertices), rank)))
        got = compose(g, h)
        want = naive_compose(g, h)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.n == n1 + n2 - rank
            assert iso_check(closed(got), closed(want))


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def test_realize_ground_pattern_is_unchanged():
    base = GraphWithInterface(path_graph(3), (0, 2))
    p = GraphPattern(base)
    out = realize(p, {})
    assert out is not None
    assert iso_check(out, base)
    # bindings for variables not in the pattern are ignored
    out2 = realize(p, {"z": EMPTY_INTERFACE_GRAPH})
    assert iso_check(out2, base)


def test_realize_single_hyperedge_path():
    # v1, v2, v3 with edge {v1,v3}; hyperedge y on (v3, v2); interface (v1, v2)
    base = GraphWithInterface(
        graph_from_parts([(1, "a"), (2, "a"), (3, "a")], [(1, 3, "e")]),
        (1, 2))
    p = GraphPattern(base, [VariableHyperedge("y", (3, 2))])
    edge = GraphWithInterface(
        graph_from_parts([(1, "a"), (2, "a")], [(1, 2, "e")]), (1, 2))
    out = realize(p, {"y": edge})
    assert out is not None
    expected = GraphWithInterface(path_graph(3), (0, 2))
    assert iso_check(out, expected)


def test_realize_repeated_labels_get_isomorphic_copies():
    base = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")]), ())
    p = GraphPattern(base, [VariableHyperedge("x", (0,)),
                            VariableHyperedge("x", (1,))])
    pendant = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "b")], [(0, 1, "e")]), (0,))
    out = realize(p, {"x": pendant})
    assert out is not None
    assert out.graph.n == 4 and out.graph.m == 2
    assert sorted(out.graph.vlabel.values()) == ["a", "a", "b", "b"]


def test_realize_repeated_label_equals_two_distinct_labels_same_binding():
    # one label used twice and two labels bound to the same graph realize to
    # isomorphic results: the copies for equal labels are isomorphic
    base = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), ())
    shared = GraphPattern(base, [VariableHyperedge("x", (0,)),
                                 VariableHyperedge("x", (1,))])
    split = GraphPattern(base, [VariableHyperedge("x", (0,)),
                                VariableHyperedge("y", (1,))])
    bound = GraphWithInterface(path_graph(3), (0,))
    assert iso_check(realize(shared, {"x": bound}),
                     realize(split, {"x": bound, "y": bound}))


def test_realize_unbound_variable_errors():
    p = star_pattern("x", ("a",))
    with pytest.raises(ValueError):
        realize(p, {})


def test_realize_rank_mismatch_errors():
    p = star_pattern("x", ("a", "a"))
    with pytest.raises(ValueError):
        realize(p, {"x": GraphWithInterface(graph_from_parts([(0, "a")]), (0,))})


def test_realize_label_conflict_undefined():
    p = star_pattern("x", ("a",))
    bound = GraphWithInterface(graph_from_parts([(0, "b")]), (0,))
    assert realize(p, {"x": bound}) is None


def test_realize_star_is_binding_itself():
    p = star_pattern("x", ("a", "a"))
    bound = GraphWithInterface(path_graph(4), (0, 3))
    out = realize(p, {"x": bound})
    assert out is not None and iso_check(out, bound)


# ---------------------------------------------------------------------------
# isomorphism and canonical keys
# ---------------------------------------------------------------------------

def test_iso_identity():
    g = random_interface_graph(random.Random(7), 6)
    assert iso_check(g, g)


def test_iso_renamed_copy():
    g = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "b"), (2, "a")],
                         [(0, 1, "e"), (1, 2, "f")]),
        (0, 2))
    h = GraphWithInterface(
        graph_from_parts([(10, "a"), (20, "b"), (30, "a")],
                         [(10, 20, "e"), (20, 30, "f")]),
        (10, 30))
    assert iso_check(g, h)
    assert canonical_key(g) == canonical_key(h)


def test_iso_distinguishes_interface_order():
    # asymmetric: pendant vertex attached to one endpoint only
    g = graph_from_parts([(0, "a"), (1, "a"), (2, "b")],
                         [(0, 1, "e"), (1, 2, "e")])
    one = GraphWithInterface(g, (0, 1))
    other = GraphWithInterface(g, (1, 0))
    assert not iso_check(one, other)
    assert canonical_key(one) != canonical_key(other)


def test_iso_interface_order_irrelevant_under_symmetry():
    edge = graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")])
    assert iso_check(GraphWithInterface(edge, (0, 1)), GraphWithInterface(edge, (1, 0)))


def test_triangle_vs_path_differ():
    assert not iso_check(closed(triangle()), closed(path_graph(3)))
    assert canonical_key(closed(triangle())) != canonical_key(closed(path_graph(3)))


def test_classic_non_iso_same_degree_sequence():
    c6 = graph_from_parts([(i, "a") for i in range(6)],
                          [(i, (i + 1) % 6, "e") for i in range(6)])
    two_triangles = graph_from_parts(
        [(i, "a") for i in range(6)],
        [(0, 1, "e"), (1, 2, "e"), (0, 2, "e"),
         (3, 4, "e"), (4, 5, "e"), (3, 5, "e")])
    assert not iso_check(closed(c6), closed(two_triangles))
    assert canonical_key(closed(c6)) != canonical_key(closed(two_triangles))


def test_pattern_iso_requires_matching_variables():
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    p1 = GraphPattern(base, [VariableHyperedge("x", (0, 1))])
    p2 = GraphPattern(base, [VariableHyperedge("y", (0, 1))])
    p3 = GraphPattern(base, [VariableHyperedge("x", (1, 0))])
    # port order can be absorbed by a vertex bijection when labels allow it
    for p, q, want in ((p1, p1, True), (p1, p2, False), (p1, p3, True)):
        assert brute_iso(p, q) == want
        assert (canonical_key(p) == canonical_key(q)) == want
    # renaming map makes shape comparison possible
    assert canonical_key(p1, rename_vars={"x": "v0"}) == \
        canonical_key(p2, rename_vars={"y": "v0"})


def test_pattern_iso_distinguishes_port_order_when_asymmetric():
    base = closed(graph_from_parts([(0, "a"), (1, "b")]))
    p1 = GraphPattern(base, [VariableHyperedge("x", (0, 1))])
    p2 = GraphPattern(base, [VariableHyperedge("x", (1, 0))])
    assert not brute_iso(p1, p2)
    assert canonical_key(p1) != canonical_key(p2)


def test_pattern_keys_see_where_hyperedges_reach():
    # 0 and 1 have the same graph neighbourhood but their hyperedges reach
    # different vertices, so they are not interchangeable
    base = closed(graph_from_parts([(i, "a") for i in range(5)], [(2, 4, "e")]))
    one = GraphPattern(base, [VariableHyperedge("x", (0, 2)), VariableHyperedge("x", (1, 3))])
    two = GraphPattern(base, [VariableHyperedge("x", (0, 3)), VariableHyperedge("x", (1, 2))])
    assert brute_iso(one, two)
    assert canonical_key(one) == canonical_key(two)


def test_key_of_many_isolated_vertices_needs_no_deep_recursion():
    g = closed(graph_from_parts([(i, "a") for i in range(1100)]))
    renumbered = closed(graph_from_parts([(3 * i + 7, "a") for i in range(1100)]))
    assert canonical_key(g) == canonical_key(renumbered)


def test_iso_check_of_many_isolated_vertices_needs_no_deep_recursion():
    g = closed(graph_from_parts([(i, "a") for i in range(1100)]))
    renumbered = closed(graph_from_parts([(3 * i + 7, "a") for i in range(1100)]))
    assert iso_check(g, renumbered)


def _renumbered(g: GraphWithInterface, rng) -> GraphWithInterface:
    ids = [3 * i + 5 for i in range(g.graph.n)]
    rng.shuffle(ids)
    pi = dict(zip(g.graph.vertices, ids))
    return GraphWithInterface(
        LabeledGraph({pi[v]: lab for v, lab in g.graph.vlabel.items()},
                     {(pi[u], pi[v]): lab for (u, v), lab in g.graph.edges.items()}),
        tuple(pi[v] for v in g.interface))


@st.composite
def bucket_mates(draw):
    """A graph of up to 7 vertices (rank 0-3, possibly disconnected) and a
    renumbered partner that may have one interface vertex moved to a vertex
    of equal label and degree, or one edge moved."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    n = draw(st.integers(min_value=0, max_value=7))
    g = random_interface_graph(rng, n, max_rank=3, vlabels=rng.choice([("a",), ("a", "b")]),
                               edge_prob=rng.random())
    change = draw(st.sampled_from(["renumbered", "interface moved", "edge moved"]))
    h = _renumbered(g, rng)
    graph, iface = h.graph, list(h.interface)
    if change == "interface moved" and iface:
        j = rng.randrange(len(iface))
        same = [v for v in graph.vertices if v not in iface
                and (graph.vlabel[v], graph.degree(v))
                == (graph.vlabel[iface[j]], graph.degree(iface[j]))]
        # prefer a move that keeps the partner in g's signature bucket
        mates = [v for v in same if invariant_signature(GraphWithInterface(
            graph, iface[:j] + [v] + iface[j + 1:])) == invariant_signature(g)]
        if same:
            iface[j] = rng.choice(mates or same)
    if change == "edge moved":
        moved = []
        for old, lab in sorted(graph.edges.items()):
            rest = {e: elab for e, elab in graph.edges.items() if e != old}
            moved += [GraphWithInterface(LabeledGraph(graph.vlabel, {**rest, new: lab}), iface)
                      for new in combinations(graph.vertices, 2) if new not in graph.edges]
        # prefer a move that keeps the partner in g's signature bucket
        mates = [m for m in moved if invariant_signature(m) == invariant_signature(g)]
        if moved:
            return g, rng.choice(mates or moved), change
    return g, GraphWithInterface(graph, iface), change


@settings(max_examples=300, deadline=None)
@given(bucket_mates())
def test_iso_check_matches_brute_iso_on_bucket_mates(pair):
    g, h, change = pair
    same = brute_iso(g, h)
    assert iso_check(g, h) == same
    if same:
        # isomorphic fragments share a bucket, so dedup can find them
        assert invariant_signature(g) == invariant_signature(h)
    if change == "renumbered":
        assert same


def test_iso_check_on_long_paths_grows_from_the_interface(monkeypatch):
    # fragments that differ only in where their interface vertex sits: the
    # search walks out from the interface, so a miss costs O(n) checks
    edge_checks = [0]
    original = graphs_mod._edges_consistent

    def counting(*args):
        edge_checks[0] += 1
        return original(*args)

    monkeypatch.setattr(graphs_mod, "_edges_consistent", counting)
    n = 37
    rng = random.Random(37)

    def numbered_path():
        ids = list(range(n))
        rng.shuffle(ids)  # the i-th vertex along the path is ids[i]
        return ids, graph_from_parts([(v, "a") for v in ids],
                                     [(ids[i], ids[i + 1], "e") for i in range(n - 1)])

    a_ids, a_graph = numbered_path()
    b_ids, b_graph = numbered_path()
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            edge_checks[0] = 0
            same = iso_check(GraphWithInterface(a_graph, (a_ids[i],)),
                             GraphWithInterface(b_graph, (b_ids[j],)))
            assert same == (j in (i, n - 1 - i)), (i, j)
            assert edge_checks[0] <= 2 * n, (i, j, edge_checks[0])


def test_iso_check_prefilter_rejects_before_any_search(monkeypatch):
    # without the (label, degree) prefilter this pair backtracks factorially;
    # the first edge check raises, so a search fails fast instead of hanging
    def searched(*args):
        raise AssertionError("iso_check searched a pair its prefilter rejects")

    monkeypatch.setattr(graphs_mod, "_edges_consistent", searched)
    a = closed(graph_from_parts([(i, "a") for i in range(12)]))
    b = closed(graph_from_parts([(i, "a") for i in range(11)] + [(11, "b")]))
    assert not iso_check(a, b)


def _corpus(seed, count, max_n=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_interface_graph(rng, rng.randint(0, max_n)))
    # adversarial additions: renamed copies and interface permutations
    base = random_interface_graph(rng, 6)
    renamed = GraphWithInterface(
        LabeledGraph({v + 100: base.graph.vlabel[v] for v in base.graph.vertices},
                     {(u + 100, v + 100): lab for (u, v), lab in base.graph.edges.items()}),
        tuple(v + 100 for v in base.interface))
    out.extend([base, renamed])
    if base.rank == 2:
        out.append(GraphWithInterface(base.graph, (base.interface[1], base.interface[0])))
    return out


def test_iso_and_keys_agree_with_bruteforce_on_corpus():
    corpus = _corpus(11, 28)
    keys = [canonical_key(g) for g in corpus]
    for (i, g), (j, h) in combinations(enumerate(corpus), 2):
        want = brute_iso(g, h)
        assert iso_check(g, h) == want, (i, j)
        assert (keys[i] == keys[j]) == want, (i, j)


def test_iso_is_equivalence_relation(rng):
    graphs = [random_interface_graph(rng, rng.randint(0, 6)) for _ in range(12)]
    for g in graphs:
        assert iso_check(g, g)
    for g, h in combinations(graphs, 2):
        assert iso_check(g, h) == iso_check(h, g)
    for g, h, k in combinations(graphs, 3):
        if iso_check(g, h) and iso_check(h, k):
            assert iso_check(g, k)


def test_invariant_signature_is_iso_invariant(rng):
    for _ in range(60):
        g = random_interface_graph(rng, rng.randint(0, 6))
        assert invariant_signature(g) == invariant_signature(_renumbered(g, rng))


def test_key_digest_stable():
    assert key_digest(closed(triangle())) == key_digest(closed(triangle()))
    assert len(key_digest(closed(triangle()))) == 10


def test_key_digests_are_pinned():
    # predicate names are built from these digests; a canonicaliser change
    # that moves them renames every learned predicate
    assert key_digest(EMPTY_INTERFACE_GRAPH) == "923210f858"
    assert key_digest(closed(triangle())) == "ff50e76958"
    assert key_digest(GraphWithInterface(path_graph(4), (0, 3))) == "ccc0184c4e"


@st.composite
def small_interface_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_interface_graph(random.Random(seed), n)


@settings(max_examples=60, deadline=None)
@given(small_interface_graphs(), small_interface_graphs())
def test_keys_match_iso_property(g, h):
    assert (canonical_key(g) == canonical_key(h)) == iso_check(g, h)


@settings(max_examples=40, deadline=None)
@given(small_interface_graphs())
def test_key_survives_vertex_renaming(g):
    shift = {v: v * 7 + 3 for v in g.graph.vertices}
    renamed = GraphWithInterface(
        LabeledGraph({shift[v]: g.graph.vlabel[v] for v in g.graph.vertices},
                     {(shift[u], shift[v]): lab for (u, v), lab in g.graph.edges.items()}),
        tuple(shift[v] for v in g.interface))
    assert canonical_key(renamed) == canonical_key(g)


@st.composite
def pattern_pairs(draw):
    """A pattern with at least 4 vertices and repeated variable labels, with
    either a renumbered copy of itself or an independent pattern."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))

    def pattern():
        n = rng.randint(4, 6)
        g = random_graph(rng, n, vlabels=rng.choice([("a",), ("a", "b")]), elabels=("e",))
        base = GraphWithInterface(g, tuple(rng.sample(range(n), rng.randint(0, 2))))
        ranks = {"x": 2, "y": 1}
        hyper = [VariableHyperedge(lab, rng.sample(range(n), ranks[lab]))
                 for lab in ["x", "x"] + rng.choices(["x", "y"], k=rng.randint(0, 2))]
        return GraphPattern(base, hyper)

    p = pattern()
    if not draw(st.booleans()):
        return p, pattern()
    perm = list(p.base.graph.vertices)
    rng.shuffle(perm)
    g = p.base.graph
    renamed = GraphWithInterface(
        LabeledGraph({perm[v]: lab for v, lab in g.vlabel.items()},
                     {(perm[u], perm[v]): lab for (u, v), lab in g.edges.items()}),
        tuple(perm[v] for v in p.interface))
    return p, GraphPattern(renamed, [VariableHyperedge(h.label, [perm[v] for v in h.ports])
                                     for h in p.hyperedges])


@settings(max_examples=150, deadline=None)
@given(pattern_pairs())
def test_pattern_keys_match_brute_iso_property(pair):
    p, q = pair
    assert (canonical_key(p) == canonical_key(q)) == brute_iso(p, q)
