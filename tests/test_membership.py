import random
import re
import sys

import pytest

import clausegraph.graphs as graphs_mod
import clausegraph.membership as membership_mod
from clausegraph.boundary import brep_for_graph
from clausegraph.clauses import (Atom, Clause, ClauseSystem, ParamTuple, PredicateSymbol,
                                 check_bounded, check_degree_safe)
from clausegraph.formats import dump_grammar, load_grammar
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import (
    GraphPattern,
    GraphWithInterface,
    VariableHyperedge,
    canonical_key,
    closed,
    graph_from_parts,
    iso_check,
    star_pattern,
)
from clausegraph.membership import (
    DerivationNode,
    FragmentUniverse,
    derive_fixpoint,
    format_tree,
    member,
    saturate,
    sub_w,
)
from clausegraph.teacher import Teacher, generate_language

from .conftest import (b_headed_grammar, iso_heads_grammar, learned_hypothesis,
                       random_graph, rank0_grammar, two_arm_grammar)
from .enumeration import all_graphs_upto
from .oracles import TopDownOracle, brute_iso, saturate_each, sub_w_each


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


def _assert_sub_w_matches_one_build_per_spec(g, w):
    got, want = sub_w(g, w), sub_w_each(g, w)
    assert got.fragments == want.fragments, (g.vlabel, g.edges, w)
    assert got.by_labels == want.by_labels
    assert got._buckets == want._buckets


@pytest.mark.parametrize("builder", [path_grammar, triangle_grammar, twin_grammar])
def test_sub_w_matches_one_build_per_spec_on_members(builder):
    gamma, params = builder()
    for g in generate_language(gamma, params, 7):
        _assert_sub_w_matches_one_build_per_spec(g, params.w)


def _shuffled(g, rng):
    ids = list(g.vertices)
    rng.shuffle(ids)
    perm = dict(zip(g.vertices, ids))
    return graph_from_parts([(perm[v], lab) for v, lab in g.vlabel.items()],
                            [(perm[u], perm[v], lab) for (u, v), lab in g.edges.items()])


def _marked_path(n, at):
    labels = ["a"] * n
    labels[at] = "b"
    return path_graph(n, labels)


def _two_paths(n):
    return graph_from_parts([(i, "a") for i in range(n)],
                            [(i, i + 1, "e") for i in range(n - 1) if i != n // 2 - 1])


def test_sub_w_matches_one_build_per_spec_on_path_and_twin_inputs():
    """The benchmark's membership input kinds, each under a shuffled
    numbering: the path kinds at w=2 and the twin kinds at w=1."""
    rng = random.Random(11)
    for n in range(4, 11):
        for g in (path_graph(n), cycle_graph(n), _marked_path(n, n // 2), _two_paths(n)):
            _assert_sub_w_matches_one_build_per_spec(_shuffled(g, rng), 2)
    for n in range(8, 21, 4):
        for g in (path_graph(n), path_graph(n + 1), _marked_path(n, n - 1),
                  _marked_path(n, n // 2), cycle_graph(n)):
            _assert_sub_w_matches_one_build_per_spec(_shuffled(g, rng), 1)


def test_sub_w_matches_one_build_per_spec_on_random_graphs():
    # w=3 reorders interfaces by permutations that are not swaps
    rng = random.Random(12)
    for i in range(500):
        w = i % 4
        g = random_graph(rng, rng.randint(0, (6, 6, 5, 4)[w]), edge_prob=rng.random())
        _assert_sub_w_matches_one_build_per_spec(g, w)


@pytest.mark.parametrize("n,w,specs,builds,iso_checks", [
    (10, 2, 1069, 460, 235),
    (36, 1, 141, 124, 70),
])
def test_sub_w_work_is_pinned(monkeypatch, n, w, specs, builds, iso_checks):
    # most specs are classed by their parts or by the sorted ordering of
    # their interface, without a build; the counts are deterministic
    calls = {"build": 0, "iso": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(membership_mod, "build_fragment",
                        counted("build", membership_mod.build_fragment))
    monkeypatch.setattr(membership_mod, "iso_check",
                        counted("iso", membership_mod.iso_check))
    g = path_graph(n)
    sub_w(g, w)
    assert len(brep_for_graph(g, w)) == specs
    assert (calls["build"], calls["iso"]) == (builds, iso_checks)
    assert calls["build"] < specs


def test_universe_find_up_to_iso():
    u = sub_w(path_graph(3), 2)
    probe = GraphWithInterface(
        graph_from_parts([(10, "a"), (11, "a")], [(10, 11, "e")]), (10,))
    idx = u.find(probe)
    assert idx is not None
    assert iso_check(u[idx], probe)
    assert u.find(GraphWithInterface(graph_from_parts([(0, "b")]), (0,))) is None


def test_universe_keeps_signature_mates_apart():
    """A closed 6-cycle and two disjoint triangles share a signature and are
    not isomorphic: ``add`` keeps both in one bucket, and ``find`` returns
    each one's own index, the triangles' after rejecting the cycle."""
    hexagon = closed(cycle_graph(6))
    triangles = closed(graph_from_parts(
        [(i, "a") for i in range(6)],
        [(0, 1, "e"), (1, 2, "e"), (0, 2, "e"), (3, 4, "e"), (4, 5, "e"), (3, 5, "e")]))
    assert hexagon.signature == triangles.signature
    assert not iso_check(hexagon, triangles)
    u = FragmentUniverse()
    assert (u.add(hexagon), u.add(triangles)) == (0, 1)
    assert u._buckets == {hexagon.signature: [0, 1]}
    renumbered = graph_from_parts([(v + 10, "a") for v in range(6)],
                                  [(x + 10, y + 10, lab)
                                   for (x, y), lab in triangles.graph.edges.items()])
    assert (u.find(closed(cycle_graph(6))), u.find(closed(renumbered))) == (0, 1)


@pytest.mark.parametrize("n, w", [(8, 2), (12, 1)])
def test_each_fragment_signature_is_computed_once(monkeypatch, n, w):
    # the signature is cached on the fragment: building the universe keys
    # every built fragment once, and looking each kept one up again reads
    # the cache
    built, keyed = [], []
    build = membership_mod.build_fragment
    signature = graphs_mod.invariant_signature

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def keying(g):
        keyed.append(g)
        return signature(g)

    monkeypatch.setattr(membership_mod, "build_fragment", building)
    monkeypatch.setattr(graphs_mod, "invariant_signature", keying)
    universe = sub_w(path_graph(n), w)
    assert [universe.find(f) for f in universe.fragments] == list(range(len(universe)))
    assert len(keyed) == len({id(g) for g in keyed}) == len(built)


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


def test_grammar_wider_than_w_is_refused():
    """The path grammar's growing clause binds a rank-2 variable, which
    ``sub_w`` never offers at w=1.  Every entry point that takes w refuses
    the grammar before anything else, the degree shortcut included, where
    it would otherwise answer a silent NO.  Generation takes no w."""
    gamma, params = path_grammar()
    narrow = params._replace(w=1)
    refused = re.escape("clause 1: variable 'y' has rank 2 > w=1")
    star = graph_from_parts([(i, "a") for i in range(4)],
                            [(0, i, "e") for i in range(1, 4)])
    assert star.max_degree() > narrow.delta
    for g in (path_graph(4), star):
        for want_tree in (False, True):
            with pytest.raises(ValueError, match=refused):
                member(gamma, gamma.start, g, narrow, want_tree=want_tree)
        with pytest.raises(ValueError, match=refused):
            derive_fixpoint(gamma, g, narrow.w)
        with pytest.raises(ValueError, match=refused):
            Teacher(gamma, narrow, size_cap=5).answer(g)
    members = generate_language(gamma, narrow, 5)
    assert len(members) == 4
    assert closed(path_graph(4)).key in {closed(m).key for m in members}


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


def test_derivation_nodes_hash_by_identity():
    """``replay`` keys a dict by node, so two nodes with equal fields must
    stay two keys."""
    gamma, params = path_grammar()
    ok, tree = member(gamma, gamma.start, path_graph(3), params, want_tree=True)
    twin = DerivationNode(tree.predicate, tree.clause_index, tree.graph,
                          tree.children)
    assert ok and twin != tree
    assert len({tree: 0, twin: 1}) == 2
    assert iso_check(twin.replay(gamma), tree.replay(gamma))


def test_rank0_variable_binds_the_whole_graph():
    gamma, params = rank0_grammar()
    p = gamma.start
    assert TopDownOracle(gamma, delta=params.delta).member(triangle())
    assert [g.n for g in generate_language(gamma, params, 6)] == [3]
    ok, tree = member(gamma, p, triangle(), params, want_tree=True)
    assert ok
    assert iso_check(tree.replay(gamma), closed(triangle()))
    assert not member(gamma, p, path_graph(3), params)


def _detached_vertex_grammar():
    """The fact q is two ``a`` vertices with no edge, the interface on
    vertex 0; the rule s <- q(x) puts x on one ``a`` vertex.  So s derives
    two isolated ``a`` vertices through a fragment of q whose second vertex
    no edge joins to the interface."""
    s, q = PredicateSymbol("s", 0), PredicateSymbol("q", 1)
    pair = GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")]), (0,))
    vertex = closed(graph_from_parts([(0, "a")]))
    gamma = ClauseSystem([s, q], [
        Clause(Atom(q, GraphPattern(pair))),
        Clause(Atom(s, GraphPattern(vertex, [VariableHyperedge("x", (0,))])),
               [Atom(q, star_pattern("x", ("a",)))]),
    ], start=s)
    return gamma, ParamTuple(m=2, s=1, t=1, w=1, d=2, delta=2, h_max=2)


def test_detached_vertex_grammar_is_accepted_and_generates_its_graph():
    gamma, params = _detached_vertex_grammar()
    assert check_bounded(gamma, params) == []
    assert check_degree_safe(gamma)
    language = generate_language(gamma, params, 4)
    assert [(g.n, g.m) for g in language] == [(2, 0)]
    assert TopDownOracle(gamma, delta=params.delta).member(language[0])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: member looks only at boundary-attached fragments, so a "
    "fragment with a vertex that no path joins to its interface is never "
    "found and member answers a silent NO"))
def test_member_agrees_with_the_oracle_on_a_detached_vertex():
    gamma, params = _detached_vertex_grammar()
    g = graph_from_parts([(0, "a"), (1, "a")])
    want = TopDownOracle(gamma, delta=params.delta).member(g)
    assert member(gamma, gamma.start, g, params) == want


def test_two_variable_clause_matches_oracle():
    # the join binds arms derived in different rounds of the saturation
    gamma, params = two_arm_grammar()
    oracle = TopDownOracle(gamma, delta=params.delta)
    verdicts = [(member(gamma, gamma.start, g, params), oracle.member(g))
                for g in all_graphs_upto(6, ("a", "b"), max_degree=params.delta)]
    assert all(got == want for got, want in verdicts)
    assert sum(want for _, want in verdicts) == 6


def test_tree_formatting_mentions_clauses():
    gamma, params = path_grammar()
    ok, tree = member(gamma, gamma.start, path_graph(3), params, want_tree=True)
    text = format_tree(tree)
    assert "via clause" in text
    assert text.count("derives") >= 2


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_derivation_tree_needs_no_deep_stack():
    # a 200-vertex all-a twin path derives through 100 nested clauses; the
    # tree is built, printed, shown and replayed within a stack far
    # shallower than that
    gamma, params = twin_grammar()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 80)
    try:
        ok, tree = member(gamma, gamma.start, path_graph(200), params, want_tree=True)
        text = format_tree(tree)
        shown = repr(tree)
        replayed = tree.replay(gamma)
    finally:
        sys.setrecursionlimit(limit)
    assert ok
    assert shown == "DerivationNode('p', clause=2, children=['x'])"
    assert canonical_key(replayed) == canonical_key(closed(path_graph(200)))
    lines = text.split("\n")
    assert len(lines) == 1 + 2 * 100  # 101 nodes, each below the root named by a variable
    assert lines[0] == "p derives [n=200, m=199, rank=0] via clause 2"
    assert lines[-1] == " " * 400 + "q derives [n=1, m=0, rank=1] via clause 0"


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


# ---------------------------------------------------------------------------
# saturation over rule groups against the one-clause-at-a-time reference
# ---------------------------------------------------------------------------

_SYSTEMS = pytest.mark.parametrize("builder", [
    path_grammar, triangle_grammar, twin_grammar, rank0_grammar, two_arm_grammar,
    b_headed_grammar, iso_heads_grammar,
    lambda: learned_hypothesis(twin_grammar, 5),
    lambda: learned_hypothesis(path_grammar, 5),
], ids=["path", "triangle", "twin", "rank0", "two_arm", "b_headed", "iso_heads",
        "learned_twin", "learned_path"])


@_SYSTEMS
def test_grouped_saturation_matches_per_clause(builder):
    """On every member up to 7 vertices and on the spot graphs, saturating
    over rule groups derives exactly the pairs the per-clause loop does."""
    gamma, params = builder()
    graphs = generate_language(gamma, params, 7) + list(_spot_graphs())
    for g in graphs:
        universe = sub_w(g, params.w)
        universe.add(closed(g))
        got = saturate(gamma, universe, universe.find).derived
        want = saturate_each(gamma, universe, universe.find)
        assert set(got) == set(want), f"n={g.n}, m={g.m}"


def test_isomorphic_heads_share_a_rule_group():
    """The A and B rules of ``iso_heads_grammar`` have isomorphic heads with
    different vertex ids: they form one group, realized through the A
    head, and a B node of a derivation tree still replays through its own
    clause's head."""
    gamma, params = iso_heads_grammar()
    groups = membership_mod._rule_groups(gamma)[1]
    assert [[pred for pred, _ in members] for *_, members in groups] == [["A", "B"], ["p"]]
    assert groups[0][0] is gamma.clauses[2].head.pattern
    g = path_graph(5, ["a", "a", "b", "a", "a"])
    ok, tree = member(gamma, gamma.start, g, params, want_tree=True)
    assert ok and {child.predicate for child in tree.children.values()} == {"A", "B"}
    assert iso_check(tree.replay(gamma), closed(g))
    assert [h.n for h in generate_language(gamma, params, 7)] == [4, 5]


def test_saturation_realizes_each_head_key_and_binding_once(monkeypatch):
    """Groups of a learned twin hypothesis that share a head key and differ
    in pool keys bind the same fragments; a coverage ``member`` run on the
    largest sample graph realizes each (head key, binding) once."""
    gamma, params = learned_hypothesis(twin_grammar, 5)
    g = Teacher(*twin_grammar(), size_cap=5).language[-1]
    realized = []
    original = membership_mod.realize

    def counting(pattern, theta):
        realized.append((pattern.key, tuple(theta[v].key for v in sorted(theta))))
        return original(pattern, theta)

    monkeypatch.setattr(membership_mod, "realize", counting)
    assert member(gamma, gamma.start, g, params)
    assert len(realized) == len(set(realized)) > 0


@pytest.mark.parametrize("learned", [(twin_grammar, 5), (path_grammar, 7, 2)],
                         ids=["learned_twin", "learned_path"])
def test_reloaded_hypothesis_has_the_same_rule_groups(learned, tmp_path):
    """A learned hypothesis dumped and loaded again has its heads as new,
    structurally equal objects; grouping by head key gives it the groups of
    the hypothesis in memory, and the same verdicts on the target
    language."""
    gamma, params = learned_hypothesis(*learned)
    dump_grammar(gamma, tmp_path / "hypothesis.json")
    back = load_grammar(tmp_path / "hypothesis.json")

    def shape(system):
        facts, groups = membership_mod._rule_groups(system)[:2]
        return ([(pred, i) for _, pred, i in facts],
                [(variables, pool_keys, members) for _, variables, pool_keys, members in groups])

    assert len(back.clauses) == len(gamma.clauses)
    assert shape(back) == shape(gamma)
    builder, cap = learned[:2]
    language = generate_language(builder()[0], params, cap)
    verdicts = [member(gamma, gamma.start, g, params) for g in language]
    assert verdicts == [member(back, back.start, g, params) for g in language]
    assert all(verdicts)


# ---------------------------------------------------------------------------
# the head-label filter of derive_fixpoint against the unfiltered universe
# ---------------------------------------------------------------------------

@_SYSTEMS
def test_head_label_filter_derives_the_unfiltered_pairs(builder):
    """On every member up to 7 vertices and on the spot graphs,
    ``derive_fixpoint``, whose ``sub_w`` keeps only fragments with some
    head's sorted interface labels, derives the same (predicate, fragment
    class) pairs and the same goal verdict as saturating the unfiltered
    ``sub_w`` plus the whole graph."""
    gamma, params = builder()
    start = gamma.start.name
    for g in generate_language(gamma, params, 7) + list(_spot_graphs()):
        got = derive_fixpoint(gamma, g, params.w)
        universe = sub_w(g, params.w)
        goal = universe.add(closed(g))
        want = saturate(gamma, universe, universe.find)
        assert {(p, got.universe[i].key) for p, i in got.derived} == \
            {(p, universe[i].key) for p, i in want.derived}, f"n={g.n}, m={g.m}"
        assert got.holds(start, got.goal) == want.holds(start, goal)


def test_head_labels_leave_out_the_rank_1_fragments_of_a_path():
    """The path grammar has no rank-1 head, so the filtered universe is the
    unfiltered one without its rank-1 fragments, in the same order and with
    the same vertex ids."""
    gamma, _ = path_grammar()
    g = path_graph(6)
    got = sub_w(g, 2, membership_mod._rule_groups(gamma)[3]).fragments
    full = sub_w(g, 2).fragments
    assert got == [f for f in full if f.rank != 1] and len(got) < len(full)
