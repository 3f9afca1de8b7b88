import os
import random
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import settings

import clausegraph.learner as learner_mod
from clausegraph.clauses import Atom, Clause, ClauseSystem, ParamTuple, PredicateSymbol
from clausegraph.grammars import path_grammar
from clausegraph.graphs import (
    EMPTY_INTERFACE_GRAPH,
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    VariableHyperedge,
    closed,
    star_pattern,
)
from clausegraph.teacher import Teacher

# The property tests draw fresh examples on every run; under the ``ci``
# profile a failure prints the ``@reproduce_failure`` blob that replays it.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@contextmanager
def recorded_constructions(with_args: bool = False):
    """Collect every ``Construction`` the learner builds inside the block, in
    order.  A stage whose state is unchanged reuses the last hypothesis and
    builds nothing, so this lists what the learner actually built.  With
    ``with_args`` each entry is ``(args, kwargs, construction)``, the call
    beside what it built."""
    built = []
    original = learner_mod.construct_gamma

    def recording(*args, **kwargs):
        cons = original(*args, **kwargs)
        built.append((args, kwargs, cons) if with_args else cons)
        return cons

    learner_mod.construct_gamma = recording
    try:
        yield built
    finally:
        learner_mod.construct_gamma = original


@lru_cache(maxsize=None)
def learned_hypothesis(builder, cap: int, seed=None):
    """The hypothesis and params after the target's language is presented
    twice at ``cap``, in the teacher's order permuted by ``seed``; built
    once per session."""
    gamma, params = builder()
    teacher = Teacher(gamma, params, size_cap=cap)
    learner = learner_mod.Learner(teacher.answer, params)
    learner.run(teacher.presentation(seed=seed), 2 * len(teacher.language))
    return learner.hypothesis, params


def rank0_grammar():
    """p <- r(x) with x of rank 0, and the fact r <- triangle: the start
    clause binds x to the whole triangle, which only the other rank-0
    predicate r derives."""
    p, r = PredicateSymbol("p", 0), PredicateSymbol("r", 0)
    triangle = LabeledGraph({i: "a" for i in range(3)},
                            {(0, 1): "e", (1, 2): "e", (0, 2): "e"})
    gamma = ClauseSystem([p, r], [
        Clause(Atom(r, GraphPattern(closed(triangle)))),
        Clause(Atom(p, GraphPattern(EMPTY_INTERFACE_GRAPH, [VariableHyperedge("x", ())])),
               [Atom(r, star_pattern("x", ()))]),
    ], start=p)
    return gamma, ParamTuple(m=2, s=1, t=1, w=0, d=2, delta=2, h_max=3)


def two_arm_grammar():
    """All-``a`` arms of any lengths >= 1 on both sides of one ``b`` vertex.
    The start clause has two variables, so it joins arms derived in
    different rounds of the saturation."""
    p, q = PredicateSymbol("p", 0), PredicateSymbol("q", 1)
    seed = GraphWithInterface(LabeledGraph({0: "a"}, {}), (0,))
    grow_base = GraphWithInterface(LabeledGraph({0: "a", 1: "a"}, {(0, 1): "e"}), (0,))
    join_base = GraphWithInterface(
        LabeledGraph({0: "a", 1: "b", 2: "a"}, {(0, 1): "e", (1, 2): "e"}), ())
    gamma = ClauseSystem([p, q], [
        Clause(Atom(q, GraphPattern(seed))),
        Clause(Atom(q, GraphPattern(grow_base, [VariableHyperedge("y", (1,))])),
               [Atom(q, star_pattern("y", ("a",)))]),
        Clause(Atom(p, GraphPattern(join_base, [VariableHyperedge("x", (0,)),
                                                VariableHyperedge("z", (2,))])),
               [Atom(q, star_pattern("x", ("a",))), Atom(q, star_pattern("z", ("a",)))]),
    ], start=p)
    return gamma, ParamTuple(m=3, s=2, t=2, w=1, d=2, delta=2, h_max=3)


def b_headed_grammar():
    """Paths b-a-...-a with at least one ``a``.  The fact r is the lone
    ``b`` vertex, a head label tuple no rule head has; q holds the path
    behind the interface (``b`` end, ``a`` end), whose labels are not in
    sorted order."""
    p, q, r = PredicateSymbol("p", 0), PredicateSymbol("q", 2), PredicateSymbol("r", 1)
    lone_b = GraphWithInterface(LabeledGraph({0: "b"}, {}), (0,))
    edge_base = GraphWithInterface(LabeledGraph({0: "b", 1: "a"}, {(0, 1): "e"}), (0, 1))
    grow_base = GraphWithInterface(
        LabeledGraph({0: "b", 1: "a", 2: "a"}, {(1, 2): "e"}), (0, 1))
    close_base = GraphWithInterface(LabeledGraph({0: "b", 1: "a"}, {}), ())
    gamma = ClauseSystem([p, q, r], [
        Clause(Atom(r, GraphPattern(lone_b))),
        Clause(Atom(q, GraphPattern(edge_base, [VariableHyperedge("x", (0,))])),
               [Atom(r, star_pattern("x", ("b",)))]),
        Clause(Atom(q, GraphPattern(grow_base, [VariableHyperedge("y", (0, 2))])),
               [Atom(q, star_pattern("y", ("b", "a")))]),
        Clause(Atom(p, GraphPattern(close_base, [VariableHyperedge("x", (0, 1))])),
               [Atom(q, star_pattern("x", ("b", "a")))]),
    ], start=p)
    return gamma, ParamTuple(m=4, s=1, t=1, w=2, d=2, delta=2, h_max=3)


def iso_heads_grammar():
    """All-``a`` arms on both sides of one ``b`` vertex: an A arm of two
    vertices and a B arm of one or two.  The A and B rules have isomorphic
    heads over the same variable, numbered (0, 1) against (5, 2), and the
    same body predicate, so they share one rule group; the fact on B alone
    tells the two predicates apart."""
    p, a, b, q = (PredicateSymbol("p", 0), PredicateSymbol("A", 1),
                  PredicateSymbol("B", 1), PredicateSymbol("q", 1))
    lone_a = GraphWithInterface(LabeledGraph({0: "a"}, {}), (0,))
    a_base = GraphWithInterface(LabeledGraph({0: "a", 1: "a"}, {(0, 1): "e"}), (0,))
    b_base = GraphWithInterface(LabeledGraph({5: "a", 2: "a"}, {(2, 5): "e"}), (5,))
    join_base = GraphWithInterface(
        LabeledGraph({0: "a", 1: "b", 2: "a"}, {(0, 1): "e", (1, 2): "e"}), ())
    gamma = ClauseSystem([p, a, b, q], [
        Clause(Atom(q, GraphPattern(lone_a))),
        Clause(Atom(b, GraphPattern(lone_a))),
        Clause(Atom(a, GraphPattern(a_base, [VariableHyperedge("y", (1,))])),
               [Atom(q, star_pattern("y", ("a",)))]),
        Clause(Atom(b, GraphPattern(b_base, [VariableHyperedge("y", (2,))])),
               [Atom(q, star_pattern("y", ("a",)))]),
        Clause(Atom(p, GraphPattern(join_base, [VariableHyperedge("x", (0,)),
                                                VariableHyperedge("z", (2,))])),
               [Atom(a, star_pattern("x", ("a",))), Atom(b, star_pattern("z", ("a",)))]),
    ], start=p)
    return gamma, ParamTuple(m=5, s=2, t=2, w=1, d=2, delta=2, h_max=3)


def two_label_path_grammar():
    """The path grammar with each edge labelled ``e`` or ``f``: every clause
    that carries an edge is repeated with that edge labelled ``f``.  With two
    edge labels a head pattern's edge can meet an edge of another label in a
    bound fragment, so some admission realizations are undefined."""
    gamma, params = path_grammar()
    clauses = list(gamma.clauses)
    for cl in gamma.clauses:
        pattern = cl.head.pattern
        graph = pattern.base.graph
        if graph.edges:
            relabelled = GraphWithInterface(
                LabeledGraph(graph.vlabel, dict.fromkeys(graph.edges, "f")),
                pattern.interface)
            clauses.append(Clause(Atom(cl.head.predicate,
                                       GraphPattern(relabelled, pattern.hyperedges)),
                                  cl.body))
    return ClauseSystem(gamma.predicates, clauses, start=gamma.start), params._replace(m=5)


def random_graph(rng: random.Random, n: int, max_degree: int = 3,
                 vlabels=("a", "b"), elabels=("e", "f"),
                 edge_prob: float = 0.5) -> LabeledGraph:
    vlabel = {i: rng.choice(vlabels) for i in range(n)}
    edges = {}
    deg = {i: 0 for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < max_degree and deg[v] < max_degree and rng.random() < edge_prob:
            edges[(u, v)] = rng.choice(elabels)
            deg[u] += 1
            deg[v] += 1
    return LabeledGraph(vlabel, edges)


def random_interface_graph(rng: random.Random, n: int, max_rank: int = 2,
                           **kw) -> GraphWithInterface:
    g = random_graph(rng, n, **kw)
    rank = rng.randint(0, min(max_rank, n))
    iface = tuple(rng.sample(list(g.vertices), rank))
    return GraphWithInterface(g, iface)


def random_connected_graph(rng: random.Random, n: int, max_degree: int = 3,
                           vlabels=("a", "b"), elabels=("e", "f")) -> LabeledGraph:
    """Connected random graph respecting the degree bound (n >= 1)."""
    vlabel = {i: rng.choice(vlabels) for i in range(n)}
    edges = {}
    deg = {i: 0 for i in range(n)}
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        v = order[i]
        anchors = [u for u in order[:i] if deg[u] < max_degree]
        if not anchors:
            anchors = [order[i - 1]]
        u = rng.choice(anchors)
        key = (u, v) if u < v else (v, u)
        edges[key] = rng.choice(elabels)
        deg[u] += 1
        deg[v] += 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        edges[key] = rng.choice(elabels)
        deg[u] += 1
        deg[v] += 1
    return LabeledGraph(vlabel, edges)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC1A0)
