import random
from contextlib import contextmanager

import pytest

import clausegraph.learner as learner_mod
from clausegraph.graphs import GraphWithInterface, LabeledGraph


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
