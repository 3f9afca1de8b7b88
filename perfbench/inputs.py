"""Seeded inputs for the benchmark workloads.

Every input is built from a fixed recipe, so its expected membership verdict
is known from how it was built and never from the library under test.  The
seed renumbers the vertices of the learn workloads' examples and permutes the
order of the membership queries; the work a run does is the same for every
seed.  Within one run every repeat of an input is the same graph, rebuilt as
a fresh object.
"""

from __future__ import annotations

import random

from clausegraph.graphs import LabeledGraph

# member-path: the path grammar accepts every all-a path with >= 2 vertices
PATH_SIZES = tuple(range(4, 11))
PATH_KINDS = ("path", "cycle", "relabelled", "two_paths")

# member-twin: even all-a paths, and all-a paths with one b at an end
TWIN_SIZES = (8, 12, 16, 20, 24, 28, 32, 36)
TWIN_KINDS = ("even_path", "capped_path", "odd_path", "b_middle", "cycle")


def _path(labels, offset=0):
    vlabel = {offset + i: lab for i, lab in enumerate(labels)}
    edges = {(offset + i, offset + i + 1): "e" for i in range(len(labels) - 1)}
    return vlabel, edges


def build(kind: str, n: int) -> tuple:
    """(vertex labels, edges, expected verdict) for one grid cell."""
    if kind in ("path", "even_path", "odd_path"):
        vlabel, edges = _path("a" * n)
        accept = kind == "path" or n % 2 == 0
        return vlabel, edges, accept
    if kind == "cycle":
        vlabel, edges = _path("a" * n)
        edges[(0, n - 1)] = "e"
        return vlabel, edges, False
    if kind in ("relabelled", "b_middle"):
        labels = ["a"] * n
        labels[n // 2] = "b"
        return (*_path(labels), False)
    if kind == "two_paths":
        first = n // 2
        vlabel, edges = _path("a" * first)
        more_v, more_e = _path("a" * (n - first), offset=first)
        vlabel.update(more_v)
        edges.update(more_e)
        return vlabel, edges, False
    if kind == "capped_path":
        return (*_path("a" * (n - 1) + "b"), True)
    raise ValueError(f"unknown input kind {kind!r}")


def renumber(vlabel: dict, edges: dict, rng: random.Random) -> LabeledGraph:
    """The same graph under a random vertex numbering."""
    ids = list(range(len(vlabel)))
    rng.shuffle(ids)
    perm = dict(zip(sorted(vlabel), ids))
    return LabeledGraph({perm[v]: lab for v, lab in vlabel.items()},
                        {(perm[u], perm[v]): lab for (u, v), lab in edges.items()})


def grid(target: str) -> list:
    """The fixed (kind, size) cells of a membership workload."""
    if target == "path":
        return [(kind, n) for n in PATH_SIZES for kind in PATH_KINDS]
    if target == "twin":
        cells = []
        for n in TWIN_SIZES:
            for kind in TWIN_KINDS:
                cells.append((kind, n + 1 if kind == "odd_path" else n))
        return cells
    raise ValueError(f"no membership grid for {target!r}")


def membership_inputs(target: str, seed: int) -> list:
    """The grid in seeded order: (kind, size, vertex labels, edges, expected).
    Each cell has one vertex numbering, drawn from the cell alone, because
    the cost of a query depends on the numbering: a numbering per seed would
    make the work differ from seed to seed.  A run repeats these same inputs,
    so each repeat does the same work."""
    cells = grid(target)
    random.Random(f"{target}:{seed}").shuffle(cells)
    out = []
    for kind, n in cells:
        vlabel, edges, expected = build(kind, n)
        g = renumber(vlabel, edges, random.Random(f"{target}:{kind}:{n}"))
        out.append((kind, n, g.vlabel, g.edges, expected))
    return out


def presentation(language: list, seed) -> list:
    """One cycle of the target language in a fixed order, every member
    renumbered by the seed."""
    rng = random.Random(f"presentation:{seed}")
    return [renumber(g.vlabel, g.edges, rng) for g in language]
