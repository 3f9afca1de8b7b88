"""Ordered boundary specifications and the fragments they carve out of a graph.

A specification is an ordered tuple of distinct vertices plus a set of edges
touching them; a valid one determines a unique boundary-attached fragment:
the chosen vertices, everything reachable behind the chosen edges once the
boundary is deleted, and the edges among those.  ``boundary_specs`` walks
every specification of bounded rank of one graph in one fixed order;
``brep_for_graph`` and ``enumerate_brep`` (CLI ``brep``) list them, over one
graph or a sample, as ``BoundaryRep`` records: source graph index, boundary
tuple, chosen edges and fragment.

Fragments keep their source vertex ids, so rebuilding one from the same
specification gives an identical object; deduplication up to isomorphism is
the caller's business: ``membership.sub_w`` classes specifications by their
parts before building them, and the learner takes its classes from it.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import GraphWithInterface, LabeledGraph


class BoundaryRep(NamedTuple):
    """One boundary representation: the index of its source graph (None for
    a lone graph), the ordered boundary tuple, the chosen edges as ``(u, v)``
    pairs with ``u < v``, and the fragment they determine."""

    source: Optional[int]
    beta: tuple
    boundary_edges: frozenset
    fragment: GraphWithInterface


def validate_spec(g: LabeledGraph, beta: Sequence[int], eb: Iterable[tuple]) -> bool:
    """True iff ``beta`` lists distinct vertices of ``g``, ``eb`` is a set of
    edges of ``g``, and every chosen edge meets the boundary set."""
    beta = tuple(beta)
    if len(set(beta)) != len(beta):
        return False
    vlabel = g.vlabel
    if any(v not in vlabel for v in beta):
        return False
    bset = set(beta)
    edges = g.edges
    for u, v in eb:
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            return False
        if key[0] not in bset and key[1] not in bset:
            return False
    return True


def build_fragment(g: LabeledGraph, beta: Sequence[int],
                   eb: Iterable[tuple]) -> GraphWithInterface:
    """Fragment determined by a valid specification; raises on invalid input."""
    beta = tuple(beta)
    if not validate_spec(g, beta, eb):
        raise ValueError(f"invalid boundary specification beta={beta}")
    bset = set(beta)
    vlabel = {v: g.vlabel[v] for v in beta}
    edges = {}
    walk = []
    for u, v in eb:
        key = (u, v) if u < v else (v, u)
        edges[key] = g.edges[key]
        for x in key:
            if x not in vlabel:
                vlabel[x] = g.vlabel[x]
                walk.append(x)
    for x in walk:  # the loop reaches what it appends
        for y, lab in g.neighbors(x):
            if y not in bset:
                edges[(x, y) if x < y else (y, x)] = lab
                if y not in vlabel:
                    vlabel[y] = g.vlabel[y]
                    walk.append(y)
    return GraphWithInterface(LabeledGraph(vlabel, edges), beta)


def boundary_specs(g: LabeledGraph, w: int) -> Iterator[tuple]:
    """Every specification of rank 0..w of ``g``, grouped by boundary tuple.

    Yields ``(beta, incident, masks)``: boundary tuples of each rank in
    lexicographic vertex-id order, the sorted list of the edges that meet
    ``beta``, and the masks of its specifications in binary-counter order
    (bit i chooses ``incident[i]``; see ``chosen``).
    """
    verts = sorted(g.vertices)
    for r in range(w + 1):
        for beta in permutations(verts, r):
            incident = sorted({(b, v) if b < v else (v, b)
                               for b in beta for v, _ in g.neighbors(b)})
            yield beta, incident, range(1 << len(incident))


def chosen(incident: Sequence[tuple], mask: int) -> list:
    """The edges of ``incident`` that ``mask`` chooses."""
    return [incident[i] for i in range(len(incident)) if mask >> i & 1]


def brep_for_graph(g: LabeledGraph, w: int, source: Optional[int] = None) -> list:
    """All boundary representations of rank 0..w for one graph, in the order
    of ``boundary_specs``."""
    out = []
    for beta, incident, masks in boundary_specs(g, w):
        for mask in masks:
            eb = chosen(incident, mask)
            out.append(BoundaryRep(source, beta, frozenset(eb),
                                   build_fragment(g, beta, eb)))
    return out


def enumerate_brep(sample: Sequence[LabeledGraph], w: int, delta: int) -> list:
    """Every valid specification of rank 0..w over every sample graph, with
    fragments.  Distinct specifications stay distinct even when fragments are
    isomorphic.  A negative ``w`` or a sample graph exceeding the degree
    bound is an error."""
    if w < 0:
        raise ValueError(f"w: must be non-negative, got {w}")
    for i, g in enumerate(sample):
        if g.max_degree() > delta:
            raise ValueError(
                f"sample graph {i} has max degree {g.max_degree()}, "
                f"exceeding the bound {delta}")
    out = []
    for i, g in enumerate(sample):
        out.extend(brep_for_graph(g, w, source=i))
    return out


def rank_counts(reps: Iterable[BoundaryRep]) -> dict:
    counts = {}
    for rep in reps:
        rank = len(rep.beta)
        counts[rank] = counts.get(rank, 0) + 1
    return dict(sorted(counts.items()))
