"""Simulated oracle and positive-presentation source for a known target.

The teacher answers membership queries by running the decision procedure on
its target system and enumerates the target language up to a vertex cap with
the same saturation, run over a universe that grows by the graphs it derives.
Answers are memoized at two levels: a query graph seen before, vertex ids and
all, finds its canonical key without recomputing it, and a key seen before,
from any isomorphic query, finds its verdict without a membership run.
Learners talk to it only through ``answer`` and the presentation stream;
nothing else of the target leaks through the interface.
"""

from __future__ import annotations

import random
from typing import Optional

from .clauses import ClauseSystem, ParamTuple
from .graphs import GraphWithInterface, LabeledGraph, canonical_key
from .membership import FragmentUniverse, member, saturate

VERIFY_SAMPLE = 20  # cached answers and memoized keys that verify_cache rechecks


def generate_language(gamma: ClauseSystem, params: ParamTuple,
                      size_cap: int) -> list:
    """All members of the generated language with at most ``size_cap``
    vertices, ordered by (vertex count, canonical key).

    Runs the membership saturation over a universe that starts empty and
    takes in every realized graph within the cap and the degree bound.
    Realization never shrinks below any of its bindings, so every member
    within the cap is reachable through intermediates within the cap, and
    deduplication up to isomorphism keeps the saturation finite.
    """
    universe = FragmentUniverse()

    def within_bounds(g: GraphWithInterface) -> Optional[int]:
        if g.graph.n > size_cap or g.graph.max_degree() > params.delta:
            return None
        return universe.add(g)

    derived = saturate(gamma, universe, within_bounds)
    # the start predicate has rank 0, so every graph it holds on is closed
    members = [universe[idx] for idx in derived.by_predicate(gamma.start.name)]
    members.sort(key=lambda g: (g.graph.n, g.key))
    return [g.graph for g in members]


class Presentation:
    """Cyclic enumeration of a finite graph list: every member appears once
    per cycle, indefinitely.  An optional seed permutes the base order."""

    def __init__(self, graphs, seed: Optional[int] = None):
        if not graphs:
            raise ValueError("cannot present an empty language")
        self.graphs = list(graphs)
        if seed is not None:
            random.Random(seed).shuffle(self.graphs)
        self.position = 0

    def __iter__(self):
        return self

    def __next__(self) -> LabeledGraph:
        g = self.graphs[self.position % len(self.graphs)]
        self.position += 1
        return g


class Teacher:
    """Membership oracle plus presentation source for one target system.

    Every query is counted in ``queries_total``; ``queries_unique`` counts
    the isomorphism classes among them.  ``query_cache`` maps a class's
    canonical key to its first query graph and verdict, and ``key_memo``
    maps each distinct query graph (equal vertex ids, labels and edges) to
    its canonical key, so a repeated query costs two dict lookups."""

    def __init__(self, target: ClauseSystem, params: ParamTuple, size_cap: int):
        self.target = target
        self.params = params
        self.size_cap = size_cap
        self.query_cache: dict = {}
        self.key_memo: dict = {}
        self.queries_total = 0
        self._language = None

    @property
    def queries_unique(self) -> int:
        return len(self.query_cache)

    def answer(self, g: LabeledGraph) -> bool:
        self.queries_total += 1
        key = self.key_memo.get(g)
        if key is None:
            key = self.key_memo[g] = canonical_key(GraphWithInterface(g, ()))
        if key in self.query_cache:
            return self.query_cache[key][1]
        result = member(self.target, self.target.start, g, self.params)
        self.query_cache[key] = (g, result)
        return result

    @property
    def language(self) -> list:
        if self._language is None:
            self._language = generate_language(self.target, self.params, self.size_cap)
        return self._language

    def presentation(self, seed: Optional[int] = None) -> Presentation:
        return Presentation(self.language, seed=seed)

    def verify_cache(self) -> bool:
        """Spot-check that cached answers match fresh recomputations and
        that memoized query keys match fresh canonical keys."""
        rng = random.Random(0)
        items = sorted(self.query_cache.items())
        if len(items) > VERIFY_SAMPLE:
            items = rng.sample(items, VERIFY_SAMPLE)
        keyed = list(self.key_memo.items())
        if len(keyed) > VERIFY_SAMPLE:
            keyed = rng.sample(keyed, VERIFY_SAMPLE)
        return all(
            member(self.target, self.target.start, g, self.params) == cached
            for _, (g, cached) in items) and all(
            canonical_key(GraphWithInterface(g, ())) == key for g, key in keyed)
