"""Simulated oracle and positive-presentation source for a known target.

The teacher answers membership queries by running the decision procedure on
its target system (memoized up to isomorphism) and enumerates the target
language up to a vertex cap by bottom-up saturation.  Learners talk to it
only through ``answer`` and the presentation stream; nothing else of the
target leaks through the interface.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from .clauses import ClauseSystem, ParamTuple
from .graphs import (
    GraphWithInterface,
    LabeledGraph,
    canonical_key,
    realize,
)
from .membership import _CompiledClause, member


def generate_language(gamma: ClauseSystem, params: ParamTuple,
                      size_cap: int) -> list:
    """All members of the generated language with at most ``size_cap``
    vertices, ordered by (vertex count, canonical key).

    Saturates per-predicate pools of derived graphs with interface,
    discarding anything over the cap or the degree bound.  Realization never
    shrinks below any of its bindings, so every member within the cap is
    reachable through intermediates within the cap, and deduplication by
    canonical key keeps the saturation finite.
    """
    compiled = [_CompiledClause(cl, i) for i, cl in enumerate(gamma.clauses)]
    pools: dict[str, dict] = {p.name: {} for p in gamma.predicates}  # key -> graph

    def admit(pred: str, g: GraphWithInterface) -> bool:
        if g.graph.n > size_cap or g.graph.max_degree() > params.delta:
            return False
        if g.key in pools[pred]:
            return False
        pools[pred][g.key] = g
        return True

    for c in compiled:
        if not c.vars:
            res = realize(c.pattern, {})
            if res is not None:
                admit(c.head_pred, res)

    changed = True
    while changed:
        changed = False
        for c in compiled:
            if not c.vars:
                continue
            candidate_pools = []
            for var in c.vars:
                # every body atom over the variable must already derive it
                first, *others = c.body_preds[var]
                base = [g for key, g in pools[first].items()
                        if c.binding_applies(var, g)
                        and all(key in pools[pred] for pred in others)]
                if not base:
                    break
                candidate_pools.append(base)
            else:
                for combo in product(*candidate_pools):
                    theta = dict(zip(c.vars, combo))
                    res = realize(c.pattern, theta)
                    if res is not None and admit(c.head_pred, res):
                        changed = True

    members = [g for g in pools[gamma.start.name].values() if g.closed]
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
    """Membership oracle plus presentation source for one target system."""

    def __init__(self, target: ClauseSystem, params: ParamTuple, size_cap: int):
        self.target = target
        self.params = params
        self.size_cap = size_cap
        self.query_cache: dict = {}
        self.queries_total = 0
        self.queries_unique = 0
        self._language = None

    def answer(self, g: LabeledGraph) -> bool:
        self.queries_total += 1
        key = canonical_key(GraphWithInterface(g, ()))
        if key in self.query_cache:
            return self.query_cache[key][1]
        self.queries_unique += 1
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

    def verify_cache(self, sample_size: int = 20, seed: int = 0) -> bool:
        """Spot-check that cached answers match fresh recomputations."""
        rng = random.Random(seed)
        items = sorted(self.query_cache.items())
        if len(items) > sample_size:
            items = rng.sample(items, sample_size)
        return all(
            member(self.target, self.target.start, g, self.params) == cached
            for _, (g, cached) in items)
