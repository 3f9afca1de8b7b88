"""Predicate symbols, atoms, clauses, and whole clause systems.

A clause is fixed-interface when its body consists of star patterns matched
one-to-one with the head pattern's hyperedge occurrences by variable label.
``ClauseSystem`` enforces that shape on construction; the standalone checks
(`check_fixed_interface`, `check_bounded`, `check_degree_safe`) stay
available for validating foreign input.

A clause reads its body once, into ``Clause.stars``: one (variable, port
labels, predicate name) triple per body atom, in body order.  Every
per-clause view derives from it: the fixed-interface check compares it with
the head's hyperedge occurrences, saturation builds its rule groups from it,
and the clause's identity up to variable renaming and body order,
``clause_key``, pairs it with the head pattern's cached ``renaming_keys``.
``Clause.shape_key`` caches that key.  The learner computes it before it
builds a candidate, so that it builds none for a duplicate body, and hands
it to the candidate's ``Clause``; no key is computed twice.
A system's identity up to clause order is its cached ``digest``, hashed on
first read from its predicates, start symbol and sorted clause keys with
blake2b from the builtin ``_blake2`` module, which ``hashlib`` re-exports.
``PredicateSymbol`` and ``ParamTuple`` are NamedTuple value records whose every
construction, ``_make`` and ``_replace`` included, rejects a negative field.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from _blake2 import blake2b

from .graphs import GraphPattern, is_star_pattern, key_digest


class _Predicate(NamedTuple):
    name: str
    irank: int


class PredicateSymbol(_Predicate):
    __slots__ = ()

    def __new__(cls, name: str, irank: int):
        if irank < 0:
            raise ValueError(f"predicate {name!r}: negative interface rank")
        return super().__new__(cls, name, irank)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


class Atom:
    __slots__ = ("predicate", "pattern")

    def __init__(self, predicate: PredicateSymbol, pattern: GraphPattern):
        if pattern.rank != predicate.irank:
            raise ValueError(
                f"atom {predicate.name}: pattern interface rank {pattern.rank} "
                f"!= predicate rank {predicate.irank}")
        self.predicate = predicate
        self.pattern = pattern

    def __repr__(self):
        return f"Atom({self.predicate.name})"


class Clause:
    __slots__ = ("head", "body", "_stars", "_shape_key")

    def __init__(self, head: Atom, body: Sequence[Atom] = (), shape_key=None):
        """``shape_key``, when given, is the clause's ``clause_key``, which a
        caller that has already computed it hands over."""
        self.head = head
        self.body = tuple(body)
        self._stars = None
        self._shape_key = shape_key

    @property
    def stars(self) -> tuple:
        """(variable, port labels, predicate name) per body atom, in body
        order; defined when every body atom is a star."""
        if self._stars is None:
            self._stars = tuple(
                (a.pattern.hyperedges[0].label, a.pattern.base.interface_labels(),
                 a.predicate.name) for a in self.body)
        return self._stars

    @property
    def shape_key(self):
        """``clause_key`` of this clause; defined for fixed-interface clauses."""
        if self._shape_key is None:
            self._shape_key = clause_key(
                self.head.predicate.name, self.head.pattern, self.stars)
        return self._shape_key

    def __repr__(self):
        return (f"Clause({self.head.predicate.name} <- "
                f"{', '.join(a.predicate.name for a in self.body)})")


def clause_key(head_name: str, head: GraphPattern, body) -> tuple:
    """Clause identity up to variable renaming and body order.  ``body``
    holds one (variable, star port labels, predicate name) triple per body
    atom; every body variable must occur in ``head``, as in fixed-interface
    clauses."""
    return min(
        (head_name, head_key,
         tuple(sorted((rename[var], labels, name) for var, labels, name in body)))
        for rename, head_key in head.renaming_keys)


def check_fixed_interface(clause: Clause) -> bool:
    """True iff every body atom is a star and the stars correspond
    one-to-one with the head's hyperedge occurrences by variable label and
    rank.  The head pattern gives each variable one rank, so the matching
    occurrences give each variable that same rank in the body."""
    if not all(is_star_pattern(atom.pattern) for atom in clause.body):
        return False
    head_occ = sorted((h.label, h.rank) for h in clause.head.pattern.hyperedges)
    body_occ = sorted((var, len(labels)) for var, labels, _ in clause.stars)
    return head_occ == body_occ


class ClauseSystem:
    """A finite set of fixed-interface clauses with a designated start
    symbol; ``digest`` is its identity up to clause order, hashed once."""

    def __init__(self, predicates: Iterable[PredicateSymbol],
                 clauses: Iterable[Clause], start: PredicateSymbol):
        self.predicates = tuple(sorted(set(predicates), key=lambda p: (p.name, p.irank)))
        by_name = {}
        for p in self.predicates:
            if by_name.setdefault(p.name, p) != p:
                raise ValueError(f"predicate name {p.name!r} declared with two ranks")
        self.by_name = by_name
        if start.name not in by_name or by_name[start.name] != start:
            raise ValueError(f"start predicate {start.name!r} is not declared")
        if start.irank != 0:
            raise ValueError(f"start predicate {start.name!r} must have interface rank 0")
        self.start = start
        seen = {}
        kept = []
        for i, cl in enumerate(clauses):
            for atom in (cl.head, *cl.body):
                declared = by_name.get(atom.predicate.name)
                if declared is None or declared != atom.predicate:
                    raise ValueError(
                        f"clause {i}: predicate {atom.predicate.name!r} is not declared")
            if not check_fixed_interface(cl):
                raise ValueError(f"clause {i}: not a fixed-interface clause")
            key = cl.shape_key
            if key not in seen:
                seen[key] = cl
                kept.append(cl)
        self.clauses = tuple(kept)
        self._digest = None

    @property
    def digest(self) -> str:
        if self._digest is None:
            key = (tuple((p.name, p.irank) for p in self.predicates),
                   self.start.name,
                   tuple(sorted(cl.shape_key for cl in self.clauses)))
            self._digest = blake2b(repr(key).encode(), digest_size=8).hexdigest()
        return self._digest

    def __repr__(self):
        return (f"ClauseSystem(predicates={len(self.predicates)}, "
                f"clauses={len(self.clauses)}, start={self.start.name!r})")


class _Params(NamedTuple):
    m: int
    s: int
    t: int
    w: int
    d: int
    delta: int
    h_max: int


class ParamTuple(_Params):
    """Structural bounds: clause count, head hyperedges, body length, variable
    rank, pattern degree, generated-graph degree, and the head-pattern vertex
    cap that keeps the candidate space finite."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"parameter {field} must be non-negative")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def check_bounded(gamma: ClauseSystem, params: ParamTuple) -> list:
    """Violations of the structural bounds; empty means bounded.  Only target
    systems are held to the clause-count bound — learned hypotheses may
    exceed it.  Only head patterns are held to the degree bound: every body
    atom of a system is an edgeless star."""
    out = []
    if len(gamma.clauses) > params.m:
        out.append(f"clause count {len(gamma.clauses)} exceeds m={params.m}")
    for i, cl in enumerate(gamma.clauses):
        for lab, rank in cl.head.pattern.variables().items():
            if rank > params.w:
                out.append(f"clause {i}: variable {lab!r} has rank {rank} > w={params.w}")
        if len(cl.head.pattern.hyperedges) > params.s:
            out.append(f"clause {i}: head has {len(cl.head.pattern.hyperedges)} "
                       f"hyperedges > s={params.s}")
        if len(cl.body) > params.t:
            out.append(f"clause {i}: body has {len(cl.body)} atoms > t={params.t}")
        deg = cl.head.pattern.base.graph.max_degree()
        if deg > params.d:
            out.append(f"clause {i}: head pattern has max degree {deg} > d={params.d}")
    return out


def clause_degree_safe(clause: Clause) -> bool:
    """Every head port vertex sits in exactly one port list and touches no
    ordinary head edge."""
    head = clause.head.pattern
    counts = {}
    for h in head.hyperedges:
        for p in h.ports:
            counts[p] = counts.get(p, 0) + 1
    if any(c > 1 for c in counts.values()):
        return False
    g = head.base.graph
    return all(g.degree(p) == 0 for p in counts)


def check_degree_safe(gamma: ClauseSystem) -> bool:
    return all(clause_degree_safe(cl) for cl in gamma.clauses)


def predicate_for_fragment(fragment) -> PredicateSymbol:
    """Stable predicate symbol for a fragment class: rank plus a digest of the
    fragment's canonical key, so names agree across runs."""
    return PredicateSymbol(f"p{fragment.rank}_{key_digest(fragment)}", fragment.rank)
