import copy
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clausegraph
from clausegraph.clauses import (
    Atom,
    Clause,
    ClauseSystem,
    ParamTuple,
    PredicateSymbol,
    check_bounded,
    check_degree_safe,
    check_fixed_interface,
    clause_degree_safe,
    predicate_for_fragment,
)
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import (
    GraphPattern,
    GraphWithInterface,
    VariableHyperedge,
    closed,
    graph_from_parts,
    iso_check,
    key_digest,
    star_pattern,
)

from .conftest import learned_hypothesis


def ground_atom(pred, n=1):
    g = closed(graph_from_parts([(i, "a") for i in range(n)]))
    return Atom(pred, GraphPattern(g))


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def test_atom_rank_must_match():
    p = PredicateSymbol("p", 2)
    with pytest.raises(ValueError):
        ground_atom(p)


def test_fact_with_ground_head_is_fixed_interface():
    p = PredicateSymbol("p", 0)
    assert check_fixed_interface(Clause(ground_atom(p)))


def test_one_hyperedge_needs_one_matching_star():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 2)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0, 1))]))
    good = Clause(head, [Atom(q, star_pattern("x", ("a", "a")))])
    assert check_fixed_interface(good)
    missing = Clause(head, [])
    assert not check_fixed_interface(missing)
    wrong_label = Clause(head, [Atom(q, star_pattern("z", ("a", "a")))])
    assert not check_fixed_interface(wrong_label)
    # the label matches but the rank does not: x has rank 2 in the head
    wrong_rank = Clause(head, [Atom(PredicateSymbol("q", 1), star_pattern("x", ("a",)))])
    assert not check_fixed_interface(wrong_rank)


def test_stars_read_the_body_in_order():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    r = PredicateSymbol("r", 1)
    base = closed(graph_from_parts([(0, "a"), (1, "b")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0,)),
                                       VariableHyperedge("y", (1,))]))
    cl = Clause(head, [Atom(r, star_pattern("y", ("b",))),
                       Atom(q, star_pattern("x", ("a",)))])
    assert cl.stars == (("y", ("b",), "r"), ("x", ("a",), "q"))
    assert check_fixed_interface(cl)


def test_repeated_label_needs_matching_multiplicity():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0,)),
                                       VariableHyperedge("x", (1,))]))
    two = Clause(head, [Atom(q, star_pattern("x", ("a",))),
                        Atom(q, star_pattern("x", ("a",)))])
    one = Clause(head, [Atom(q, star_pattern("x", ("a",)))])
    assert check_fixed_interface(two)
    assert not check_fixed_interface(one)


def test_non_star_body_rejected():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 2)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0, 1))]))
    notstar_base = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0, 1))
    notstar = Atom(q, GraphPattern(notstar_base, [VariableHyperedge("x", (0, 1))]))
    assert not check_fixed_interface(Clause(head, [notstar]))


def test_clause_system_rejects_bad_clauses():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 2)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0, 1))]))
    with pytest.raises(ValueError, match="fixed-interface"):
        ClauseSystem([p, q], [Clause(head, [])], start=p)


def test_clause_system_requires_declared_predicates():
    p = PredicateSymbol("p", 0)
    ghost = PredicateSymbol("ghost", 0)
    with pytest.raises(ValueError, match="ghost"):
        ClauseSystem([p], [Clause(ground_atom(ghost))], start=p)
    with pytest.raises(ValueError, match="start predicate 'ghost' is not declared"):
        ClauseSystem([p], [], start=ghost)
    with pytest.raises(ValueError, match="predicate name 'p' declared with two ranks"):
        ClauseSystem([p, PredicateSymbol("p", 1)], [], start=p)


def test_start_predicate_must_have_rank_zero():
    q = PredicateSymbol("q", 1)
    with pytest.raises(ValueError, match="rank 0"):
        ClauseSystem([q], [], start=q)


def test_clause_dedup_ignores_body_order_and_variable_names():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))

    def pair_clause(v1, v2, flip=False):
        head = Atom(p, GraphPattern(base, [VariableHyperedge(v1, (0,)),
                                           VariableHyperedge(v2, (1,))]))
        body = [Atom(q, star_pattern(v1, ("a",))), Atom(q, star_pattern(v2, ("a",)))]
        if flip:
            body.reverse()
        return Clause(head, body)

    gamma = ClauseSystem([p, q],
                         [pair_clause("x", "y"), pair_clause("u", "v", flip=True)],
                         start=p)
    assert len(gamma.clauses) == 1


def test_clause_dedup_keeps_star_port_labels_apart():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    head = Atom(p, GraphPattern(closed(graph_from_parts([(0, "a")])),
                                [VariableHyperedge("x", (0,))]))
    gamma = ClauseSystem([p, q],
                         [Clause(head, [Atom(q, star_pattern("x", ("a",)))]),
                          Clause(head, [Atom(q, star_pattern("x", ("b",)))])],
                         start=p)
    assert len(gamma.clauses) == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_empty_system_has_no_violations():
    p = PredicateSymbol("p", 0)
    gamma = ClauseSystem([p], [], start=p)
    assert check_bounded(gamma, ParamTuple(0, 0, 0, 0, 0, 0, 0)) == []


def test_path_grammar_is_bounded():
    gamma, params = path_grammar()
    assert check_bounded(gamma, params) == []


def test_path_grammar_violates_zero_body_bound():
    gamma, params = path_grammar()
    tight = ParamTuple(m=3, s=1, t=0, w=2, d=2, delta=2, h_max=3)
    violations = check_bounded(gamma, tight)
    assert len([v for v in violations if "t=0" in v]) == 2


def test_path_grammar_violates_head_bounds():
    # clause 1 grows the path behind a rank-2 variable y, clause 2 closes
    # it with x; clauses 0 and 1 each carry one edge
    gamma, params = path_grammar()
    tight = ParamTuple(m=3, s=0, t=1, w=1, d=0, delta=2, h_max=3)
    assert check_bounded(gamma, tight) == [
        "clause 0: head pattern has max degree 1 > d=0",
        "clause 1: variable 'y' has rank 2 > w=1",
        "clause 1: head has 1 hyperedges > s=0",
        "clause 1: head pattern has max degree 1 > d=0",
        "clause 2: variable 'x' has rank 2 > w=1",
        "clause 2: head has 1 hyperedges > s=0",
    ]


def test_twin_and_triangle_bounded():
    for builder in (twin_grammar, triangle_grammar):
        gamma, params = builder()
        assert check_bounded(gamma, params) == []


# ---------------------------------------------------------------------------
# degree safety
# ---------------------------------------------------------------------------

def test_hyperedge_free_heads_are_degree_safe():
    gamma, _ = triangle_grammar()
    assert check_degree_safe(gamma)


def test_path_grammar_not_degree_safe():
    # the growing clause's first port also carries an ordinary head edge
    gamma, _ = path_grammar()
    assert not check_degree_safe(gamma)


def test_shared_port_vertex_not_degree_safe():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    base = closed(graph_from_parts([(0, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0,)),
                                       VariableHyperedge("y", (0,))]))
    cl = Clause(head, [Atom(q, star_pattern("x", ("a",))),
                       Atom(q, star_pattern("y", ("a",)))])
    assert not clause_degree_safe(cl)


def test_isolated_ports_are_degree_safe():
    p = PredicateSymbol("p", 0)
    q = PredicateSymbol("q", 1)
    base = closed(graph_from_parts([(0, "a"), (1, "a")]))
    head = Atom(p, GraphPattern(base, [VariableHyperedge("x", (0,)),
                                       VariableHyperedge("y", (1,))]))
    cl = Clause(head, [Atom(q, star_pattern("x", ("a",))),
                       Atom(q, star_pattern("y", ("a",)))])
    assert clause_degree_safe(cl)


def test_predicate_naming_is_stable():
    frag = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), (0,))
    renamed = GraphWithInterface(
        graph_from_parts([(5, "a"), (9, "a")], [(5, 9, "e")]), (5,))
    assert predicate_for_fragment(frag) == predicate_for_fragment(renamed)
    assert predicate_for_fragment(frag).irank == 1


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def _modules_added_by_import() -> set:
    """The modules a fresh ``import clausegraph`` adds to those loaded before
    it (``site`` hooks may load some first)."""
    src = str(Path(clausegraph.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import clausegraph; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "clausegraph.learner" in added
    return added


def test_import_loads_neither_dataclasses_nor_inspect():
    """``import clausegraph`` generates no record code: the import adds
    neither ``dataclasses`` nor ``inspect``."""
    assert not _modules_added_by_import() & {"dataclasses", "inspect"}


def test_import_loads_no_openssl():
    """The digests take blake2b from the builtin ``_blake2`` module, so
    ``import clausegraph`` loads neither ``hashlib`` nor ``_hashlib``, whose
    import maps OpenSSL's libcrypto into the process."""
    assert not _modules_added_by_import() & {"hashlib", "_hashlib"}


def _blake2b_hex(key) -> str:
    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


@pytest.mark.parametrize("system", [
    path_grammar, twin_grammar, triangle_grammar,
    lambda: learned_hypothesis(twin_grammar, 5),
], ids=["path", "twin", "triangle", "learned_twin"])
def test_digests_are_hashlib_blake2b(system):
    """``ClauseSystem.digest`` and ``key_digest`` are ``hashlib``'s blake2b
    with ``digest_size=8`` over the repr of their key, the latter cut to
    10 hex digits."""
    gamma, _ = system()
    key = (tuple((p.name, p.irank) for p in gamma.predicates),
           gamma.start.name,
           tuple(sorted(cl.shape_key for cl in gamma.clauses)))
    assert gamma.digest == _blake2b_hex(key)
    for cl in gamma.clauses:
        pattern = cl.head.pattern
        assert key_digest(pattern) == _blake2b_hex(pattern.key)[:10]
        assert key_digest(pattern.base) == _blake2b_hex(pattern.base.key)[:10]


VALUE_RECORDS = [
    (PredicateSymbol, ("q", 2), "PredicateSymbol(name='q', irank=2)"),
    (ParamTuple, (3, 1, 1, 2, 2, 2, 3),
     "ParamTuple(m=3, s=1, t=1, w=2, d=2, delta=2, h_max=3)"),
]


@pytest.mark.parametrize("cls, values, shown", VALUE_RECORDS,
                         ids=["PredicateSymbol", "ParamTuple"])
def test_value_records_compare_hash_and_show_by_value(cls, values, shown):
    record = cls(*values)
    same = cls(**dict(zip(cls._fields, values)))
    assert record == same and hash(record) == hash(same)
    assert record != cls(*values[:-1], values[-1] + 1)
    assert repr(record) == repr(same) == shown
    assert record._replace() == record and cls._make(values) == record
    for name in (cls._fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


@pytest.mark.parametrize("cls, values", [r[:2] for r in VALUE_RECORDS],
                         ids=["PredicateSymbol", "ParamTuple"])
def test_value_records_reject_a_negative_field_however_built(cls, values):
    """``_make`` and ``_replace`` (and ``copy.replace``, from Python 3.13)
    check the fields too, although a NamedTuple's own ``_make`` calls
    ``tuple.__new__`` directly."""
    last = cls._fields[-1]
    negative = (*values[:-1], -1)
    record = cls(*values)
    builds = [lambda: cls(*negative),
              lambda: cls(**dict(zip(cls._fields, negative))),
              lambda: record._replace(**{last: -1}),
              lambda: cls._make(negative)]
    if hasattr(copy, "replace"):
        builds.append(lambda: copy.replace(record, **{last: -1}))
    for build in builds:
        with pytest.raises(ValueError, match="negative"):
            build()
