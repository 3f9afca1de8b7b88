"""Graph grammars with fixed interfaces: membership, generation, and learning
from positive examples plus membership queries."""

from .boundary import (
    BoundaryRep,
    build_fragment,
    enumerate_brep,
    validate_spec,
)
from .clauses import (
    Atom,
    Clause,
    ClauseSystem,
    ParamTuple,
    PredicateSymbol,
    check_bounded,
    check_degree_safe,
    check_fixed_interface,
)
from .graphs import (
    EMPTY_GRAPH,
    EMPTY_INTERFACE_GRAPH,
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    VariableHyperedge,
    canonical_key,
    closed,
    compose,
    graph_from_parts,
    iso_check,
    key_digest,
    realize,
    star_pattern,
)
from .learner import Learner
from .membership import derive_fixpoint, member, sub_w
from .teacher import Presentation, Teacher, generate_language

__all__ = [
    "Atom",
    "BoundaryRep",
    "Clause",
    "ClauseSystem",
    "EMPTY_GRAPH",
    "EMPTY_INTERFACE_GRAPH",
    "GraphPattern",
    "GraphWithInterface",
    "LabeledGraph",
    "Learner",
    "ParamTuple",
    "Presentation",
    "PredicateSymbol",
    "Teacher",
    "VariableHyperedge",
    "build_fragment",
    "canonical_key",
    "check_bounded",
    "check_degree_safe",
    "check_fixed_interface",
    "closed",
    "compose",
    "derive_fixpoint",
    "enumerate_brep",
    "generate_language",
    "graph_from_parts",
    "iso_check",
    "key_digest",
    "member",
    "realize",
    "star_pattern",
    "sub_w",
    "validate_spec",
]
