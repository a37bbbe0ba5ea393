"""Exact computation in unital Leavitt path algebras over characteristic-0
fields: canonical normal forms, graph and ideal analysis, simple-module
actions, and construction plus bounded verification of non-cyclic free
subgroups of the unit group."""

from .algebra import AlgebraElement, PathMonomial, invert_unipotent
from .exprs import evaluate, normalize, parse_expr
from .freeness import (
    FreePairCertificate,
    certificate_for,
    count_reduced_words,
    eval_group_word,
    find_free_generators,
    is_commutative,
    reduced_words,
    verify_free_words,
)
from .graph import (
    Cycle,
    Edge,
    Graph,
    Path,
    graph_from_json,
    graph_to_json,
    parse_graph,
    quotient_graph,
)
from .ideals import (
    DEFAULT_CYCLE_POLY,
    AdmissiblePair,
    ClassificationResult,
    IdealDescriptor,
    breaking_vertex_element,
    classify,
    enumerate_admissible,
    poly_at_cycle,
)
from .modules import (
    InfiniteEmitterModule,
    RationalPathModule,
    SinkModule,
    TwistedRationalPathModule,
    invariant_pair,
    matrix_of,
)
from .scalars import QQ, ExtensionField, ExtensionScalar, LaurentPoly

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePair",
    "AlgebraElement",
    "ClassificationResult",
    "Cycle",
    "DEFAULT_CYCLE_POLY",
    "Edge",
    "ExtensionField",
    "ExtensionScalar",
    "FreePairCertificate",
    "Graph",
    "IdealDescriptor",
    "InfiniteEmitterModule",
    "LaurentPoly",
    "Path",
    "PathMonomial",
    "QQ",
    "RationalPathModule",
    "SinkModule",
    "TwistedRationalPathModule",
    "breaking_vertex_element",
    "certificate_for",
    "classify",
    "count_reduced_words",
    "enumerate_admissible",
    "eval_group_word",
    "evaluate",
    "find_free_generators",
    "graph_from_json",
    "graph_to_json",
    "invariant_pair",
    "invert_unipotent",
    "is_commutative",
    "matrix_of",
    "normalize",
    "parse_expr",
    "parse_graph",
    "poly_at_cycle",
    "quotient_graph",
    "reduced_words",
    "verify_free_words",
]
