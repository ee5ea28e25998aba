"""Exact quantum query algorithms and low-degree Boolean function toolkit."""

from .boolfn import (
    BooleanFunction,
    ComplexityReport,
    InputAssignment,
    complement_symmetric,
    complexity_report,
    compose_function,
    deterministic_complexity,
    enumerate_complement_symmetric_full_d,
    named_function,
    sensitivity,
)
from .compose import (
    DecisionTree,
    GapReport,
    HybridAlgorithm,
    build_decision_tree,
    hybrid_evaluate,
    verify_gap,
)
from .lowdeg import (
    ConstructedFunction,
    ConstructionReport,
    GroupPartition,
    build_f3k,
    build_f9,
    build_f12,
    build_lemma3,
    certify,
    connection_pairs,
    connection_value,
    iterate_triple,
    lemma3_params,
    p4_base,
    p4_eval,
)
from .polynomial import (
    RangePolynomial,
    degree_of,
    find_collapser,
    fit_range_polynomial,
)
from .qsim import (
    ExactScalar,
    FinalState,
    QueryAlgorithm,
    QueryLayer,
    UnitaryMatrix,
    a1,
    a2,
    check_unitary,
    final_states,
    is_exact,
    relabel_outputs,
    simulate,
)

__version__ = "0.1.0"
