"""Finite epistemic model checking with exact rational arithmetic."""

from .beliefs import (
    Prior,
    SetFunction,
    TypeMapping,
    as_fraction,
    bracket,
    conditional,
    dirac_type,
    down_set,
    set_function_from_atom_weights,
    type_mapping_constant,
    uniform_prior,
    up_set,
)
from .errors import (
    AlgebraMismatch,
    AssumptionViolated,
    CapacityParseError,
    ConditioningOnNull,
    DuplicateState,
    EmckError,
    HypothesisNotMet,
    IncompleteCapacity,
    InvalidAtoms,
    InvalidStateName,
    InvariantError,
    NotInducible,
    NotMeasurable,
    ParseError,
    PriorNotNormalized,
    PriorParseError,
    RationalOutOfRange,
    ResourceLimit,
    TooManyAtoms,
)
from .events import (
    Event,
    SigmaAlgebra,
    StateSpace,
    make_space,
    sigma_from_atoms,
    sigma_powerset,
)
from .operators import (
    EpistemicModel,
    PossibilityCorrespondence,
    p_belief,
    poss_from_operator,
    poss_from_partition,
    qualitative_belief,
)
from .axioms import (
    check_certainty,
    check_down_certainty,
    check_down_containment,
    check_entailment,
    check_invariance,
    check_p_introspection,
    check_positive_certainty,
    check_self_evidence,
    check_types_are_measures,
    is_regular,
    kripke_properties,
)
from .theorems import (
    bayes_type_from_poss,
    poss_from_type,
    verify_cor_main,
    verify_cor_regular,
    verify_cor_ta,
    verify_cor_unaware,
    verify_cor_unique_type,
    verify_prop1,
    verify_prop2,
    verify_theorem_main,
    verify_theorem_main_product,
)
from .multiagent import (
    InteractiveModel,
    agreement_sweep,
    common_p_belief,
    common_qualitative,
    is_regular_interactive,
    mutual_p_belief,
    mutual_qualitative,
    verify_agreement,
    verify_cor_ck,
    verify_cor_ta_common,
    verify_prop3,
)
from .modelgen import (
    GenParams,
    SearchResult,
    enumerate_models,
    partitions,
    random_interactive_model,
    random_model,
    search_counterexample,
)
from .dslio import (
    Expr,
    ModelDoc,
    doc_to_dict,
    eval_expr,
    eval_in_doc,
    parse_expr,
    parse_model,
    serialize_doc,
    serialize_model,
)
from .reports import (
    CheckReport,
    HypothesisResult,
    VerificationReport,
    Witness,
    format_rational,
    parse_rational,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
