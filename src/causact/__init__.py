"""Actual causality and causal explanation in structural-equations models
and finite counterfactual structures."""

from .formula import (
    And,
    BoxArrow,
    Bot,
    ExoEvent,
    FALSE,
    Formula,
    FormulaError,
    Intervene,
    Not,
    Or,
    PrimEvent,
    Signature,
    TRUE,
    Top,
    conjoin,
    disjoin,
    format_formula,
    parse_formula,
)
from .model import (
    CausalModel,
    Equation,
    ModelError,
    model_to_text,
    parse_context,
    parse_model,
)
from .structure import (
    CfStructure,
    RelationOrder,
    StructureError,
    TierOrder,
    parse_structure,
    structure_to_text,
    validate_structure,
)
from .hp import CauseVerdict, HpWitness, check_witness, is_actual_cause_hp
from .abstract import (
    AbstractVerdict,
    CausalSetting,
    CfSetting,
    WitnessLanguage,
    conj_language,
    conj_neg_language,
    enumerate_witnesses,
    extract_abstract_witness,
    gen_language,
    is_actual_cause_abstract,
    pair_language,
    parse_language,
)
from .explanation import ExplanationVerdict, is_explanation_abstract, is_explanation_hp
from .correspondence import (
    CorrespondenceError,
    CorrespondenceReport,
    build_counterpart,
    check_correspondence,
    compatible,
    compatible_K,
    strongly_consistent,
)
from .harness import (
    DifferentialReport,
    FuzzCaps,
    gen_random_model,
    run_differential,
    trial_rng,
)
from .corpus import run_corpus

__version__ = "0.1.0"
