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

__version__ = "0.1.0"

# The array-backed layer: counterfactual structures, correspondence, the
# differential harness and the corpus, which need numpy.  The names above
# load without it; these are bound on first use, all of them at once
# (PEP 562), so that the first access to any name or module of the group
# binds every one of them.
_ARRAY_SIDE = {
    "structure": (
        "CfStructure",
        "RelationOrder",
        "StructureError",
        "TierOrder",
        "parse_structure",
        "structure_to_text",
        "validate_structure",
    ),
    "correspondence": (
        "CorrespondenceError",
        "CorrespondenceReport",
        "build_counterpart",
        "check_correspondence",
        "compatible",
        "compatible_K",
        "strongly_consistent",
    ),
    "harness": (
        "DifferentialReport",
        "FuzzCaps",
        "gen_random_model",
        "run_differential",
        "trial_rng",
    ),
    "corpus": ("run_corpus",),
}
_ARRAY_NAMES = frozenset(name for names in _ARRAY_SIDE.values() for name in names)


def __getattr__(name):
    if name not in _ARRAY_NAMES and name not in _ARRAY_SIDE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module_name, names in _ARRAY_SIDE.items():
        module = import_module(f"{__name__}.{module_name}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_ARRAY_NAMES, *_ARRAY_SIDE})
