"""Attack countermeasure tree analysis.

Parse or build tree models of attacks guarded by detection/mitigation
countermeasures, compute static and time-dependent success probabilities,
cross-check the solver against a Monte Carlo simulator, and rank
countermeasures by their impact.
"""

from .bundled import bundled_model_text, load_bundled
from .dsl import load_act, parse_act, serialize_act
from .errors import (
    ActError,
    ActParseError,
    ActValidationError,
    DomainError,
    MissingParameter,
    RateUndefined,
    StateSpaceLimit,
)
from .model import (
    Act,
    AndGate,
    AttackLeaf,
    CmGate,
    DetectLeaf,
    Diagnostic,
    LeafTiming,
    MitigateLeaf,
    Node,
    OrGate,
    Scenario,
    and_gate,
    apply_scenario,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    remove_cm_gates,
    validate_act,
    with_attack_probability,
)
from .ranking import CmEffect, rank_countermeasures
from .semantics import (
    Ctmc,
    compose,
    export_ctmc_text,
    parse_ctmc_text,
)
from .statics import SweepResult, static_failure, static_probability, sweep_pleaf
from .timing import rate_from_probability, success_cdf
from .transient import CurveResult, goal_curve, simulate, transient_probability

__version__ = "0.1.0"

__all__ = [
    "Act",
    "ActError",
    "ActParseError",
    "ActValidationError",
    "AndGate",
    "AttackLeaf",
    "CmEffect",
    "CmGate",
    "Ctmc",
    "CurveResult",
    "DetectLeaf",
    "Diagnostic",
    "DomainError",
    "LeafTiming",
    "MissingParameter",
    "MitigateLeaf",
    "Node",
    "OrGate",
    "RateUndefined",
    "Scenario",
    "StateSpaceLimit",
    "SweepResult",
    "and_gate",
    "apply_scenario",
    "attack",
    "build_act",
    "bundled_model_text",
    "cm_gate",
    "compose",
    "detect",
    "export_ctmc_text",
    "goal_curve",
    "load_act",
    "load_bundled",
    "mitigate",
    "or_gate",
    "parse_act",
    "parse_ctmc_text",
    "rank_countermeasures",
    "rate_from_probability",
    "remove_cm_gates",
    "serialize_act",
    "simulate",
    "static_failure",
    "static_probability",
    "success_cdf",
    "sweep_pleaf",
    "transient_probability",
    "validate_act",
    "with_attack_probability",
]
