"""Deterministic simulator for swarms of sovereign auction-settlement agents.

Independent agents watch a simulated ledger, each computes a uniform
clearing-price auction over the observed contributions, they cross-validate
results through merkle commitments, and a threshold of them co-signs exactly
one settlement transaction. Faulty or byzantine agents are injected as
wrappers around the honest state machine, and every run is reproducible from
its scenario file alone.
"""

from .harness import (
    EXIT_CODES,
    OUTCOME_ABORTED,
    OUTCOME_SETTLED_CORRECT,
    OUTCOME_SETTLED_FRAUDULENT,
    OUTCOME_STUCK,
    RunReport,
    SchemaMismatch,
    VerifyResult,
    run_scenario,
    run_scenario_dict,
    verify_transcript,
)
from .scenario import InvalidFlags, InvalidScenario, build_scenario_dict

__version__ = "1.0.0"

__all__ = [
    "EXIT_CODES",
    "OUTCOME_ABORTED",
    "OUTCOME_SETTLED_CORRECT",
    "OUTCOME_SETTLED_FRAUDULENT",
    "OUTCOME_STUCK",
    "InvalidFlags",
    "InvalidScenario",
    "RunReport",
    "SchemaMismatch",
    "VerifyResult",
    "build_scenario_dict",
    "run_scenario",
    "run_scenario_dict",
    "verify_transcript",
    "__version__",
]
