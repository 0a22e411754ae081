"""Discrete-round simulator of reputation-based master-worker task computing.

A master repeatedly assigns an abstract task to the most reputable subset of
a worker pool, optionally audits the replies, accepts a weighted-majority
answer otherwise, and adapts its audit probability; rational workers adapt
their cheating probability from payoffs. The package exports the scenario
configuration and its I/O, the run engine with its convergence metrics and
theorem checks, and the built-in presets. The mechanism itself, its rules
and the round, lives in ``repsim.master``.
"""

from .model import (
    Diagnostic,
    MechanismParams,
    PayoffParams,
    ReplyValue,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    validate_config,
)
from .engine import (
    AggregateStats,
    BatchResult,
    MetricSummary,
    RoundRecord,
    RunMetrics,
    TheoremReport,
    Verdict,
    check_theorem_1,
    check_theorem_2,
    run_batch,
    run_single,
)
from .scenarios import (
    ScenarioPreset,
    build_scenario,
    get_scenario,
    list_scenarios,
    make_config,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BatchResult",
    "Diagnostic",
    "MechanismParams",
    "MetricSummary",
    "PayoffParams",
    "ReplyValue",
    "ReputationType",
    "RoundRecord",
    "RunMetrics",
    "ScenarioConfig",
    "ScenarioPreset",
    "SelectionPolicy",
    "TheoremReport",
    "Verdict",
    "WorkerSpec",
    "WorkerType",
    "build_scenario",
    "check_theorem_1",
    "check_theorem_2",
    "config_from_dict",
    "config_to_dict",
    "get_scenario",
    "list_scenarios",
    "load_config",
    "make_config",
    "run_batch",
    "run_single",
    "save_config",
    "validate_config",
]
