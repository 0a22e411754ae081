"""Built-in scenario presets: the full-availability pool-size grid and the
partial-availability scenarios S1-S6.

Every preset selects five workers and otherwise takes the defaults of the
config dataclasses in ``repsim.model``; the truthfulness reputation type and
the initial audit probability are generator parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .model import (
    MechanismParams,
    PayoffParams,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
)

__all__ = [
    "ScenarioPreset",
    "make_workers",
    "make_config",
    "list_scenarios",
    "get_scenario",
    "build_scenario",
]

DEFAULT_SELECT_N = 5

Group = tuple[int, WorkerType, float]  # (count, type, availability)


def make_workers(groups: Sequence[Group]) -> tuple[WorkerSpec, ...]:
    """Expand (count, type, availability) groups into a dense worker list."""
    expanded = [(kind, avail) for count, kind, avail in groups for _ in range(count)]
    return tuple(
        WorkerSpec(worker_id=k, worker_type=kind, availability=avail)
        for k, (kind, avail) in enumerate(expanded)
    )


def make_config(
    groups: Sequence[Group],
    reputation_type: ReputationType | str = ReputationType.LINEAR,
    audit_prob_initial: float = MechanismParams.audit_prob_initial,
    select_n: int = DEFAULT_SELECT_N,
    num_instantiations: int = ScenarioConfig.num_instantiations,
    max_rounds: int = ScenarioConfig.max_rounds,
    post_convergence_horizon: int = ScenarioConfig.post_convergence_horizon,
    base_seed: int = ScenarioConfig.base_seed,
    selection_policy: SelectionPolicy | None = None,
) -> ScenarioConfig:
    """Scenario with the shared defaults and the given pool composition.

    The selection policy defaults to reputation ranking; a pool exactly the
    size of the selection (everyone plays every round, so there is nothing to
    rank) falls back to the frozen-selection policy, which then selects the
    whole pool.
    """
    workers = make_workers(groups)
    pool_size = len(workers)
    if selection_policy is None:
        selection_policy = (
            SelectionPolicy.FIXED_RANDOM if select_n == pool_size else SelectionPolicy.REPUTATION
        )
    mechanism = MechanismParams(
        pool_size_N=pool_size,
        select_n=select_n,
        audit_prob_initial=audit_prob_initial,
        reputation_type=ReputationType(reputation_type.upper()),
        selection_policy=selection_policy,
    )
    return ScenarioConfig(
        workers=workers,
        payoffs=PayoffParams(),
        mechanism=mechanism,
        num_instantiations=num_instantiations,
        max_rounds=max_rounds,
        post_convergence_horizon=post_convergence_horizon,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class ScenarioPreset:
    """Named pool composition whose generator accepts the make_config knobs
    (reputation_type, audit_prob_initial, num_instantiations, ...)."""

    name: str
    description: str
    generator: Callable[..., ScenarioConfig]


def _grid_scenario(pool_size: int, rational_part: int, malicious_part: int):
    """Full-availability pool with a rational:malicious ratio scaled to the
    pool size (nearest split), as a (name, description, groups) entry."""
    rational = round(pool_size * rational_part / (rational_part + malicious_part))
    malicious = pool_size - rational
    return (
        f"p{pool_size}-r{rational_part}m{malicious_part}",
        f"pool of {pool_size}, full availability: {rational} rational, "
        f"{malicious} malicious (rational/malicious ratio {rational_part}/{malicious_part})",
        [(rational, WorkerType.RATIONAL, 1.0), (malicious, WorkerType.MALICIOUS, 1.0)],
    )


_GRID_SCENARIOS = [
    _grid_scenario(pool_size, *ratio)
    for pool_size in (5, 9, 99)
    for ratio in ((5, 4), (4, 5), (1, 8))
]


_PARTIAL_SCENARIOS: list[tuple[str, str, list[Group]]] = [
    ("S1", "9 altruistic workers with d=1",
     [(9, WorkerType.ALTRUISTIC, 1.0)]),
    ("S2", "1 altruistic with d=1 and 8 altruistic workers with d=0.5",
     [(1, WorkerType.ALTRUISTIC, 1.0), (8, WorkerType.ALTRUISTIC, 0.5)]),
    ("S3", "1 altruistic with d=1 and 8 malicious workers with d=0.5",
     [(1, WorkerType.ALTRUISTIC, 1.0), (8, WorkerType.MALICIOUS, 0.5)]),
    ("S4", "9 rational workers with d=1",
     [(9, WorkerType.RATIONAL, 1.0)]),
    ("S5", "1 rational with d=1 and 8 rational workers with d=0.5",
     [(1, WorkerType.RATIONAL, 1.0), (8, WorkerType.RATIONAL, 0.5)]),
    ("S6", "1 rational with d=1 and 8 malicious workers with d=0.5",
     [(1, WorkerType.RATIONAL, 1.0), (8, WorkerType.MALICIOUS, 0.5)]),
]


_CATALOG = {
    name: ScenarioPreset(name, description, partial(make_config, groups))
    for name, description, groups in _GRID_SCENARIOS + _PARTIAL_SCENARIOS
}


def list_scenarios() -> list[ScenarioPreset]:
    """All built-in presets, grid first, then S1-S6."""
    return list(_CATALOG.values())


def get_scenario(name: str) -> ScenarioPreset:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown scenario {name!r}; available: {known}") from None


def build_scenario(name: str, **kwargs) -> ScenarioConfig:
    """Generate a preset's config; kwargs are forwarded to make_config."""
    return get_scenario(name).generator(**kwargs)
