"""The worker model: each type's starting cheating probability, and the
rational worker's aspiration-driven adjustment of it."""

from __future__ import annotations

from .model import WorkerSpec, WorkerType

__all__ = ["initial_cheat_prob", "update_cheat_prob"]


def initial_cheat_prob(spec: WorkerSpec) -> float:
    """Malicious workers are pinned to 1 and altruistic workers to 0; only a
    rational worker's probability starts at its spec value and moves."""
    if spec.worker_type is WorkerType.MALICIOUS:
        return 1.0
    if spec.worker_type is WorkerType.ALTRUISTIC:
        return 0.0
    return spec.initial_cheat_prob


def update_cheat_prob(
    cheat_prob: float,
    payoff: float,
    did_cheat: bool,
    aspiration: float,
    task_cost: float,
    alpha_w: float,
) -> float:
    """Reinforcement step of a rational worker after receiving a payoff.

    A cheater compares the payoff against its aspiration; an honest worker
    additionally discounts the cost of having computed the task. The result
    is clamped to [0, 1].
    """
    if did_cheat:
        p = cheat_prob + alpha_w * (payoff - aspiration)
    else:
        p = cheat_prob - alpha_w * (payoff - task_cost - aspiration)
    return min(1.0, max(0.0, p))
