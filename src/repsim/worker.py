"""Per-round worker behavior: availability, replying, and the rational
worker's aspiration-driven adjustment of its cheating probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PayoffParams, ReplyValue, WorkerSpec, WorkerType

__all__ = ["WorkerState", "Reply"]


@dataclass(frozen=True)
class Reply:
    """A reply as received by the master.

    ``was_cheat`` is ground truth the master only learns by auditing. All
    cheaters in a round return the same incorrect value, so ``value`` is WRONG
    exactly when ``was_cheat`` is set.
    """

    worker_id: int
    value: ReplyValue
    was_cheat: bool


@dataclass
class WorkerState:
    """Mutable state of one worker during a run.

    ``cheat_prob`` only ever changes for RATIONAL workers; altruistic workers
    are pinned to 0 and malicious workers to 1.
    """

    spec: WorkerSpec
    cheat_prob: float

    @classmethod
    def from_spec(cls, spec: WorkerSpec) -> "WorkerState":
        if spec.worker_type is WorkerType.MALICIOUS:
            p = 1.0
        elif spec.worker_type is WorkerType.ALTRUISTIC:
            p = 0.0
        else:
            p = spec.initial_cheat_prob
        return cls(spec=spec, cheat_prob=p)

    def draw_availability(self, rng: np.random.Generator) -> bool:
        """One Bernoulli draw per selection: does the master get a reply this
        round? The same draw covers computing, replying, and payoff delivery."""
        return rng.random() < self.spec.availability

    def produce_reply(self, rng: np.random.Generator) -> Reply:
        """Reply of a selected, available worker.

        Rational workers consume one draw to decide whether to cheat; the
        fixed types reply deterministically by their pinned cheat_prob.
        """
        if self.spec.worker_type is WorkerType.RATIONAL:
            cheat = rng.random() < self.cheat_prob
        else:
            cheat = self.cheat_prob == 1.0
        return Reply(self.spec.worker_id, ReplyValue.WRONG if cheat else ReplyValue.CORRECT, cheat)

    def update_cheat_prob(
        self,
        payoff: float,
        did_cheat: bool,
        payoffs: PayoffParams,
        alpha_w: float,
    ) -> None:
        """Reinforcement step of a rational worker after receiving a payoff.

        A cheater compares the payoff against its aspiration; an honest worker
        additionally discounts the cost of having computed the task. The
        probability is clamped to [0, 1]. Only call for RATIONAL workers that
        were selected, available, and received a payoff this round.
        """
        a = self.spec.aspiration
        if did_cheat:
            p = self.cheat_prob + alpha_w * (payoff - a)
        else:
            p = self.cheat_prob - alpha_w * (payoff - payoffs.task_cost_WCt - a)
        self.cheat_prob = min(1.0, max(0.0, p))
