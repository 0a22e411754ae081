"""The master's side of a round: reputation-ranked selection, probabilistic
auditing, weighted-majority acceptance, payoffs, and the audit-probability
controller."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import (
    MechanismParams,
    PayoffParams,
    ReplyValue,
    SelectionPolicy,
    WorkerType,
)
from .reputation import ReputationLedger, responsiveness, truthfulness
from .worker import Reply, WorkerState

__all__ = [
    "MasterState",
    "RoundOutcome",
    "select_workers",
    "select_top_n",
    "decide_audit",
    "accept_by_weighted_majority",
    "assign_payoffs",
    "update_audit_prob",
    "run_master_round",
]


@dataclass(frozen=True)
class RoundOutcome:
    """Everything observable about one completed round.

    ``payoffs`` holds only delivered payoffs: selected workers that did not
    reply receive nothing and perform no learning update. On audited rounds
    the accepted value is always CORRECT (the master computed the task
    itself); an unaudited round with no replies accepts nothing (``None``).
    """

    selected: tuple[int, ...]
    responders: tuple[int, ...]
    audited: bool
    cheaters_caught: tuple[int, ...]
    accepted_value: ReplyValue | None
    payoffs: dict[int, float]
    audit_prob_after: float


class MasterState:
    """Audit probability, per-worker ledgers, and cached reputation scores.

    The caches (`resp`, `truth`) always equal the pure reputation functions
    evaluated on the current ledgers; all ledger mutation goes through the
    record_* methods so the caches cannot go stale.
    """

    def __init__(
        self,
        params: MechanismParams,
        payoffs: PayoffParams,
        rng: np.random.Generator,
    ):
        n_pool = params.pool_size_N
        self.params = params
        self.payoffs = payoffs
        self.audit_prob = params.audit_prob_initial
        self.ledgers = [ReputationLedger() for _ in range(n_pool)]
        fresh = ReputationLedger()
        self.resp = np.full(n_pool, responsiveness(fresh))
        self.truth = np.full(
            n_pool,
            truthfulness(fresh, params.reputation_type, params.exponential_base_epsilon),
        )
        self.fixed_selection: tuple[int, ...] | None = None
        if params.selection_policy is SelectionPolicy.FIXED_RANDOM:
            picks = rng.choice(n_pool, size=params.select_n, replace=False)
            self.fixed_selection = tuple(sorted(int(i) for i in picks))

    def record_selection(self, worker_id: int) -> None:
        ledger = self.ledgers[worker_id]
        ledger.record_selection()
        self.resp[worker_id] = responsiveness(ledger)

    def record_reply(self, worker_id: int) -> None:
        ledger = self.ledgers[worker_id]
        ledger.record_reply()
        self.resp[worker_id] = responsiveness(ledger)

    def record_audit_outcome(self, worker_id: int, was_truthful: bool) -> None:
        ledger = self.ledgers[worker_id]
        ledger.record_audit_outcome(was_truthful)
        self.truth[worker_id] = truthfulness(
            ledger, self.params.reputation_type, self.params.exponential_base_epsilon
        )


def select_top_n(reputations: Sequence[float], n: int, rng: np.random.Generator) -> list[int]:
    """The ``n`` highest-reputation indices, ties broken uniformly at random.

    Implemented as a sort by (reputation desc, fresh random key asc), so a
    fully tied pool yields a uniform random n-subset. Returns ascending ids.
    """
    rho = np.asarray(reputations, dtype=float)
    keys = rng.random(len(rho))
    order = np.lexsort((keys, -rho))
    return sorted(int(i) for i in order[:n])


def select_workers(state: MasterState, rng: np.random.Generator) -> list[int]:
    """Choose this round's worker set according to the selection policy."""
    if state.fixed_selection is not None:
        return list(state.fixed_selection)
    return select_top_n(state.resp * state.truth, state.params.select_n, rng)


def decide_audit(state: MasterState, rng: np.random.Generator) -> bool:
    """Bernoulli(audit_prob); consumes exactly one draw."""
    return rng.random() < state.audit_prob


def accept_by_weighted_majority(
    replies: Sequence[Reply],
    truth_by_id: Mapping[int, float],
    rng: np.random.Generator,
) -> tuple[ReplyValue | None, tuple[int, ...]]:
    """Accept the reply value whose senders' summed truthfulness is maximal.

    Only truthfulness (not combined reputation) weighs the vote. Ties,
    including the all-zero case, break uniformly at random. Returns the
    accepted value and the ids of its group (the workers to reward); with no
    replies, returns ``(None, ())``.
    """
    if not replies:
        return None, ()
    groups: dict[ReplyValue, list[int]] = {}
    for reply in replies:
        groups.setdefault(reply.value, []).append(reply.worker_id)
    weights = {value: sum(truth_by_id[i] for i in members) for value, members in groups.items()}
    best = max(weights.values())
    top = sorted(value for value, w in weights.items() if w == best)
    accepted = top[0] if len(top) == 1 else top[int(rng.integers(len(top)))]
    return accepted, tuple(sorted(groups[accepted]))


def assign_payoffs(
    audited: bool,
    replies: Sequence[Reply],
    rewarded: Sequence[int],
    payoffs: PayoffParams,
) -> dict[int, float]:
    """Per-responder payoffs for one round.

    Audited: caught cheaters are fined, honest responders rewarded. Unaudited:
    the accepted group is rewarded, other responders get zero. Selected
    non-responders are absent (nothing is delivered to them).
    """
    if audited:
        return {
            r.worker_id: -payoffs.punishment_WPc if r.was_cheat else payoffs.reward_WBy
            for r in replies
        }
    rewarded_set = set(rewarded)
    return {
        r.worker_id: payoffs.reward_WBy if r.worker_id in rewarded_set else 0.0
        for r in replies
    }


def update_audit_prob(
    state: MasterState,
    responders: Sequence[int],
    caught: Sequence[int],
) -> float:
    """New audit probability after an audited round.

    Compares the caught cheaters' share of the responders' aggregate
    truthfulness against the tolerance threshold and moves the probability by
    the master's learning rate, clamped to [audit_prob_min, 1]. When the
    responders' aggregate truthfulness is zero (no responders, or all scores
    zero) the master learns nothing from the ratio and escalates by a full
    learning-rate step instead.

    Must be called with the truthfulness values the master held when it
    assigned the task, i.e. before this round's audit outcomes are folded
    into the ledgers.
    """
    params = state.params
    s_r = sum(float(state.truth[i]) for i in responders)
    s_f = sum(float(state.truth[i]) for i in caught)
    if s_r == 0.0:
        return min(1.0, state.audit_prob + params.master_learning_rate_alpha_m)
    shifted = state.audit_prob + params.master_learning_rate_alpha_m * (
        s_f / s_r - params.tolerance_tau
    )
    return min(1.0, max(params.audit_prob_min, shifted))


def run_master_round(
    state: MasterState,
    workers: Sequence[WorkerState],
    rng: np.random.Generator,
) -> RoundOutcome:
    """Play one full round, mutating the master and the workers.

    Phases, in order: select the round's workers and count the selections;
    draw each selected worker's availability and collect replies (in
    worker_id order, one stream); count the replies; decide whether to audit.
    An audited round grades every responder, adjusts the audit probability
    (from pre-audit truthfulness values), and accepts the master's own
    result; an unaudited round accepts the weighted majority. Finally,
    payoffs are delivered to responders, and rational responders run their
    learning update.
    """
    selected = select_workers(state, rng)
    for i in selected:
        state.record_selection(i)

    replies: list[Reply] = []
    for i in selected:
        w = workers[i]
        if w.draw_availability(rng):
            replies.append(w.produce_reply(rng))
    responders = tuple(r.worker_id for r in replies)
    for i in responders:
        state.record_reply(i)

    audited = decide_audit(state, rng)
    caught: tuple[int, ...] = ()
    if audited:
        caught = tuple(r.worker_id for r in replies if r.was_cheat)
        new_audit_prob = update_audit_prob(state, responders, caught)
        for r in replies:
            state.record_audit_outcome(r.worker_id, not r.was_cheat)
        state.audit_prob = new_audit_prob
        accepted: ReplyValue | None = ReplyValue.CORRECT
        rewarded: tuple[int, ...] = tuple(r.worker_id for r in replies if not r.was_cheat)
    else:
        accepted, rewarded = accept_by_weighted_majority(
            replies, {i: float(state.truth[i]) for i in responders}, rng
        )

    payoff_map = assign_payoffs(audited, replies, rewarded, state.payoffs)
    for r in replies:
        w = workers[r.worker_id]
        if w.spec.worker_type is WorkerType.RATIONAL:
            alpha = w.spec.learning_rate
            if alpha is None:
                alpha = state.params.worker_learning_rate_alpha_w
            w.update_cheat_prob(payoff_map[r.worker_id], r.was_cheat, state.payoffs, alpha)

    return RoundOutcome(
        selected=tuple(selected),
        responders=responders,
        audited=audited,
        cheaters_caught=caught,
        accepted_value=accepted,
        payoffs=payoff_map,
        audit_prob_after=state.audit_prob,
    )
