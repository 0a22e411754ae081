"""One round of the mechanism over a run's state: reputation-ranked
selection, the selected workers' replies, probabilistic auditing,
weighted-majority acceptance, payoffs, the audit-probability controller and
the rational workers' learning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import (
    PayoffParams,
    ReplyValue,
    ScenarioConfig,
    SelectionPolicy,
    WorkerType,
)
from .reputation import responsiveness, truthfulness
from .worker import initial_cheat_prob, update_cheat_prob

__all__ = [
    "RunState",
    "RoundOutcome",
    "select_workers",
    "select_top_n",
    "collect_replies",
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


class RunState:
    """Everything a run changes, one column per field, indexed by worker id.

    The counter columns are ``selections``, ``replies``, ``audits`` (audited
    replies), ``honest`` (audited replies found correct) and ``streak``
    (honest audits since the last catch). ``cheat_prob`` moves only for
    rational workers. Type, availability, aspiration and learning rate are
    read from ``specs``. ``resp`` and ``truth`` hold the two reputation
    factors evaluated on the current counters; selection ranks their product.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        params = config.mechanism
        self.params = params
        self.payoffs = config.payoffs
        self.audit_prob = params.audit_prob_initial
        self.specs = tuple(sorted(config.workers, key=lambda w: w.worker_id))
        n_pool = len(self.specs)
        self.selections = [0] * n_pool
        self.replies = [0] * n_pool
        self.audits = [0] * n_pool
        self.honest = [0] * n_pool
        self.streak = [0] * n_pool
        self.cheat_prob = [initial_cheat_prob(s) for s in self.specs]
        self.resp = np.full(n_pool, responsiveness(0, 0))
        self.truth = np.full(
            n_pool, truthfulness(params.reputation_type, 0, 0, 0, params.exponential_base_epsilon)
        )
        self.fixed_selection: tuple[int, ...] | None = None
        if params.selection_policy is SelectionPolicy.FIXED_RANDOM:
            picks = rng.choice(n_pool, size=params.select_n, replace=False)
            self.fixed_selection = tuple(sorted(int(i) for i in picks))


def select_top_n(reputations: Sequence[float], n: int, rng: np.random.Generator) -> list[int]:
    """The ``n`` highest-reputation indices, ties broken uniformly at random.

    Implemented as a sort by (reputation desc, fresh random key asc), so a
    fully tied pool yields a uniform random n-subset. Returns ascending ids.
    """
    rho = np.asarray(reputations, dtype=float)
    keys = rng.random(len(rho))
    order = np.lexsort((keys, -rho))
    return sorted(int(i) for i in order[:n])


def select_workers(state: RunState, rng: np.random.Generator) -> list[int]:
    """Choose this round's worker set according to the selection policy."""
    if state.fixed_selection is not None:
        return list(state.fixed_selection)
    return select_top_n(state.resp * state.truth, state.params.select_n, rng)


def collect_replies(
    state: RunState,
    selected: Sequence[int],
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Draw the selected workers' replies, in id order on one stream.

    Each selected worker takes one Bernoulli(availability) draw: does the
    master get a reply this round? The same draw covers computing, replying
    and payoff delivery. An available rational worker takes one more draw
    to decide whether to cheat; the fixed types reply by their pinned
    cheat_prob. All cheaters return the same incorrect value, so a reply is
    WRONG exactly when its sender cheated. Counts the selections and replies
    and refreshes responsiveness. Returns the responders and, for each,
    whether it cheated.
    """
    specs, cheat_prob = state.specs, state.cheat_prob
    selections, replies, resp = state.selections, state.replies, state.resp
    responders: list[int] = []
    cheats: list[bool] = []
    for i in selected:
        spec = specs[i]
        selections[i] += 1
        if rng.random() < spec.availability:
            replies[i] += 1
            responders.append(i)
            if spec.worker_type is WorkerType.RATIONAL:
                cheats.append(rng.random() < cheat_prob[i])
            else:
                cheats.append(cheat_prob[i] == 1.0)
        resp[i] = responsiveness(replies[i], selections[i])
    return tuple(responders), tuple(cheats)


def decide_audit(state: RunState, rng: np.random.Generator) -> bool:
    """Bernoulli(audit_prob); consumes exactly one draw."""
    return rng.random() < state.audit_prob


def accept_by_weighted_majority(
    responders: Sequence[int],
    cheats: Sequence[bool],
    truth: Mapping[int, float] | np.ndarray,
    rng: np.random.Generator,
) -> tuple[ReplyValue | None, tuple[int, ...]]:
    """Accept the reply value whose senders' summed truthfulness is maximal.

    ``responders`` are ascending ids, ``cheats`` says per responder whether
    it replied WRONG, and ``truth`` maps an id to its truthfulness. Only
    truthfulness (not combined reputation) weighs the vote. A tie, including
    the all-zero case, breaks uniformly at random. Returns the accepted value
    and the ids of its group (the workers to reward); with no replies,
    returns ``(None, ())``.
    """
    if not responders:
        return None, ()
    honest = tuple(i for i, c in zip(responders, cheats) if not c)
    cheaters = tuple(i for i, c in zip(responders, cheats) if c)
    if not cheaters:
        return ReplyValue.CORRECT, honest
    if not honest:
        return ReplyValue.WRONG, cheaters
    w_honest = sum(truth[i] for i in honest)
    w_cheat = sum(truth[i] for i in cheaters)
    if w_honest == w_cheat:
        wrong = bool(rng.integers(2))
    else:
        wrong = w_cheat > w_honest
    return (ReplyValue.WRONG, cheaters) if wrong else (ReplyValue.CORRECT, honest)


def assign_payoffs(
    audited: bool,
    responders: Sequence[int],
    cheats: Sequence[bool],
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
            i: -payoffs.punishment_WPc if cheated else payoffs.reward_WBy
            for i, cheated in zip(responders, cheats)
        }
    rewarded_set = set(rewarded)
    return {i: payoffs.reward_WBy if i in rewarded_set else 0.0 for i in responders}


def update_audit_prob(
    state: RunState,
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
    assigned the task, i.e. before this round's audit outcomes are counted.
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


def run_master_round(state: RunState, rng: np.random.Generator) -> RoundOutcome:
    """Play one full round, updating the state's columns in place.

    Phases, in order: select the round's workers; collect their replies
    (counting selections and replies); decide whether to audit. An audited
    round adjusts the audit probability (from pre-audit truthfulness
    values), counts every responder's audit, and accepts the master's own
    result; an unaudited round accepts the weighted majority. Finally,
    payoffs are delivered to responders, and rational responders run their
    learning update.
    """
    params = state.params
    selected = select_workers(state, rng)
    responders, cheats = collect_replies(state, selected, rng)

    audited = decide_audit(state, rng)
    caught: tuple[int, ...] = ()
    if audited:
        caught = tuple(i for i, c in zip(responders, cheats) if c)
        new_audit_prob = update_audit_prob(state, responders, caught)
        rep_type, epsilon = params.reputation_type, params.exponential_base_epsilon
        audits, honest, streak, truth = state.audits, state.honest, state.streak, state.truth
        for i, cheated in zip(responders, cheats):
            audits[i] += 1
            if cheated:
                streak[i] = 0
            else:
                honest[i] += 1
                streak[i] += 1
            truth[i] = truthfulness(rep_type, audits[i], honest[i], streak[i], epsilon)
        state.audit_prob = new_audit_prob
        accepted: ReplyValue | None = ReplyValue.CORRECT
        rewarded = tuple(i for i, c in zip(responders, cheats) if not c)
    else:
        accepted, rewarded = accept_by_weighted_majority(responders, cheats, state.truth, rng)

    payoff_map = assign_payoffs(audited, responders, cheats, rewarded, state.payoffs)
    specs, cheat_prob = state.specs, state.cheat_prob
    for i, cheated in zip(responders, cheats):
        spec = specs[i]
        if spec.worker_type is WorkerType.RATIONAL:
            alpha = spec.learning_rate
            if alpha is None:
                alpha = params.worker_learning_rate_alpha_w
            cheat_prob[i] = update_cheat_prob(
                cheat_prob[i], payoff_map[i], cheated, spec.aspiration,
                state.payoffs.task_cost_WCt, alpha,
            )

    return RoundOutcome(
        selected=tuple(selected),
        responders=responders,
        audited=audited,
        cheaters_caught=caught,
        accepted_value=accepted,
        payoffs=payoff_map,
        audit_prob_after=state.audit_prob,
    )
