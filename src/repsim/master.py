"""One round of the mechanism over a run's state: reputation-ranked
selection, the selected workers' replies, probabilistic auditing,
weighted-majority acceptance, payoffs, the audit-probability controller and
the rational workers' learning."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

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

if TYPE_CHECKING:  # touching np.random at run time would import numpy.random (5.5 MB RSS)
    from .model import BufferedStream

    Stream = np.random.Generator | BufferedStream

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


class RoundOutcome(NamedTuple):
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
    """Everything a run reads or changes, one list per field, indexed by
    worker id.

    Read from the specs once: ``availability``, ``rational`` (whether the
    worker learns), ``aspiration`` and ``learning_rate`` (the worker's
    override, else the shared rate). The counter columns are
    ``selections``, ``replies``, ``audits`` (audited replies), ``honest``
    (audited replies found correct) and ``streak`` (honest audits since the
    last catch). ``cheat_prob`` moves only for rational workers. ``resp``
    and ``truth`` hold the two reputation factors evaluated on the current
    counters, and the numpy array ``rank_key`` holds ``-(resp * truth)``,
    which selection sorts ascending; whoever changes a factor updates the key.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        params = config.mechanism
        self.params = params
        self.payoffs = config.payoffs
        self.audit_prob = params.audit_prob_initial
        self.specs = specs = tuple(sorted(config.workers, key=lambda w: w.worker_id))
        n_pool = len(specs)
        self.availability = [s.availability for s in specs]
        self.rational = [s.worker_type is WorkerType.RATIONAL for s in specs]
        self.aspiration = [s.aspiration for s in specs]
        self.learning_rate = [
            params.worker_learning_rate_alpha_w if s.learning_rate is None else s.learning_rate
            for s in specs
        ]
        self.selections = [0] * n_pool
        self.replies = [0] * n_pool
        self.audits = [0] * n_pool
        self.honest = [0] * n_pool
        self.streak = [0] * n_pool
        self.cheat_prob = [initial_cheat_prob(s) for s in specs]
        resp = responsiveness(0, 0)
        truth = truthfulness(params.reputation_type, 0, 0, 0, params.exponential_base_epsilon)
        self.resp = [resp] * n_pool
        self.truth = [truth] * n_pool
        self.rank_key = np.full(n_pool, -(resp * truth))
        self.fixed_selection: tuple[int, ...] | None = None
        if params.selection_policy is SelectionPolicy.FIXED_RANDOM:
            picks = rng.choice(n_pool, size=params.select_n, replace=False)
            self.fixed_selection = tuple(sorted(int(i) for i in picks))


def select_top_n(rank_key: Sequence[float], n: int, rng: Stream) -> list[int]:
    """The ``n`` indices with the lowest rank key (the negated reputation),
    ties broken uniformly at random.

    Implemented as a sort by (rank key asc, fresh random key asc), so a
    fully tied pool yields a uniform random n-subset. Returns ascending ids.
    """
    keys = rng.random(len(rank_key))
    return sorted(np.lexsort((keys, rank_key))[:n].tolist())


def select_workers(state: RunState, rng: Stream) -> list[int]:
    """Choose this round's worker set according to the selection policy."""
    if state.fixed_selection is not None:
        return list(state.fixed_selection)
    return select_top_n(state.rank_key, state.params.select_n, rng)


def collect_replies(
    state: RunState,
    selected: Sequence[int],
    rng: Stream,
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
    draw = rng.random
    availability, rational, cheat_prob = state.availability, state.rational, state.cheat_prob
    selections, replies = state.selections, state.replies
    resp, truth, rank_key = state.resp, state.truth, state.rank_key
    responders: list[int] = []
    cheats: list[bool] = []
    for i in selected:
        selections[i] += 1
        if draw() < availability[i]:
            replies[i] += 1
            responders.append(i)
            cheats.append(draw() < cheat_prob[i] if rational[i] else cheat_prob[i] == 1.0)
        r = resp[i] = responsiveness(replies[i], selections[i])
        rank_key[i] = -(r * truth[i])
    return tuple(responders), tuple(cheats)


def decide_audit(state: RunState, rng: Stream) -> bool:
    """Bernoulli(audit_prob); consumes exactly one draw."""
    return rng.random() < state.audit_prob


def accept_by_weighted_majority(
    responders: Sequence[int],
    cheats: Sequence[bool],
    truth: Mapping[int, float] | Sequence[float],
    rng: Stream,
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
    honest: list[int] = []
    cheaters: list[int] = []
    w_honest = w_cheat = 0.0
    for i, cheated in zip(responders, cheats):
        if cheated:
            cheaters.append(i)
            w_cheat += truth[i]
        else:
            honest.append(i)
            w_honest += truth[i]
    if not cheaters:
        return ReplyValue.CORRECT, tuple(honest)
    if not honest:
        return ReplyValue.WRONG, tuple(cheaters)
    if w_honest == w_cheat:
        wrong = bool(rng.integers(2))
    else:
        wrong = w_cheat > w_honest
    return (ReplyValue.WRONG, tuple(cheaters)) if wrong else (ReplyValue.CORRECT, tuple(honest))


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
    reward = payoffs.reward_WBy
    if audited:
        fine = -payoffs.punishment_WPc
        return {i: fine if cheated else reward for i, cheated in zip(responders, cheats)}
    return {i: reward if i in rewarded else 0.0 for i in responders}


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
    params, truth = state.params, state.truth
    s_r = sum(truth[i] for i in responders)
    s_f = sum(truth[i] for i in caught)
    if s_r == 0.0:
        return min(1.0, state.audit_prob + params.master_learning_rate_alpha_m)
    shifted = state.audit_prob + params.master_learning_rate_alpha_m * (
        s_f / s_r - params.tolerance_tau
    )
    return min(1.0, max(params.audit_prob_min, shifted))


def run_master_round(state: RunState, rng: Stream) -> RoundOutcome:
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
        audits, honest, streak = state.audits, state.honest, state.streak
        resp, truth, rank_key = state.resp, state.truth, state.rank_key
        for i, cheated in zip(responders, cheats):
            audits[i] += 1
            if cheated:
                streak[i] = 0
            else:
                honest[i] += 1
                streak[i] += 1
            t = truth[i] = truthfulness(rep_type, audits[i], honest[i], streak[i], epsilon)
            rank_key[i] = -(resp[i] * t)
        state.audit_prob = new_audit_prob
        accepted: ReplyValue | None = ReplyValue.CORRECT
        rewarded = tuple(i for i, c in zip(responders, cheats) if not c)
    else:
        accepted, rewarded = accept_by_weighted_majority(responders, cheats, state.truth, rng)

    payoff_map = assign_payoffs(audited, responders, cheats, rewarded, state.payoffs)
    rational, cheat_prob = state.rational, state.cheat_prob
    aspiration, learning_rate = state.aspiration, state.learning_rate
    task_cost = state.payoffs.task_cost_WCt
    for i, cheated in zip(responders, cheats):
        if rational[i]:
            cheat_prob[i] = update_cheat_prob(
                cheat_prob[i], payoff_map[i], cheated, aspiration[i], task_cost, learning_rate[i]
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
