"""The rounds of the mechanism over a run's state: reputation-ranked
selection, the selected workers' replies, probabilistic auditing,
weighted-majority acceptance, payoffs, the audit-probability controller and
the rational workers' learning."""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .model import (
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
    "Round",
    "select_top_n",
    "accept_by_weighted_majority",
    "update_audit_prob",
    "play",
]


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
    counters, and ``rank_key`` holds ``-(resp * truth)``, which selection
    sorts ascending; whoever changes a factor updates the key. It is a numpy
    array under REPUTATION selection and a list under FIXED_RANDOM, where
    nothing sorts it and a list is cheaper to write.
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
            self.rank_key = self.rank_key.tolist()
            picks = rng.choice(n_pool, size=params.select_n, replace=False)
            self.fixed_selection = tuple(sorted(int(i) for i in picks))


def select_top_n(rank_key: np.ndarray, n: int, rng: Stream) -> tuple[list[int], float]:
    """The ``n`` indices with the lowest rank key (the negated reputation),
    ties broken uniformly at random, and the lowest key left out.

    Implemented as a sort by (rank key asc, fresh random key asc), so a
    fully tied pool yields a uniform random n-subset. Returns ascending ids;
    ``n`` must be below the pool size.
    """
    keys = rng.random(len(rank_key))
    ids = np.lexsort((keys, rank_key))[: n + 1].tolist()
    bar = rank_key.item(ids.pop())
    return sorted(ids), bar


def accept_by_weighted_majority(
    responders: Sequence[int],
    cheats: Sequence[bool],
    truth: Mapping[int, float] | Sequence[float],
    rng: Stream,
) -> bool:
    """Whether WRONG wins the weighted vote of an unaudited round.

    ``responders`` are ascending ids, ``cheats`` says per responder whether
    it replied WRONG, and ``truth`` maps an id to its truthfulness. The value
    whose senders' summed truthfulness is maximal wins; only truthfulness
    (not combined reputation) weighs the vote. A tie between two non-empty
    groups, including the all-zero case, breaks uniformly at random with one
    ``integers(2)`` draw. Without cheaters (or replies) CORRECT wins and
    nothing is drawn. The winning group, the workers to reward, are the
    responders whose cheat flag equals the result.
    """
    if not any(cheats):
        return False
    if all(cheats):
        return True
    w_honest = w_cheat = 0.0
    for i, cheated in zip(responders, cheats):
        if cheated:
            w_cheat += truth[i]
        else:
            w_honest += truth[i]
    if w_honest == w_cheat:
        return bool(rng.integers(2))
    return w_cheat > w_honest


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


# What ``play`` yields after each round: whether it was audited, the accepted
# value (None when nobody replied), the selected ids (ascending; later rounds
# may yield the same object, so it must not be changed), the responders
# (ascending), whether each responder cheated, and the payoff delivered to
# each responder. Selected workers that did not reply receive nothing and
# perform no learning update.
Round = tuple[bool, ReplyValue | None, Sequence[int], list[int], list[bool], list[float]]


def play(state: RunState, rng: Stream) -> Iterator[Round]:
    """Play rounds forever, updating the state's columns in place and
    yielding each round's ``Round`` once it is complete.

    The run's constants and columns are bound once. ``state.audit_prob`` is
    read when the first round starts and kept current from then on; the
    column lists may be changed in place between rounds, but not
    ``rank_key``, as a ranking is carried forward on the keys ``play`` wrote.
    A round's draws come from ``rng`` in phase order: selection, replies, the
    audit decision, and the vote's tie break.
    """
    params, payoffs = state.params, state.payoffs
    draw = rng.random
    select_n, fixed = params.select_n, state.fixed_selection
    rep_type, epsilon = params.reputation_type, params.exponential_base_epsilon
    reward, fine = payoffs.reward_WBy, -payoffs.punishment_WPc
    task_cost = payoffs.task_cost_WCt
    availability, rational, cheat_prob = state.availability, state.rational, state.cheat_prob
    aspiration, learning_rate = state.aspiration, state.learning_rate
    selections, replies = state.selections, state.replies
    audits, honest, streak = state.audits, state.honest, state.streak
    resp, truth, rank_key = state.resp, state.truth, state.rank_key
    CORRECT, WRONG = ReplyValue.CORRECT, ReplyValue.WRONG
    audit_prob = state.audit_prob
    # Under REPUTATION selection, ``selected`` is the set the last full
    # ranking chose and ``bar`` the lowest key it left out; ``top`` is at
    # least the set's highest key now (exact after the replies, raised by
    # audits). Only selected workers' keys move, so while ``top < bar`` every
    # key outside the set is still above every key in it, and a full ranking
    # would choose the same set whatever its tie-break draws. The first round
    # ranks, as ``top`` starts equal to ``bar``.
    selected = fixed
    bar = top = 0.0
    pool_size = len(rank_key)

    while True:
        # Selection: the fixed set, or the n most reputable workers. A set
        # carried forward takes the tie-break draws a full ranking would take.
        if fixed is None:
            if top < bar:
                draw(pool_size)
            else:
                selected, bar = select_top_n(rank_key, select_n, rng)

        # Replies, in id order: each selected worker takes one
        # Bernoulli(availability) draw, which covers computing, replying and
        # payoff delivery. An available rational worker takes one more draw
        # to decide whether to cheat; the fixed types reply by their pinned
        # cheat_prob. All cheaters return the same incorrect value, so a
        # reply is WRONG exactly when its sender cheated. Selections and
        # replies are counted and responsiveness refreshed.
        responders: list[int] = []
        cheats: list[bool] = []
        top = -inf
        for i in selected:
            selections[i] += 1
            if draw() < availability[i]:
                replies[i] += 1
                responders.append(i)
                cheats.append(draw() < cheat_prob[i] if rational[i] else cheat_prob[i] == 1.0)
            r = resp[i] = responsiveness(replies[i], selections[i])
            k = rank_key[i] = -(r * truth[i])
            if k > top:
                top = k

        # Audit decision: one Bernoulli(audit_prob) draw.
        audited = draw() < audit_prob
        if audited:
            # The controller moves the audit probability on the truthfulness
            # the master held when it assigned the task; then every
            # responder's audit is counted, and the master accepts its own,
            # correct result. Caught cheaters are fined, the honest rewarded.
            caught = [i for i, cheated in zip(responders, cheats) if cheated]
            audit_prob = state.audit_prob = update_audit_prob(state, responders, caught)
            for i, cheated in zip(responders, cheats):
                audits[i] += 1
                if cheated:
                    streak[i] = 0
                else:
                    honest[i] += 1
                    streak[i] += 1
                t = truth[i] = truthfulness(rep_type, audits[i], honest[i], streak[i], epsilon)
                k = rank_key[i] = -(resp[i] * t)
                if k > top:
                    top = k
            accepted: ReplyValue | None = CORRECT
            pays = [fine if cheated else reward for cheated in cheats]
        elif responders:
            # Weighted vote: the winning group is rewarded, the others get 0.
            wrong = accept_by_weighted_majority(responders, cheats, truth, rng)
            accepted = WRONG if wrong else CORRECT
            pays = [reward if cheated == wrong else 0.0 for cheated in cheats]
        else:
            accepted, pays = None, []

        # Learning: each rational responder updates on its payoff.
        for i, cheated, pay in zip(responders, cheats, pays):
            if rational[i]:
                cheat_prob[i] = update_cheat_prob(
                    cheat_prob[i], pay, cheated, aspiration[i], task_cost, learning_rate[i]
                )

        yield audited, accepted, selected, responders, cheats, pays
