"""The rounds of the mechanism over a run's state: reputation-ranked
selection, the selected workers' replies, probabilistic auditing,
weighted-majority acceptance, payoffs, the audit-probability controller and
the rational workers' learning."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from random import Random
from typing import Callable, Iterator, Mapping, Sequence

from .model import (
    MechanismParams,
    ReplyValue,
    ScenarioConfig,
    SelectionPolicy,
    WorkerType,
)
from .reputation import responsiveness, truthfulness
from .worker import initial_cheat_prob, update_cheat_prob

__all__ = [
    "RunState",
    "Round",
    "partial_shuffle",
    "select_top_n",
    "accept_by_weighted_majority",
    "update_audit_prob",
    "play",
]


class RunState:
    """Everything a run reads or changes, one list per field, indexed by
    worker id.

    Built from the config alone, with no draw. Read from the specs once:
    ``type_name`` (the worker type's name), ``availability``, ``rational``
    (whether the worker learns), ``aspiration`` and ``learning_rate`` (the
    worker's override, else the shared rate). The counter columns are
    ``selections``, ``replies``, ``audits`` (audited replies), ``honest``
    (audited replies found correct) and ``streak`` (honest audits since the
    last catch). ``cheat_prob`` moves only for rational workers. ``resp``
    and ``truth`` hold the two reputation factors evaluated on the current
    counters, and ``rank_key`` holds ``-(resp * truth)``, which selection
    ranks ascending; whoever changes a factor updates the key.
    """

    def __init__(self, config: ScenarioConfig):
        params = config.mechanism
        self.params = params
        self.payoffs = config.payoffs
        self.audit_prob = params.audit_prob_initial
        specs = sorted(config.workers, key=lambda w: w.worker_id)
        n_pool = len(specs)
        self.type_name = [s.worker_type.value for s in specs]
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
        self.rank_key = [-(resp * truth)] * n_pool


def partial_shuffle(items: list, lo: int, k: int, hi: int, draw: Callable[[], float]) -> None:
    """Move a uniform random ``(k - lo)``-sample of ``items[lo:hi]`` to
    places ``lo`` to ``k - 1``, in random order, with one ``draw()`` per
    place: a partial Fisher-Yates shuffle in place, which leaves the items
    outside ``[lo, hi)`` where they are. Place j takes item
    ``j + int(draw() * (hi - j))``, each with a probability within a factor
    ``1 +- (hi - lo) * 2**-53`` of uniform, as ``draw()`` returns multiples
    of ``2**-53``."""
    for j in range(lo, k):
        r = j + int(draw() * (hi - j))
        items[j], items[r] = items[r], items[j]


def select_top_n(
    rank_key: Sequence[float],
    selected: Sequence[int],
    out_ids: list[int],
    n: int,
    draw: Callable[[], float],
) -> list[int]:
    """The ``n`` workers with the lowest rank key (the negated reputation),
    ties broken uniformly at random, as ascending ids.

    ``selected`` holds ids whose keys may have moved. The other workers'
    keys have not, and ``out_ids`` holds those workers ascending by key.
    Each selected worker is inserted by bisection after the keys equal to
    its own; if the run of keys equal to the n-th lowest extends past place
    n, a ``partial_shuffle`` of that run decides which of it are among the
    first n. The first n are taken out, and the list keeps the workers left
    out.
    """
    key = rank_key.__getitem__
    for i in selected:
        out_ids.insert(bisect_right(out_ids, rank_key[i], key=key), i)
    boundary = rank_key[out_ids[n - 1]]
    hi = bisect_right(out_ids, boundary, n, key=key)
    if hi > n:
        partial_shuffle(out_ids, bisect_left(out_ids, boundary, 0, n, key=key), n, hi, draw)
    chosen = sorted(out_ids[:n])
    del out_ids[:n]
    return chosen


def accept_by_weighted_majority(
    responders: Sequence[int],
    cheats: Sequence[bool],
    truth: Mapping[int, float] | Sequence[float],
    draw: Callable[[], float],
) -> bool:
    """Whether WRONG wins the weighted vote of an unaudited round.

    ``responders`` are ascending ids, ``cheats`` says per responder whether
    it replied WRONG, and ``truth`` maps an id to its truthfulness. The value
    whose senders' summed truthfulness is maximal wins; only truthfulness
    (not combined reputation) weighs the vote. A tie between two non-empty
    groups, including the all-zero case, breaks uniformly at random: WRONG
    wins when one ``draw()`` is below 0.5. Without cheaters (or replies)
    CORRECT wins and nothing is drawn. The winning group, the workers to
    reward, are the responders whose cheat flag equals the result.
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
        return draw() < 0.5
    return w_cheat > w_honest


def update_audit_prob(audit_prob: float, s_f: float, s_r: float, params: MechanismParams) -> float:
    """New audit probability after an audited round: ``audit_prob`` moved by
    ``alpha_m * (s_f / s_r - tau)`` and clamped to [audit_prob_min, 1].
    ``s_f`` and ``s_r`` are the truthfulness that the caught cheaters and all
    responders held when the task was assigned. When ``s_r`` is zero (no
    responders, or all scores zero) the master learns nothing from the ratio
    and escalates by a full step ``alpha_m`` instead."""
    alpha_m = params.master_learning_rate_alpha_m
    if s_r == 0.0:
        return min(1.0, audit_prob + alpha_m)
    shifted = audit_prob + alpha_m * (s_f / s_r - params.tolerance_tau)
    return min(1.0, max(params.audit_prob_min, shifted))


# What ``play`` yields after each round: whether it was audited, the accepted
# value (None when nobody replied), the selected ids (ascending; later rounds
# may yield the same object, so it must not be changed), the responders
# (ascending), whether each responder cheated, and the payoff delivered to
# each responder. Selected workers that did not reply receive nothing and
# perform no learning update.
Round = tuple[bool, ReplyValue | None, Sequence[int], list[int], list[bool], list[float]]


def play(state: RunState, rng: Random) -> Iterator[Round]:
    """Play rounds forever, updating the state's columns in place and
    yielding each round's ``Round`` once it is complete.

    ``play`` reads the state when the first round starts and owns it until
    it stops: callers may change the columns only before the first round,
    and read them (and ``state.audit_prob``, kept current) after each.
    Every draw is one ``rng.random()`` call, whose sequence Python fixes for
    an integer seed. Under FIXED_RANDOM selection the run's first draws,
    one per place, sample the set that every round selects. A round then
    draws in phase order: the selection's tie-group sample (only when a
    ranking leaves part of a tied group out), replies, the audit decision,
    and the vote's tie break.
    """
    params, payoffs = state.params, state.payoffs
    draw = rng.random
    select_n = params.select_n
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
    # Under REPUTATION selection ``out_ids`` holds the workers outside
    # ``selected``, ascending by ``rank_key``: only selected workers' keys
    # move, so an outsider's key is the one it was ranked on. ``bar`` is the
    # lowest outsider key, and ``top`` is at least the selected set's highest
    # key (exact after the replies, raised by audits). While ``top < bar``
    # every outsider is above every selected worker, a ranking would choose
    # the same set, and the set is carried forward without a draw. The first
    # round ranks, as ``top`` starts equal to ``bar``. A FIXED_RANDOM set is
    # a sample of ids carried forever: its ``bar`` is above every key.
    bar = top = 0.0
    if params.selection_policy is SelectionPolicy.FIXED_RANDOM:
        ids = list(range(len(rank_key)))
        partial_shuffle(ids, 0, select_n, len(ids), draw)
        selected, bar = tuple(sorted(ids[:select_n])), inf
    else:
        out_ids = sorted(range(len(rank_key)), key=rank_key.__getitem__)
        selected = ()

    while True:
        # Selection: the carried set, or the n most reputable workers.
        if not top < bar:
            selected = select_top_n(rank_key, selected, out_ids, select_n, draw)
            bar = rank_key[out_ids[0]]

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
            # Each responder's truthfulness as the master held it when it
            # assigned the task is added to S_R, and a caught cheater's to
            # S_F, left to right in id order; only then is its audit counted.
            # The controller moves the audit probability on the two sums, and
            # the master accepts its own, correct result. Caught cheaters are
            # fined, the honest rewarded.
            s_f = s_r = 0.0
            for i, cheated in zip(responders, cheats):
                t = truth[i]
                s_r += t
                audits[i] += 1
                if cheated:
                    s_f += t
                    streak[i] = 0
                else:
                    honest[i] += 1
                    streak[i] += 1
                t = truth[i] = truthfulness(rep_type, audits[i], honest[i], streak[i], epsilon)
                k = rank_key[i] = -(resp[i] * t)
                if k > top:
                    top = k
            audit_prob = state.audit_prob = update_audit_prob(audit_prob, s_f, s_r, params)
            accepted: ReplyValue | None = CORRECT
            pays = [fine if cheated else reward for cheated in cheats]
        elif responders:
            # Weighted vote: the winning group is rewarded, the others get 0.
            wrong = accept_by_weighted_majority(responders, cheats, truth, draw)
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
