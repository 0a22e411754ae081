import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repsim import (
    MechanismParams,
    PayoffParams,
    ReplyValue,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
)
from repsim.master import (
    RunState,
    accept_by_weighted_majority,
    play,
    partial_shuffle,
    select_top_n,
    update_audit_prob,
)
from repsim.model import make_stream
from repsim.scenarios import build_scenario

PAYOFFS = PayoffParams()
COLUMNS = ("selections", "replies", "audits", "honest", "streak")


def make_state(
    *types,
    select_n=5,
    audit_prob=0.5,
    reputation=ReputationType.LINEAR,
    policy=SelectionPolicy.REPUTATION,
    audit_prob_min=0.01,
    availability=1.0,
    cheat_prob=0.5,
    learning_rate=None,
    payoffs=PAYOFFS,
):
    """Run state over a pool of the given types (default: 9 altruistic)."""
    types = types or (WorkerType.ALTRUISTIC,) * 9
    workers = tuple(
        WorkerSpec(i, t, availability=availability, initial_cheat_prob=cheat_prob,
                   learning_rate=learning_rate)
        for i, t in enumerate(types)
    )
    params = MechanismParams(
        pool_size_N=len(types),
        select_n=select_n,
        audit_prob_initial=audit_prob,
        audit_prob_min=audit_prob_min,
        reputation_type=reputation,
        selection_policy=policy,
    )
    return RunState(ScenarioConfig(workers, payoffs, params))


def one_round(state, rng):
    """One round of ``play``: (audited, accepted value, selected, responders,
    cheat flags, payoffs)."""
    return next(play(state, rng))


def vote(responders, cheats, truth, draw):
    """The weighted vote's accepted value and rewarded group, as ``play``
    derives them: the group is the responders whose cheat flag equals
    whether WRONG won."""
    wrong = accept_by_weighted_majority(responders, cheats, truth, draw)
    group = tuple(i for i, cheated in zip(responders, cheats) if cheated == wrong)
    return (ReplyValue.WRONG if wrong else ReplyValue.CORRECT), group


def caught(audited, responders, cheats):
    return tuple(i for i, c in zip(responders, cheats) if c) if audited else ()


def rank(keys, n, draw):
    """A ranking from scratch, with every worker an outsider: the chosen ids
    and the lowest key left out."""
    out_ids = sorted(range(len(keys)), key=keys.__getitem__)
    chosen = select_top_n(keys, (), out_ids, n, draw)
    return chosen, keys[out_ids[0]]


class Counter:
    """A ``draw`` that counts its calls."""

    def __init__(self, seed):
        self.random, self.calls = make_stream(seed).random, 0

    def __call__(self):
        self.calls += 1
        return self.random()


class TestSelection:
    def test_equal_reputations_select_uniformly(self):
        # round 1: every worker tied at the initial reputation; frequency n/N +/- 2%
        draw = make_stream(11).random
        counts = np.zeros(9)
        trials = 10_000
        for _ in range(trials):
            for i in rank([-1.0] * 9, 5, draw)[0]:
                counts[i] += 1
        freqs = counts / trials
        assert np.all(np.abs(freqs - 5 / 9) <= 0.02)

    def test_strict_argmax(self):
        # the two lowest keys, and the lowest key left out, without a draw
        draw = Counter(12)
        keys = [-1.0, -1.0, -0.2, -0.1, -0.0]
        for _ in range(50):
            assert rank(keys, 2, draw) == ([0, 1], -0.2)
        assert draw.calls == 0

    def test_tie_group_is_sampled_with_one_draw_per_place(self):
        # -0.0 and 0.0 tie: two places for a group of four
        draw = Counter(13)
        seen = set()
        for _ in range(200):
            chosen, bar = rank([-1.0, 0.0, -0.0, 0.5, 0.0, -0.0], 3, draw)
            assert chosen[0] == 0 and set(chosen[1:]) <= {1, 2, 4, 5} and bar == 0.0
            seen.add(tuple(chosen))
        assert draw.calls == 400
        assert len(seen) == 6  # every pair of the group

    def test_fixed_random_returns_same_set_every_round(self):
        master = make_state(policy=SelectionPolicy.FIXED_RANDOM)
        rounds = play(master, make_stream(14))
        first = next(rounds)[2]
        assert len(first) == 5
        assert next(rounds)[2] == first
        assert all(next(rounds)[2] == first for _ in range(50))

    def test_reputation_selection_returns_n_sorted_ids(self):
        master = make_state()
        picked = one_round(master, make_stream(16))[2]
        assert len(picked) == 5 == len(set(picked))
        assert picked == sorted(picked)


@given(m=st.integers(1, 200), data=st.data())
def test_partial_shuffle_permutes_the_items(m, data):
    # k - lo places of the slice [lo, hi) of m items, one draw each; the
    # items outside the slice stay where they are
    hi = data.draw(st.integers(0, m))
    lo = data.draw(st.integers(0, hi))
    k = data.draw(st.integers(lo, hi))
    items = list(range(m))
    draw = Counter(data.draw(st.integers(0, 2**64 - 1)))
    partial_shuffle(items, lo, k, hi, draw)
    assert items[:lo] + items[hi:] == list(range(lo)) + list(range(hi, m))
    assert sorted(items[lo:hi]) == list(range(lo, hi))
    assert draw.calls == k - lo


def test_partial_shuffle_is_uniform_over_ordered_samples():
    # all 4 * 3 = 12 ordered pairs from 4 items, each 1/12: a chi-square
    # test with 11 degrees of freedom at the 0.1 % level (critical 31.26)
    draw = make_stream(5).random
    trials = 24_000
    counts = {}
    for _ in range(trials):
        items = [0, 1, 2, 3]
        partial_shuffle(items, 0, 2, 4, draw)
        counts[tuple(items[:2])] = counts.get(tuple(items[:2]), 0) + 1
    assert len(counts) == 12
    expected = trials / 12
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 31.26


# Rank keys, ascending; -0.0 and 0.0 tie, as they do in the ranking.
RANK_LEVELS = (-1.0, -0.5, -0.0, 0.0, 0.5)


@given(st.data())
def test_set_strictly_below_the_rest_is_selected_whatever_the_stream(data):
    # the premise of carrying a selection forward: n keys strictly below all
    # others (compared as play compares them) are the ones a full ranking
    # selects, whatever its draws, and the lowest other key is the bar
    cut = data.draw(st.sampled_from(RANK_LEVELS[1:]))
    pool_size = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, pool_size - 1))
    chosen = sorted(data.draw(st.permutations(range(pool_size)))[:n])
    below = st.sampled_from([k for k in RANK_LEVELS if k < cut])
    rest = st.sampled_from([k for k in RANK_LEVELS if not k < cut])
    keys = [data.draw(below if i in chosen else rest) for i in range(pool_size)]
    bar = min(k for i, k in enumerate(keys) if i not in chosen)
    draw = make_stream(data.draw(st.integers(0, 2**64 - 1))).random
    assert rank(keys, n, draw) == (chosen, bar)


def assert_is_a_full_ranking(keys, chosen, n):
    """``chosen`` is a set a full ranking of ``keys`` could select: n ids,
    every key below the n-th lowest, and the rest from the ties at it."""
    boundary = sorted(keys)[n - 1]
    assert len(chosen) == n == len(set(chosen))
    assert {i for i, k in enumerate(keys) if k < boundary} <= set(chosen)
    assert all(keys[i] <= boundary for i in chosen)


@given(st.data())
def test_ranking_from_a_moved_selection_equals_a_full_ranking(data):
    # the outsiders keep the keys they were ranked on; the selected set's
    # keys move anywhere. The new set is a full ranking's, and the outsider
    # ids are left ascending by key and are exactly the workers left out.
    pool_size = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, pool_size - 1))
    keys = [data.draw(st.sampled_from(RANK_LEVELS)) for _ in range(pool_size)]
    selected = sorted(data.draw(st.permutations(range(pool_size)))[:n])
    out_ids = sorted((i for i in range(pool_size) if i not in selected), key=keys.__getitem__)
    for i in selected:
        keys[i] = data.draw(st.sampled_from(RANK_LEVELS))
    draw = make_stream(data.draw(st.integers(0, 2**64 - 1))).random
    chosen = select_top_n(keys, selected, out_ids, n, draw)
    assert chosen == sorted(chosen)
    assert_is_a_full_ranking(keys, chosen, n)
    assert sorted(out_ids + chosen) == list(range(pool_size))
    ranked = [keys[i] for i in out_ids]
    assert ranked == sorted(ranked)


def two_list_select_top_n(rank_key, selected, out_keys, out_ids, n, draw):
    """``select_top_n`` as it was when the outsiders' keys were kept in a
    list of their own beside ``out_ids`` and the tie run was shuffled in a
    copy: the reference for the order ties keep and the draws they take."""
    for i in selected:
        k = rank_key[i]
        j = bisect_right(out_keys, k)
        out_keys.insert(j, k)
        out_ids.insert(j, i)
    boundary = out_keys[n - 1]
    hi = bisect_right(out_keys, boundary, n)
    if hi > n:
        lo = bisect_left(out_keys, boundary, 0, n)
        run = out_ids[lo:hi]
        m = len(run)
        for j in range(n - lo):
            r = j + int(draw() * (m - j))
            run[j], run[r] = run[r], run[j]
        out_ids[lo:hi] = run
    chosen = sorted(out_ids[:n])
    del out_keys[:n], out_ids[:n]
    return chosen


@given(st.data())
def test_ties_keep_the_two_list_order_draw_for_draw(data):
    # a few rankings in a row, the outsiders' ties in any order and the
    # selected keys moved before each: the chosen ids, the order left in
    # out_ids and the draws taken are the two-list reference's
    pool_size = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, pool_size - 1))
    keys = [data.draw(st.sampled_from(RANK_LEVELS)) for _ in range(pool_size)]
    order = data.draw(st.permutations(range(pool_size)))
    selected = sorted(order[:n])
    out_ids = sorted(order[n:], key=keys.__getitem__)
    ref_ids, ref_keys = list(out_ids), [keys[i] for i in out_ids]
    seed = data.draw(st.integers(0, 2**64 - 1))
    draw, ref_draw = Counter(seed), Counter(seed)
    for _ in range(data.draw(st.integers(1, 3))):
        for i in selected:
            keys[i] = data.draw(st.sampled_from(RANK_LEVELS))
        expected = two_list_select_top_n(keys, selected, ref_keys, ref_ids, n, ref_draw)
        selected = select_top_n(keys, selected, out_ids, n, draw)
        assert selected == expected
        assert out_ids == ref_ids
        assert draw.calls == ref_draw.calls


@pytest.mark.parametrize("reputation", [t.value for t in ReputationType])
@pytest.mark.parametrize("preset", ["S3", "S5", "p99-r1m8"])
def test_selection_equals_a_full_ranking_every_round(preset, reputation):
    # play carries a selection forward while it cannot change and keeps the
    # outsiders ranked between rounds; every round's set is one a full
    # ranking of the keys the round starts on could select, with the tie
    # group at the boundary compared as a set
    config = build_scenario(preset, reputation_type=reputation)
    n = config.mechanism.select_n
    state = RunState(config)
    rounds = play(state, make_stream(3))
    tied_rounds = 0
    for _ in range(400):
        keys = list(state.rank_key)
        chosen = list(next(rounds)[2])
        assert_is_a_full_ranking(keys, chosen, n)
        boundary = sorted(keys)[n - 1]
        tied_rounds += sum(k == boundary for k in keys) > sum(keys[i] == boundary for i in chosen)
    assert tied_rounds > 0  # the first round at least samples a tie group


class TestAuditDecision:
    def test_certain_audit(self):
        # every reply caught keeps the controller at 1
        master = make_state(*[WorkerType.MALICIOUS] * 9, audit_prob=1.0)
        rounds = play(master, make_stream(17))
        assert all(next(rounds)[0] for _ in range(100))

    def test_minimum_audit_rate(self):
        # honest replies only push the controller down, and it is clamped at
        # the minimum, so every round is audited with probability 0.01
        master = make_state(WorkerType.ALTRUISTIC, select_n=1, audit_prob=0.01,
                            policy=SelectionPolicy.FIXED_RANDOM)
        rounds = play(master, make_stream(18))
        freq = np.mean([next(rounds)[0] for _ in range(100_000)])
        assert 0.007 <= freq <= 0.013

    def test_consumes_exactly_one_draw(self):
        # a run of one fixed, always available altruist first draws its
        # one-place FIXED_RANDOM sample; its first round then draws the
        # availability, then the audit decision, and nothing else
        for audit_prob in (1.0, 0.0):
            master = make_state(WorkerType.ALTRUISTIC, select_n=1, audit_prob=audit_prob,
                                policy=SelectionPolicy.FIXED_RANDOM)
            a, b = make_stream(19), make_stream(19)
            one_round(master, a)
            b.random()
            b.random()
            b.random()
            assert a.random() == b.random()


class TestWeightedMajority:
    def test_strict_maximum_group(self):
        truth = {0: 0.9, 1: 0.8, 2: 0.4}
        accepted, rewarded = vote((0, 1, 2), (False, False, True), truth, make_stream(20).random)
        assert accepted is ReplyValue.CORRECT
        assert rewarded == (0, 1)

    def test_all_zero_scores_tie_breaks_uniformly(self):
        truth = {0: 0.0, 1: 0.0}
        draw = make_stream(21).random
        trials = 10_000
        correct = sum(
            vote((0, 1), (False, True), truth, draw)[0] is ReplyValue.CORRECT
            for _ in range(trials)
        )
        assert abs(correct / trials - 0.5) <= 0.02

    def test_no_replies(self):
        # an unaudited round nobody replied to holds no vote
        master = make_state(availability=0.0, audit_prob=0.0)
        _, accepted, _, responders, _, payoffs = one_round(master, make_stream(22))
        rewarded = tuple(i for i, p in zip(responders, payoffs) if p > 0)
        assert accepted is None
        assert rewarded == ()

    def test_scaling_truth_scores_preserves_accepted_group(self):
        # multiplying every score by a power of two is exact in floats, so the
        # argmax (and any tie) is untouched
        responders, cheats = (0, 1, 2), (False, True, True)
        truth = {0: 0.7, 1: 0.3, 2: 0.35}
        for scale in (0.25, 0.5, 2.0, 1024.0):
            base = vote(responders, cheats, truth, make_stream(23).random)
            scaled = vote(
                responders, cheats, {k: v * scale for k, v in truth.items()},
                make_stream(23).random,
            )
            assert base == scaled


def payoffs_of(state, audited):
    """The payoffs of one round of ``state`` with the audit decision forced."""
    state.audit_prob = 1.0 if audited else 0.0
    _, _, _, responders, _, payoffs = one_round(state, make_stream(1))
    return dict(zip(responders, payoffs))


class TestPayoffs:
    def test_audited_cheater_without_punishment(self):
        master = make_state(WorkerType.MALICIOUS, select_n=1, policy=SelectionPolicy.FIXED_RANDOM)
        assert payoffs_of(master, audited=True) == {0: 0.0}

    def test_audited_cheater_with_punishment(self):
        payoffs = PayoffParams(punishment_WPc=0.5)
        master = make_state(WorkerType.MALICIOUS, select_n=1, payoffs=payoffs,
                            policy=SelectionPolicy.FIXED_RANDOM)
        assert payoffs_of(master, audited=True) == {0: -0.5}

    def test_audited_truthful_rewarded(self):
        master = make_state(WorkerType.ALTRUISTIC, select_n=1,
                            policy=SelectionPolicy.FIXED_RANDOM)
        assert payoffs_of(master, audited=True) == {0: 1.0}

    def test_unaudited_outside_accepted_group_gets_zero(self):
        master = make_state(WorkerType.ALTRUISTIC, WorkerType.MALICIOUS, select_n=2,
                            policy=SelectionPolicy.FIXED_RANDOM)
        master.truth[:] = [0.9, 0.4]  # the honest reply outweighs the cheat
        assert payoffs_of(master, audited=False) == {0: 1.0, 1: 0.0}


class TestUpdateAuditProb:
    # alpha_m = 0.1, tau = 0.5, audit_prob_min = 0.01
    params = MechanismParams(pool_size_N=9, select_n=5)

    def test_no_cheaters_decreases(self):
        # three responders of truthfulness 1, none caught
        assert update_audit_prob(0.5, 0.0, 3.0, self.params) == pytest.approx(0.45, abs=1e-12)

    def test_all_caught_increases(self):
        assert update_audit_prob(0.5, 2.0, 2.0, self.params) == pytest.approx(0.55, abs=1e-12)

    def test_clamped_at_minimum(self):
        assert update_audit_prob(0.05, 0.0, 2.0, self.params) == 0.01

    def test_zero_aggregate_truthfulness_escalates(self):
        # by a full alpha_m = 0.1; from 0.95 a full step and a half step
        # would both clamp to 1
        for before, after in [(0.95, 1.0), (0.5, 0.6)]:
            assert update_audit_prob(before, 0.0, 0.0, self.params) == after, before

    def test_never_exceeds_one(self):
        assert update_audit_prob(1.0, 2.0, 2.0, self.params) == 1.0


def test_audited_round_sums_held_truthfulness_left_to_right():
    # S_R of these four values is 2.632539682539682 added left to right and
    # 2.6325396825396825 correctly rounded (as math.fsum, or a compensated
    # sum, gives it), and the two lead to different audit probabilities;
    # S_F is the malicious worker's 11/12
    master = make_state(*(WorkerType.ALTRUISTIC,) * 2, WorkerType.MALICIOUS,
                        WorkerType.ALTRUISTIC, select_n=4, audit_prob=1.0,
                        policy=SelectionPolicy.FIXED_RANDOM)
    held = [4 / 9, 0.7, 11 / 12, 4 / 7]
    master.truth[:] = held
    audited, _, _, responders, cheats, _ = one_round(master, make_stream(1))
    assert audited and responders == [0, 1, 2, 3] and cheats == [False, False, True, False]
    assert master.audit_prob == 0.9848206210431113
    compensated = update_audit_prob(1.0, 11 / 12, math.fsum(held), master.params)
    assert compensated == 0.9848206210431112


class TestRound:
    def test_all_altruistic_audited_round(self):
        master = make_state(audit_prob=1.0)
        audited, accepted, _, responders, cheats, payoffs = one_round(master, make_stream(24))
        assert audited
        assert caught(audited, responders, cheats) == ()
        assert accepted is ReplyValue.CORRECT
        assert master.audit_prob == pytest.approx(0.95, abs=1e-12)
        assert all(p == 1.0 for p in payoffs)

    def test_all_malicious_unaudited_accepts_wrong(self):
        master = make_state(
            *[WorkerType.MALICIOUS] * 5, select_n=5, audit_prob=1e-12, audit_prob_min=1e-12,
            policy=SelectionPolicy.FIXED_RANDOM,
        )
        audited, accepted, *_ = one_round(master, make_stream(26))
        assert not audited
        assert accepted is ReplyValue.WRONG
        assert master.audit_prob == 1e-12

    def test_all_unavailable_accepts_none(self):
        master = make_state(
            *[WorkerType.MALICIOUS] * 5, select_n=5, audit_prob=1e-12, audit_prob_min=1e-12,
            policy=SelectionPolicy.FIXED_RANDOM, availability=1e-12,
        )
        _, accepted, _, responders, _, payoffs = one_round(master, make_stream(28))
        assert tuple(responders) == ()
        assert accepted is None
        assert dict(zip(responders, payoffs)) == {}

    def test_counter_deltas_per_round(self):
        master = make_state(
            WorkerType.ALTRUISTIC, WorkerType.ALTRUISTIC, WorkerType.MALICIOUS,
            WorkerType.RATIONAL, WorkerType.RATIONAL, WorkerType.MALICIOUS,
            WorkerType.ALTRUISTIC, WorkerType.RATIONAL, WorkerType.MALICIOUS,
            audit_prob=1.0, availability=0.7,
        )
        for column in COLUMNS:  # a streak to reset or extend
            getattr(master, column)[:] = [3] * 9
        before = {column: list(getattr(master, column)) for column in COLUMNS}
        audited, _, selected, responders, cheats, _ = one_round(master, make_stream(30))
        for i in range(9):
            delta = {column: getattr(master, column)[i] - before[column][i]
                     for column in COLUMNS}
            in_selected = i in selected
            in_responders = i in responders
            audited_i = in_responders and audited
            caught_i = i in caught(audited, responders, cheats)
            assert delta["selections"] == int(in_selected)
            assert delta["replies"] == int(in_responders)
            assert delta["audits"] == int(audited_i)
            assert delta["honest"] == int(audited_i and not caught_i)
            assert master.streak[i] == (0 if caught_i else 3 + int(audited_i))

    def test_unaudited_round_keeps_audit_prob(self):
        master = make_state(audit_prob=1e-12, audit_prob_min=1e-12)
        audited, *_ = one_round(master, make_stream(32))
        assert not audited
        assert master.audit_prob == 1e-12

    def test_per_worker_learning_rate_override(self):
        master = make_state(*[WorkerType.RATIONAL] * 9, audit_prob=1.0, learning_rate=0.05)
        audited, _, _, responders, cheats, payoffs = one_round(master, make_stream(41))
        for i, payoff in zip(responders, payoffs):
            if i in caught(audited, responders, cheats):
                expected = 0.5 + 0.05 * (payoff - 0.1)
            else:
                expected = 0.5 - 0.05 * (payoff - 0.1 - 0.1)
            assert master.cheat_prob[i] == pytest.approx(
                min(1.0, max(0.0, expected)), abs=1e-12
            )

    def test_rational_workers_update_only_when_they_responded(self):
        master = make_state(*[WorkerType.RATIONAL] * 9, audit_prob=1.0, availability=0.5)
        before = list(master.cheat_prob)
        responders = one_round(master, make_stream(34))[3]
        for i, p in enumerate(master.cheat_prob):
            if i in responders:
                assert p != before[i]
            else:
                assert p == before[i]
