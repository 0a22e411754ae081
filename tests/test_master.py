import numpy as np
import pytest

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
    select_top_n,
    update_audit_prob,
)
from repsim.model import make_stream

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
    seed=0,
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
    return RunState(ScenarioConfig(workers, payoffs, params), make_stream(seed))


def one_round(state, rng):
    """One round of ``play``: (audited, accepted value, selected, responders,
    cheat flags, payoffs)."""
    return next(play(state, rng))


def vote(responders, cheats, truth, rng):
    """The weighted vote's accepted value and rewarded group, as ``play``
    derives them: the group is the responders whose cheat flag equals
    whether WRONG won."""
    wrong = accept_by_weighted_majority(responders, cheats, truth, rng)
    group = tuple(i for i, cheated in zip(responders, cheats) if cheated == wrong)
    return (ReplyValue.WRONG if wrong else ReplyValue.CORRECT), group


def caught(audited, responders, cheats):
    return tuple(i for i, c in zip(responders, cheats) if c) if audited else ()


class TestSelection:
    def test_equal_reputations_select_uniformly(self):
        # round 1: every worker tied at the initial reputation; frequency n/N +/- 2%
        rng = make_stream(11)
        counts = np.zeros(9)
        trials = 10_000
        for _ in range(trials):
            for i in select_top_n(np.ones(9), 5, rng):
                counts[i] += 1
        freqs = counts / trials
        assert np.all(np.abs(freqs - 5 / 9) <= 0.02)

    def test_strict_argmax(self):
        rng = make_stream(12)
        for _ in range(50):
            assert select_top_n([-1.0, -1.0, -0.2, -0.1, -0.0], 2, rng) == [0, 1]

    def test_fixed_random_returns_same_set_every_round(self):
        master = make_state(policy=SelectionPolicy.FIXED_RANDOM, seed=13)
        rounds = play(master, make_stream(14))
        first = next(rounds)[2]
        assert len(first) == 5
        assert next(rounds)[2] == first
        assert master.fixed_selection == tuple(first)

    def test_reputation_selection_returns_n_sorted_ids(self):
        master = make_state(seed=15)
        picked = one_round(master, make_stream(16))[2]
        assert len(picked) == 5 == len(set(picked))
        assert picked == sorted(picked)


class TestDecideAudit:
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
        # a round of one fixed, always available altruist draws its
        # availability, then the audit decision, and nothing else
        for audit_prob in (1.0, 0.0):
            master = make_state(WorkerType.ALTRUISTIC, select_n=1, audit_prob=audit_prob,
                                policy=SelectionPolicy.FIXED_RANDOM)
            a, b = make_stream(19), make_stream(19)
            one_round(master, a)
            b.random()
            b.random()
            assert a.random() == b.random()


class TestWeightedMajority:
    def test_strict_maximum_group(self):
        truth = {0: 0.9, 1: 0.8, 2: 0.4}
        accepted, rewarded = vote((0, 1, 2), (False, False, True), truth, make_stream(20))
        assert accepted is ReplyValue.CORRECT
        assert rewarded == (0, 1)

    def test_all_zero_scores_tie_breaks_uniformly(self):
        truth = {0: 0.0, 1: 0.0}
        rng = make_stream(21)
        trials = 10_000
        correct = sum(
            vote((0, 1), (False, True), truth, rng)[0] is ReplyValue.CORRECT
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
            base = vote(responders, cheats, truth, make_stream(23))
            scaled = vote(
                responders, cheats, {k: v * scale for k, v in truth.items()}, make_stream(23)
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
    def test_no_cheaters_decreases(self):
        master = make_state()  # fresh LINEAR counters: truthfulness 1 everywhere
        assert update_audit_prob(master, [0, 1, 2], []) == pytest.approx(0.45, abs=1e-12)

    def test_all_caught_increases(self):
        master = make_state()
        assert update_audit_prob(master, [0, 1], [0, 1]) == pytest.approx(0.55, abs=1e-12)

    def test_clamped_at_minimum(self):
        master = make_state(audit_prob=0.05)
        assert update_audit_prob(master, [0, 1], []) == 0.01

    def test_zero_aggregate_truthfulness_escalates(self):
        master = make_state(reputation=ReputationType.BOINC, audit_prob=0.95)
        assert update_audit_prob(master, [0, 1, 2], []) == 1.0

    def test_never_exceeds_one(self):
        master = make_state(audit_prob=1.0)
        assert update_audit_prob(master, [0, 1], [0, 1]) == 1.0


class TestRunMasterRound:
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
            policy=SelectionPolicy.FIXED_RANDOM, seed=25,
        )
        audited, accepted, *_ = one_round(master, make_stream(26))
        assert not audited
        assert accepted is ReplyValue.WRONG
        assert master.audit_prob == 1e-12

    def test_all_unavailable_accepts_none(self):
        master = make_state(
            *[WorkerType.MALICIOUS] * 5, select_n=5, audit_prob=1e-12, audit_prob_min=1e-12,
            policy=SelectionPolicy.FIXED_RANDOM, availability=1e-12, seed=27,
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
            audit_prob=1.0, availability=0.7, seed=29,
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
        master = make_state(audit_prob=1e-12, audit_prob_min=1e-12, seed=31)
        audited, *_ = one_round(master, make_stream(32))
        assert not audited
        assert master.audit_prob == 1e-12

    def test_per_worker_learning_rate_override(self):
        master = make_state(*[WorkerType.RATIONAL] * 9, audit_prob=1.0, learning_rate=0.05,
                            seed=40)
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
        master = make_state(*[WorkerType.RATIONAL] * 9, audit_prob=1.0, availability=0.5,
                            seed=33)
        before = list(master.cheat_prob)
        responders = one_round(master, make_stream(34))[3]
        for i, p in enumerate(master.cheat_prob):
            if i in responders:
                assert p != before[i]
            else:
                assert p == before[i]
