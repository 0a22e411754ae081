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
    assign_payoffs,
    decide_audit,
    run_master_round,
    select_top_n,
    select_workers,
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
    return RunState(ScenarioConfig(workers, PAYOFFS, params), make_stream(seed))


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
        rng = make_stream(14)
        first = select_workers(master, rng)
        assert len(first) == 5
        assert select_workers(master, rng) == first
        assert master.fixed_selection == tuple(first)

    def test_reputation_selection_returns_n_sorted_ids(self):
        master = make_state(seed=15)
        rng = make_stream(16)
        picked = select_workers(master, rng)
        assert len(picked) == 5 == len(set(picked))
        assert picked == sorted(picked)


class TestDecideAudit:
    def test_certain_audit(self):
        master = make_state(audit_prob=1.0)
        rng = make_stream(17)
        assert all(decide_audit(master, rng) for _ in range(100))

    def test_minimum_audit_rate(self):
        master = make_state(audit_prob=0.01)
        rng = make_stream(18)
        freq = np.mean([decide_audit(master, rng) for _ in range(100_000)])
        assert 0.007 <= freq <= 0.013

    def test_consumes_exactly_one_draw(self):
        master = make_state()
        a, b = make_stream(19), make_stream(19)
        decide_audit(master, a)
        b.random()
        assert a.random() == b.random()


class TestWeightedMajority:
    def test_strict_maximum_group(self):
        truth = {0: 0.9, 1: 0.8, 2: 0.4}
        accepted, rewarded = accept_by_weighted_majority(
            (0, 1, 2), (False, False, True), truth, make_stream(20)
        )
        assert accepted is ReplyValue.CORRECT
        assert rewarded == (0, 1)

    def test_all_zero_scores_tie_breaks_uniformly(self):
        truth = {0: 0.0, 1: 0.0}
        rng = make_stream(21)
        trials = 10_000
        correct = sum(
            accept_by_weighted_majority((0, 1), (False, True), truth, rng)[0]
            is ReplyValue.CORRECT
            for _ in range(trials)
        )
        assert abs(correct / trials - 0.5) <= 0.02

    def test_no_replies(self):
        accepted, rewarded = accept_by_weighted_majority((), (), {}, make_stream(22))
        assert accepted is None
        assert rewarded == ()

    def test_scaling_truth_scores_preserves_accepted_group(self):
        # multiplying every score by a power of two is exact in floats, so the
        # argmax (and any tie) is untouched
        responders, cheats = (0, 1, 2), (False, True, True)
        truth = {0: 0.7, 1: 0.3, 2: 0.35}
        for scale in (0.25, 0.5, 2.0, 1024.0):
            base = accept_by_weighted_majority(responders, cheats, truth, make_stream(23))
            scaled = accept_by_weighted_majority(
                responders, cheats, {k: v * scale for k, v in truth.items()}, make_stream(23)
            )
            assert base == scaled


class TestPayoffs:
    def test_audited_cheater_without_punishment(self):
        assert assign_payoffs(True, (0,), (True,), (), PAYOFFS) == {0: 0.0}

    def test_audited_cheater_with_punishment(self):
        payoffs = PayoffParams(punishment_WPc=0.5)
        assert assign_payoffs(True, (0,), (True,), (), payoffs) == {0: -0.5}

    def test_audited_truthful_rewarded(self):
        assert assign_payoffs(True, (0,), (False,), (), PAYOFFS) == {0: 1.0}

    def test_unaudited_outside_accepted_group_gets_zero(self):
        payoffs = assign_payoffs(False, (0, 1), (False, True), (0,), PAYOFFS)
        assert payoffs == {0: 1.0, 1: 0.0}


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
        outcome = run_master_round(master, make_stream(24))
        assert outcome.audited
        assert outcome.cheaters_caught == ()
        assert outcome.accepted_value is ReplyValue.CORRECT
        assert outcome.audit_prob_after == pytest.approx(0.95, abs=1e-12)
        assert all(p == 1.0 for p in outcome.payoffs.values())

    def test_all_malicious_unaudited_accepts_wrong(self):
        master = make_state(
            *[WorkerType.MALICIOUS] * 5, select_n=5, audit_prob=1e-12, audit_prob_min=1e-12,
            policy=SelectionPolicy.FIXED_RANDOM, seed=25,
        )
        outcome = run_master_round(master, make_stream(26))
        assert not outcome.audited
        assert outcome.accepted_value is ReplyValue.WRONG
        assert outcome.audit_prob_after == 1e-12

    def test_all_unavailable_accepts_none(self):
        master = make_state(
            *[WorkerType.MALICIOUS] * 5, select_n=5, audit_prob=1e-12, audit_prob_min=1e-12,
            policy=SelectionPolicy.FIXED_RANDOM, availability=1e-12, seed=27,
        )
        outcome = run_master_round(master, make_stream(28))
        assert outcome.responders == ()
        assert outcome.accepted_value is None
        assert outcome.payoffs == {}

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
        outcome = run_master_round(master, make_stream(30))
        for i in range(9):
            delta = {column: getattr(master, column)[i] - before[column][i]
                     for column in COLUMNS}
            in_selected = i in outcome.selected
            in_responders = i in outcome.responders
            audited = in_responders and outcome.audited
            caught = i in outcome.cheaters_caught
            assert delta["selections"] == int(in_selected)
            assert delta["replies"] == int(in_responders)
            assert delta["audits"] == int(audited)
            assert delta["honest"] == int(audited and not caught)
            assert master.streak[i] == (0 if caught else 3 + int(audited))

    def test_unaudited_round_keeps_audit_prob(self):
        master = make_state(audit_prob=1e-12, audit_prob_min=1e-12, seed=31)
        outcome = run_master_round(master, make_stream(32))
        assert not outcome.audited
        assert outcome.audit_prob_after == 1e-12

    def test_per_worker_learning_rate_override(self):
        master = make_state(*[WorkerType.RATIONAL] * 9, audit_prob=1.0, learning_rate=0.05,
                            seed=40)
        outcome = run_master_round(master, make_stream(41))
        for i in outcome.responders:
            payoff = outcome.payoffs[i]
            if i in outcome.cheaters_caught:
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
        outcome = run_master_round(master, make_stream(34))
        for i, p in enumerate(master.cheat_prob):
            if i in outcome.responders:
                assert p != before[i]
            else:
                assert p == before[i]
