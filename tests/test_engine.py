import math
import os
import pickle
import random
import statistics
from dataclasses import FrozenInstanceError, astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repsim import (
    ReplyValue,
    ReputationType,
    SelectionPolicy,
    Verdict,
    WorkerType,
    check_theorem_1,
    check_theorem_2,
    run_batch,
    run_single,
)
from repsim import engine
from repsim.engine import METRICS, RunMetrics, aggregate_metrics
from repsim.scenarios import build_scenario, list_scenarios, make_config


def all_malicious_frozen(max_rounds=2_000, runs=1):
    return make_config(
        [(5, WorkerType.MALICIOUS, 1.0)],
        select_n=5,
        selection_policy=SelectionPolicy.FIXED_RANDOM,
        max_rounds=max_rounds,
        num_instantiations=runs,
    )


class TestRunSingle:
    def test_s1_audit_counts(self):
        cfg = build_scenario("S1")
        _, m = run_single(cfg, 1, keep_records=False)
        assert m.audits_to_convergence == 10
        assert m.incorrect_before_convergence == 0
        assert m.incorrect_after_convergence == 0
        assert not m.eventual_correctness_violated

        cfg = build_scenario("S1", audit_prob_initial=1.0)
        _, m = run_single(cfg, 1, keep_records=False)
        assert m.audits_to_convergence == 20

    def test_same_seed_identical_round_stream(self):
        cfg = build_scenario("S6", post_convergence_horizon=50)
        a_records, a_metrics = run_single(cfg, 77)
        b_records, b_metrics = run_single(cfg, 77)
        assert a_metrics == b_metrics
        assert a_records == b_records

    @pytest.mark.parametrize("reputation", [t.value for t in ReputationType])
    @pytest.mark.parametrize("preset", [p.name for p in list_scenarios()])
    def test_keep_records_off_same_metrics(self, preset, reputation):
        # the rounds are recorded on a branch of their own: keeping records,
        # observing and neither must not change what a run measures
        cfg = build_scenario(preset, reputation_type=reputation, post_convergence_horizon=50)
        records, with_records = run_single(cfg, 5)
        seen = []
        observed_kept, observed = run_single(cfg, 5, keep_records=False, observer=seen.append)
        none_kept, without = run_single(cfg, 5, keep_records=False)
        assert none_kept == observed_kept == []
        assert with_records == without == observed
        assert len(seen) == len(records) == with_records.convergence_round + 50

    def test_observer_sees_each_round_as_recorded(self):
        cfg = build_scenario("S5", reputation_type="boinc", post_convergence_horizon=50)
        seen = []
        none_kept, metrics = run_single(cfg, 9, keep_records=False, observer=seen.append)
        records, same = run_single(cfg, 9)
        assert none_kept == [] and metrics == same
        assert seen == records

    def test_round_stream_invariants(self):
        cfg = build_scenario("S6", post_convergence_horizon=100)
        records, m = run_single(cfg, 13)
        p_min = cfg.mechanism.audit_prob_min
        prev_after = cfg.mechanism.audit_prob_initial
        for rec in records:
            o = rec.outcome
            assert set(o.cheaters_caught) <= set(o.responders) <= set(o.selected)
            assert len(o.selected) == cfg.mechanism.select_n
            if o.audited:
                assert o.accepted_value is ReplyValue.CORRECT
            else:
                assert o.audit_prob_after == rec.audit_prob_before
                if not o.responders:
                    assert o.accepted_value is None
            assert p_min <= o.audit_prob_after <= 1.0
            assert rec.audit_prob_before == prev_after
            prev_after = o.audit_prob_after

        assert records[m.convergence_round - 1].audit_prob_after == p_min
        audits = sum(1 for rec in records[: m.convergence_round] if rec.outcome.audited)
        assert audits == m.audits_to_convergence

    def test_frozen_malicious_pool_never_converges_and_violates(self):
        cfg = all_malicious_frozen()
        records, m = run_single(cfg, 3)
        assert m.not_converged
        assert m.eventual_correctness_violated
        assert len(records) == cfg.max_rounds
        # incorrect results accepted exactly on unaudited rounds (d=1)
        unaudited = [r for r in records if not r.outcome.audited]
        wrong = [r for r in records if r.outcome.accepted_value is ReplyValue.WRONG]
        assert len(unaudited) == len(wrong) == m.incorrect_before_convergence

    def test_invalid_config_raises(self):
        cfg = make_config([(5, WorkerType.ALTRUISTIC, 1.0)], select_n=5,
                          selection_policy=SelectionPolicy.REPUTATION)
        with pytest.raises(ValueError, match="select_n"):
            run_single(cfg, 0)


class TestRunBatch:
    def test_single_instantiation_stats(self):
        cfg = build_scenario("S1", num_instantiations=1, post_convergence_horizon=50)
        batch = run_batch(cfg)
        _, m = run_single(cfg, cfg.seed_for(0), keep_records=False)
        assert batch.runs == (m,)
        stats = batch.aggregate.metrics
        assert stats["audits_to_convergence"].mean == m.audits_to_convergence
        assert stats["audits_to_convergence"].std == 0.0
        assert stats["convergence_round"].median == m.convergence_round

    def test_same_base_seed_identical_aggregate(self):
        cfg = build_scenario("S3", num_instantiations=10, post_convergence_horizon=50)
        assert run_batch(cfg) == run_batch(cfg)

    def test_s1_audit_count_is_seed_independent(self):
        cfg = build_scenario("S1", num_instantiations=20, post_convergence_horizon=50)
        batch = run_batch(cfg)
        stats = batch.aggregate.metrics["audits_to_convergence"]
        assert stats.mean == 10.0
        assert stats.std == 0.0

    def test_batch_validates_its_config_once(self, monkeypatch):
        # run_batch checks its config once, in this process: pool processes
        # forked from it inherit the wrapper, which raises there. run_single
        # checks on every call, the same object twice in a row included.
        calls, pid = [], os.getpid()
        validate = engine.validate_config

        def counted(config):
            assert os.getpid() == pid, "a pool process validated the config"
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(engine, "validate_config", counted)
        cfg = build_scenario("S1", num_instantiations=3, post_convergence_horizon=5)
        for parallel in (1, 2):
            calls.clear()
            run_batch(cfg, parallel=parallel)
            assert calls == [cfg]
        for _ in range(2):
            run_single(cfg, 0, keep_records=False)
        assert calls == [cfg] * 3
        bad = make_config([(5, WorkerType.ALTRUISTIC, 1.0)], select_n=5,
                          selection_policy=SelectionPolicy.REPUTATION)
        for _ in range(2):
            with pytest.raises(ValueError, match="select_n"):
                run_single(bad, 0)
        assert len(calls) == 5

    def test_parallel_matches_sequential(self):
        cfg = build_scenario("S6", num_instantiations=6, post_convergence_horizon=30)
        assert run_batch(cfg, parallel=2).runs == run_batch(cfg).runs

    def test_not_converged_tallied_separately(self):
        cfg = all_malicious_frozen(max_rounds=300, runs=4)
        batch = run_batch(cfg)
        assert batch.aggregate.not_converged_count == 4
        assert batch.aggregate.converged_count == 0
        assert batch.aggregate.metrics == {}
        assert all(m.incorrect_after_convergence == 0 for m in batch.runs)


RUN_METRICS = st.builds(
    RunMetrics,
    seed=st.integers(0, 2**32),
    convergence_round=st.none() | st.integers(1, 10**6),
    audits_to_convergence=st.integers(0, 10**6),
    incorrect_before_convergence=st.integers(0, 10**6),
    incorrect_after_convergence=st.integers(0, 10**3),
    empty_rounds_after_convergence=st.integers(0, 10**3),
)


@given(RUN_METRICS)
def test_run_metrics_pickle_round_trip(metrics):
    # pool processes send each run's RunMetrics back pickled: every protocol
    # restores it, and it stays a frozen instance without a __dict__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(metrics, protocol))
        assert type(back) is RunMetrics and back == metrics
    assert not hasattr(metrics, "__dict__")
    with pytest.raises(FrozenInstanceError):
        metrics.seed = 0


def seeded_runs(count, seed):
    """``count`` runs with varied metrics, some never converged."""
    rng = random.Random(seed)
    return [RunMetrics(k, rng.choice([None, *range(1, 10**6, 997)]), rng.randrange(10**6),
                       rng.randrange(10**6), rng.randrange(10**3), rng.randrange(10**3))
            for k in range(count)]


# The seeded examples pass 128 values, above which numpy sums in recursive
# halves: the exact sums must still give its mean bit for bit.
@settings(max_examples=300, deadline=None)
@given(st.lists(RUN_METRICS, max_size=50))
@example([])
@example([RunMetrics(1, None, 3, 2, 0, 0), RunMetrics(2, None, 0, 0, 0, 0)])
@example([RunMetrics(7, 12, 10, 1, 0, 2)])
# convergence rounds 1, 1, 14: numpy's two-pass std is 0x1.88356445f2b74p+2,
# the correctly rounded one 0x1.88356445f2b73p+2
@example([RunMetrics(1, 1, 0, 0, 0, 0), RunMetrics(2, 1, 0, 0, 0, 0),
          RunMetrics(3, 14, 0, 0, 0, 0)])
@example(seeded_runs(129, 1))
@example(seeded_runs(300, 2))
@example(seeded_runs(1_100, 3))
@example(seeded_runs(9_000, 4))
def test_aggregate_metrics_matches_per_column_reference(runs):
    # every field, bit for bit, on each metric column of the converged runs:
    # against numpy, and the standard deviation against the square root of
    # the stdlib's exact (rational) population variance
    agg = aggregate_metrics(runs)
    converged = [m for m in runs if m.convergence_round is not None]
    assert agg.converged_count == len(converged)
    assert agg.not_converged_count == len(runs) - len(converged)
    assert agg.violated_count == sum(
        m.convergence_round is None
        or m.incorrect_after_convergence > 0
        or m.empty_rounds_after_convergence > 0
        for m in runs
    )
    if not converged:
        assert agg.metrics == {}
        return
    assert list(agg.metrics) == [name for name, _ in METRICS]
    for name, attr in METRICS:
        column = [getattr(m, attr) for m in converged]
        col = np.array(column, dtype=float)
        reference = (col.min(), col.max(), col.mean(), np.median(col),
                     math.sqrt(statistics.pvariance(column)),
                     np.percentile(col, 25), np.percentile(col, 75))
        summary = astuple(agg.metrics[name])
        assert [float(v).hex() for v in summary] == [float(v).hex() for v in reference], name


class TestTheoremChecks:
    def test_theorem_1_passes_on_s3(self):
        cfg = build_scenario("S3", num_instantiations=20, post_convergence_horizon=200)
        report = check_theorem_1(cfg)
        assert report.verdict is Verdict.PASS
        assert report.converged_runs == 20
        assert report.violating_runs == 0

    def test_theorem_1_passes_trivially_on_all_altruistic_pool(self):
        cfg = build_scenario("S1", num_instantiations=10, post_convergence_horizon=100)
        assert check_theorem_1(cfg).verdict is Verdict.PASS

    def test_theorem_1_inapplicable_with_rational_workers(self):
        cfg = build_scenario("S4", num_instantiations=5)
        assert check_theorem_1(cfg).verdict is Verdict.INAPPLICABLE

    def test_theorem_1_inapplicable_without_full_availability_altruist(self):
        cfg = make_config([(9, WorkerType.ALTRUISTIC, 0.5)], num_instantiations=5)
        assert check_theorem_1(cfg).verdict is Verdict.INAPPLICABLE

    def test_theorem_1_inapplicable_under_boinc(self):
        cfg = build_scenario("S3", reputation_type="boinc", num_instantiations=5)
        assert check_theorem_1(cfg).verdict is Verdict.INAPPLICABLE

    def test_theorem_2_requires_boinc(self):
        cfg = build_scenario("S2", num_instantiations=5)  # linear
        assert check_theorem_2(cfg).verdict is Verdict.INAPPLICABLE

    def test_theorem_2_forward_direction(self):
        cfg = make_config(
            [(1, WorkerType.ALTRUISTIC, 1.0), (4, WorkerType.ALTRUISTIC, 0.5),
             (4, WorkerType.MALICIOUS, 0.5)],
            reputation_type="boinc",
            num_instantiations=20,
            post_convergence_horizon=200,
        )
        report = check_theorem_2(cfg)
        assert report.verdict is Verdict.PASS
        assert report.violating_runs == 0

    def test_theorem_2_reverse_direction_reports_fraction(self):
        cfg = build_scenario("S2", reputation_type="boinc", num_instantiations=20,
                             post_convergence_horizon=100)
        report = check_theorem_2(cfg)
        # violation is possible but not certain: the report documents the
        # observed fraction either way
        assert report.converged_runs > 0
        assert "positive probability" in report.reason
        assert 0.0 <= report.violating_fraction <= 1.0


class TestFullAvailabilityRequirement:
    def test_pool_without_fully_available_worker_keeps_violating(self):
        # with nobody at availability 1, post-convergence empty rounds keep a
        # positive per-round probability, so the long-run property fails
        cfg = make_config(
            [(9, WorkerType.ALTRUISTIC, 0.5)],
            num_instantiations=10,
            post_convergence_horizon=500,
        )
        batch = run_batch(cfg)
        converged = [m for m in batch.runs if not m.not_converged]
        assert converged
        assert all(m.empty_rounds_after_convergence > 0 for m in converged)
        assert all(m.eventual_correctness_violated for m in converged)


class TestReinforcementDirection:
    def test_s4_selected_workers_end_honest(self):
        for seed_offset in range(3):
            cfg = build_scenario("S4")
            records, m = run_single(cfg, cfg.seed_for(seed_offset))
            assert not m.not_converged
            final = records[-1]
            assert all(s.cheat_prob == 0.0 for s in final.snapshots)

    def test_s4_mean_cheat_prob_trend(self):
        cfg = build_scenario("S4")
        records, _ = run_single(cfg, 8)
        # trailing-window means of selected workers' cheating probability must
        # not increase once the audit controller has settled
        window = 50
        means = [
            sum(s.cheat_prob for r in records[i:i + window] for s in r.snapshots)
            / sum(len(r.snapshots) for r in records[i:i + window])
            for i in range(len(records) - window, len(records) - window - 200, -window)
        ]
        means.reverse()
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


class TestTheorem2Witness:
    SEARCH = 3000

    def test_s2_boinc_first_violating_seed_has_empty_rounds_after_convergence(self):
        # Theorem 2 case (b): with n or more partially available altruists, a
        # violation has positive probability. The witness is the first
        # violating S2/BOINC seed. Between 1 run in 600 and 1 in 375 violates
        # (5 and 8 of 3 000 seeds at horizon 500, measured on two random
        # streams), so a search of 3 000 seeds misses every witness with
        # probability at most about (1 - 1/600)**3000, near e**-5 (0.7 %).
        # On a witness the d=1 altruist (worker 0) drops out of the frozen top
        # n, and every post-convergence round in which all selected d=0.5
        # workers are away accepts nothing.
        cfg = build_scenario("S2", reputation_type="boinc", post_convergence_horizon=500)
        seed = next((cfg.seed_for(k) for k in range(self.SEARCH)
                     if run_single(cfg, cfg.seed_for(k), keep_records=False)[1]
                     .eventual_correctness_violated), None)
        assert seed is not None, f"no violating seed among the first {self.SEARCH}"
        records, m = run_single(cfg, seed)
        assert m.convergence_round is not None
        assert m.empty_rounds_after_convergence > 0
        assert m.incorrect_after_convergence == 0
        availability = {w.worker_id: w.availability for w in cfg.workers}
        assert availability[0] == 1.0
        empty = [r for r in records[m.convergence_round:] if r.outcome.accepted_value is None]
        assert len(empty) == m.empty_rounds_after_convergence
        for rec in empty:
            assert 0 not in rec.outcome.selected
            assert all(availability[i] == 0.5 for i in rec.outcome.selected)
