"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The deterministic criteria assert exact values; the statistical ones assert
the frozen tolerances stated alongside each check. Stated runtime budgets are
asserted too (all have an order of magnitude of headroom on a laptop-class
machine).
"""

import time
from contextlib import contextmanager

import pytest

from repsim import (
    MechanismParams,
    PayoffParams,
    ReplyValue,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    Verdict,
    WorkerSpec,
    WorkerType,
    check_theorem_1,
    check_theorem_2,
    run_batch,
    run_single,
)
from repsim.cli import emit_results
from repsim.master import RunState, accept_by_weighted_majority, play, update_audit_prob
from repsim.model import make_stream
from repsim.reputation import responsiveness, truthfulness
from repsim.scenarios import build_scenario, make_config
from repsim.worker import update_cheat_prob

L, E, B = ReputationType.LINEAR, ReputationType.EXPONENTIAL, ReputationType.BOINC
EXACT = 1e-12


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    info: dict = {}
    try:
        yield info
    except Exception:
        print(f"\nACCEPTANCE C{number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    note = f" | {info['note']}" if "note" in info else ""
    line = f"\nACCEPTANCE C{number} {name}: "
    if elapsed >= budget_s:
        print(line + f"FAIL (runtime {elapsed:.1f}s over budget {budget_s:.0f}s)")
        pytest.fail(f"criterion {number} exceeded runtime budget")
    print(line + f"PASS ({elapsed:.1f}s, budget {budget_s:.0f}s){note}")


def state(worker_type, n_pool=9, select_n=5, audit_prob=0.5, reputation=L, payoffs=PayoffParams(),
          policy=SelectionPolicy.REPUTATION):
    workers = tuple(WorkerSpec(i, worker_type) for i in range(n_pool))
    params = MechanismParams(
        pool_size_N=n_pool, select_n=select_n, audit_prob_initial=audit_prob,
        reputation_type=reputation, selection_policy=policy,
    )
    return RunState(ScenarioConfig(workers, payoffs, params), make_stream(0))


def counters(run_state):
    return (run_state.selections[0], run_state.replies[0], run_state.audits[0],
            run_state.honest[0], run_state.streak[0])


def test_c1_formula_unit_suite():
    with criterion(1, "formula-unit-suite", budget_s=1.0):
        # responsiveness (replies, selections)
        assert responsiveness(0, 0) == 1.0
        assert abs(responsiveness(2, 4) - 0.6) < EXACT
        assert responsiveness(10, 10) == 1.0

        # truthfulness (type, audits, honest audits, streak), all three types
        assert abs(truthfulness(L, 4, 3, 0) - 0.8) < EXACT
        assert abs(truthfulness(E, 5, 3, 0, 0.5) - 0.25) < EXACT
        assert truthfulness(B, 9, 9, 9) == 0.0
        assert abs(truthfulness(B, 10, 10, 10) - 0.9) < EXACT
        assert truthfulness(L, 0, 0, 0) == 1.0
        assert truthfulness(E, 0, 0, 0, 0.5) == 1.0
        assert truthfulness(B, 0, 0, 0) == 0.0

        # combined reputation: selection ranks responsiveness x truthfulness
        fresh = state(WorkerType.ALTRUISTIC)
        assert all(r * t == 1.0 for r, t in zip(fresh.resp, fresh.truth))
        fresh = state(WorkerType.ALTRUISTIC, reputation=B)
        assert all(r * t == 0.0 for r, t in zip(fresh.resp, fresh.truth))
        assert abs(responsiveness(2, 4) * truthfulness(L, 4, 3, 0) - 0.48) < EXACT

        # counter operations, through one round of a single selected worker
        one = state(WorkerType.ALTRUISTIC, n_pool=1, select_n=1, audit_prob=1.0,
                    policy=SelectionPolicy.FIXED_RANDOM)
        next(play(one, make_stream(3)))
        assert counters(one) == (1, 1, 1, 1, 1)
        one = state(WorkerType.MALICIOUS, n_pool=1, select_n=1, audit_prob=1.0,
                    policy=SelectionPolicy.FIXED_RANDOM)
        one.selections[0], one.replies[0], one.audits[0], one.honest[0], one.streak[0] = (
            30, 30, 25, 23, 23
        )
        next(play(one, make_stream(4)))
        assert counters(one) == (31, 31, 26, 23, 0)

        # rational worker learning updates (shared parameterization)
        payoffs = PayoffParams(punishment_WPc=0.0, task_cost_WCt=0.1, reward_WBy=1.0)

        def updated(p0, payoff, did_cheat):
            return update_cheat_prob(p0, payoff, did_cheat, 0.1, payoffs.task_cost_WCt, 0.1)

        assert abs(updated(0.5, 1.0, True) - 0.59) < EXACT
        assert abs(updated(0.5, 1.0, False) - 0.42) < EXACT
        assert abs(updated(0.5, 0.0, True) - 0.49) < EXACT
        assert updated(0.01, 1.0, False) == 0.0

        # audit-probability controller
        def master(audit_prob, reputation=L):
            return state(WorkerType.ALTRUISTIC, audit_prob=audit_prob, reputation=reputation,
                         payoffs=payoffs)

        assert abs(update_audit_prob(master(0.5), [0, 1, 2], []) - 0.45) < EXACT
        assert abs(update_audit_prob(master(0.5), [0, 1], [0, 1]) - 0.55) < EXACT
        assert update_audit_prob(master(0.05), [0, 1], []) == 0.01
        assert update_audit_prob(master(0.95, reputation=B), [0, 1, 2], []) == 1.0

        # weighted majority and payoff assignment, through one round of a
        # fixed pool whose replies and audit decision are forced
        def one_round(worker_type, n_pool, audited, replied=True, cheat_prob=None, truth=None):
            fixed = state(worker_type, n_pool=n_pool, select_n=n_pool, payoffs=payoffs,
                          audit_prob=1.0 if audited else 0.0,
                          policy=SelectionPolicy.FIXED_RANDOM)
            fixed.availability[:] = [1.0 if replied else 0.0] * n_pool
            if cheat_prob is not None:
                fixed.cheat_prob[:] = cheat_prob
            if truth is not None:
                fixed.truth[:] = truth
            _, accepted, _, responders, cheats, pays = next(play(fixed, make_stream(1)))
            rewarded = tuple(i for i, p in zip(responders, pays) if p == payoffs.reward_WBy)
            return accepted, rewarded, dict(zip(responders, pays))

        responders, cheats = (0, 1, 2), (False, False, True)
        truth = [0.9, 0.8, 0.4]
        assert not accept_by_weighted_majority(responders, cheats, truth, make_stream(1))
        accepted, rewarded, paid = one_round(WorkerType.ALTRUISTIC, 3, audited=False,
                                             cheat_prob=[0.0, 0.0, 1.0], truth=truth)
        assert accepted is ReplyValue.CORRECT and rewarded == (0, 1)
        assert paid == {0: 1.0, 1: 1.0, 2: 0.0}
        assert one_round(WorkerType.ALTRUISTIC, 3, audited=False, replied=False) == (None, (), {})
        assert one_round(WorkerType.MALICIOUS, 1, audited=True)[2] == {0: 0.0}
        assert one_round(WorkerType.ALTRUISTIC, 1, audited=True)[2] == {0: 1.0}


def test_c2_deterministic_audit_count_law():
    with criterion(2, "deterministic-audit-count-law", budget_s=5.0) as info:
        expected = {0.5: 10, 1.0: 20}
        for pa_init, audit_count in expected.items():
            cfg = build_scenario("S1", audit_prob_initial=pa_init)
            batch = run_batch(cfg)
            counts = {m.audits_to_convergence for m in batch.runs}
            assert counts == {audit_count}, (pa_init, counts)
            assert batch.aggregate.metrics["audits_to_convergence"].std == 0.0
            assert all(m.incorrect_before_convergence == 0 for m in batch.runs)
            assert all(m.incorrect_after_convergence == 0 for m in batch.runs)
            assert batch.aggregate.not_converged_count == 0
        info["note"] = "audits: 10 @ pa=0.5, 20 @ pa=1.0, zero variance over 100 seeds"


def test_c3_theorem_1_property_suite():
    with criterion(3, "theorem-1-property-suite", budget_s=120.0) as info:
        pools = {
            "S3": [(1, WorkerType.ALTRUISTIC, 1.0), (8, WorkerType.MALICIOUS, 0.5)],
            "1alt+8mal(d=1)": [(1, WorkerType.ALTRUISTIC, 1.0), (8, WorkerType.MALICIOUS, 1.0)],
        }
        checked = []
        for pool_name, groups in pools.items():
            for rep in (L, E):
                for pa_init in (0.5, 1.0):
                    cfg = make_config(
                        groups, reputation_type=rep, audit_prob_initial=pa_init,
                        post_convergence_horizon=500,
                    )
                    report = check_theorem_1(cfg)
                    assert report.verdict is Verdict.PASS, (pool_name, rep, pa_init, report)
                    assert report.violating_runs == 0
                    assert report.converged_runs == 100
                    checked.append((pool_name, rep.value, pa_init))
        info["note"] = f"{len(checked)} configs x 100 seeds, all violation-free"


def test_c4_theorem_2_directionality():
    with criterion(4, "theorem-2-directionality", budget_s=180.0) as info:
        guaranteed = make_config(
            [(1, WorkerType.ALTRUISTIC, 1.0), (4, WorkerType.ALTRUISTIC, 0.5),
             (4, WorkerType.MALICIOUS, 0.5)],
            reputation_type=B, num_instantiations=200, post_convergence_horizon=500,
        )
        report_a = check_theorem_2(guaranteed)
        assert report_a.verdict is Verdict.PASS
        assert report_a.violating_fraction == 0.0

        # the reverse direction only promises a positive probability of
        # violation; the observed fraction is documented, not asserted
        unguaranteed = build_scenario(
            "S2", reputation_type=B, num_instantiations=200, post_convergence_horizon=500,
        )
        report_b = check_theorem_2(unguaranteed)
        info["note"] = (
            f"(a) 0/{report_a.converged_runs} violations; "
            f"(b) S2 violating fraction {report_b.violating_runs}/{report_b.converged_runs}"
        )


def test_c5_frozen_selection_exhibit():
    with criterion(5, "frozen-selection-exhibit", budget_s=10.0) as info:
        cfg = make_config(
            [(5, WorkerType.MALICIOUS, 1.0)], select_n=5,
            selection_policy=SelectionPolicy.FIXED_RANDOM,
            audit_prob_initial=0.5, max_rounds=10_000, num_instantiations=1,
        )
        records, metrics = run_single(cfg, cfg.seed_for(0))
        assert len(records) == 10_000
        unaudited = [r for r in records if not r.outcome.audited]
        wrong = [r for r in unaudited if r.outcome.accepted_value is ReplyValue.WRONG]
        assert unaudited, "exhibit needs at least one unaudited round"
        fraction = len(wrong) / len(unaudited)
        assert abs(fraction - 1.0) <= 0.02
        assert metrics.eventual_correctness_violated
        info["note"] = (
            f"{len(wrong)}/{len(unaudited)} unaudited rounds accepted WRONG; "
            "run never left the always-audit regime"
        )


def test_c6_pool_size_trend():
    with criterion(6, "pool-size-trend", budget_s=900.0) as info:
        medians: dict[tuple[str, str], float] = {}
        for rep in (L, E, B):
            for name in ("p5-r1m8", "p9-r1m8", "p99-r1m8"):
                cfg = build_scenario(
                    name, reputation_type=rep, audit_prob_initial=0.5,
                    post_convergence_horizon=50,
                )
                batch = run_batch(cfg)
                assert batch.aggregate.not_converged_count == 0
                medians[(rep.value, name)] = batch.aggregate.metrics["convergence_round"].median
        for rep in (E, B):
            p5 = medians[(rep.value, "p5-r1m8")]
            p9 = medians[(rep.value, "p9-r1m8")]
            p99 = medians[(rep.value, "p99-r1m8")]
            assert p99 > p5, (rep, p5, p99)
            assert p99 > p9, (rep, p9, p99)
        lin_p5 = medians[("LINEAR", "p5-r1m8")]
        lin_p99 = medians[("LINEAR", "p99-r1m8")]
        assert lin_p5 / 2 <= lin_p99 <= lin_p5 * 2
        info["note"] = "; ".join(
            f"{rep}: p5={medians[(rep, 'p5-r1m8')]:g} p9={medians[(rep, 'p9-r1m8')]:g} "
            f"p99={medians[(rep, 'p99-r1m8')]:g}"
            for rep in ("LINEAR", "EXPONENTIAL", "BOINC")
        )


def test_c7_rational_reinforcement():
    with criterion(7, "rational-reinforcement", budget_s=300.0) as info:
        notes = []
        for rep in (L, E, B):
            cfg = build_scenario("S4", reputation_type=rep)
            for k in range(100):
                records, metrics = run_single(cfg, cfg.seed_for(k))
                assert not metrics.not_converged, (rep, k)
                final = records[-1]
                assert all(s.cheat_prob == 0.0 for s in final.snapshots), (rep, k)
                assert not any(
                    r.outcome.accepted_value is ReplyValue.WRONG for r in records[-100:]
                ), (rep, k)

            cfg = build_scenario("S5", reputation_type=rep)
            converged = wrong_free = strict_clean = 0
            for k in range(100):
                records, metrics = run_single(cfg, cfg.seed_for(k))
                if metrics.not_converged:
                    continue
                converged += 1
                tail = records[-100:]
                if not any(r.outcome.accepted_value is ReplyValue.WRONG for r in tail):
                    wrong_free += 1
                if all(r.outcome.accepted_value is ReplyValue.CORRECT for r in tail):
                    strict_clean += 1
            assert converged > 0
            # the tail must be free of accepted-WRONG rounds; occasional empty
            # rounds can persist when the fully available worker is outranked
            assert wrong_free / converged >= 0.90, (rep, wrong_free, converged)
            notes.append(
                f"{rep.value}: S5 wrong-free {wrong_free}/{converged} "
                f"(strict incl. empty rounds {strict_clean}/{converged})"
            )
        info["note"] = "; ".join(notes)


def test_c8_reproducibility(tmp_path):
    with criterion(8, "byte-identical-reruns", budget_s=60.0) as info:
        cfg = build_scenario("S6", num_instantiations=10, post_convergence_horizon=100)
        outputs = []
        for sub in ("first", "second"):
            batch = run_batch(cfg)
            metrics_path = emit_results(batch, tmp_path / sub, fmt="csv")
            outputs.append(metrics_path.read_bytes())
        assert outputs[0] == outputs[1]
        info["note"] = "10-run S6 batch emitted twice, metrics.csv byte-identical"
