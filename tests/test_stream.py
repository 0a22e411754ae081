"""A run's records are exactly what ``play`` yields on the run's stream, a
FIXED_RANDOM run selects the sample its stream's first draws make, and a run
loads neither numpy nor, without a pool, the process pool's module."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repsim
from repsim import SelectionPolicy, WorkerType, run_batch, run_single
from repsim.master import RunState, partial_shuffle, play
from repsim.model import make_stream
from repsim.scenarios import build_scenario, make_config

ROUNDS = 300
CASES = [(p, r) for p in ("S2", "S3", "S5") for r in ("linear", "exponential", "boinc")]
CASES += [("p5-r5m4", "linear"), ("p99-r1m8", "linear")]


@pytest.mark.parametrize("preset, reputation", CASES)
def test_run_single_matches_plain_generator_reference(preset, reputation):
    config = replace(
        build_scenario(preset, reputation_type=reputation),
        max_rounds=ROUNDS, post_convergence_horizon=ROUNDS,
    )
    seed = config.seed_for(0)
    records, _ = run_single(config, seed)

    rng = make_stream(seed)
    state = RunState(config)
    reference = []
    ties = 0
    before = state.audit_prob
    for r, (audited, accepted, selected, responders, cheats, payoffs) in zip(
        range(1, ROUNDS + 1), play(state, rng)
    ):
        if not audited and any(cheats) and not all(cheats):
            weights = [sum(state.truth[i] for i, c in zip(responders, cheats) if c is side)
                       for side in (True, False)]
            ties += weights[0] == weights[1]
        caught = tuple(i for i, c in zip(responders, cheats) if c) if audited else ()
        outcome = (tuple(selected), tuple(responders), audited, caught, accepted,
                   dict(zip(responders, payoffs)), state.audit_prob)
        snapshots = tuple(
            (i, state.cheat_prob[i], state.resp[i], state.truth[i]) for i in selected
        )
        reference.append((r, outcome, snapshots, before))
        before = state.audit_prob

    assert len(records) == ROUNDS
    for record, (r, outcome, snapshots, before) in zip(records, reference):
        assert (record.round_index, record.outcome, record.audit_prob_before) == (r, outcome, before)
        assert tuple((s.id, s.cheat_prob, s.rho_rs, s.rho_tr) for s in record.snapshots) == snapshots
    if reputation == "boinc" and preset != "S2":
        # zero truthfulness on both sides ties the vote (S2 has no cheaters)
        assert ties > 0


FIXED_POOL = make_config([(1, WorkerType.ALTRUISTIC, 1.0), (8, WorkerType.MALICIOUS, 0.5)],
                         reputation_type="boinc", select_n=5, max_rounds=300,
                         post_convergence_horizon=50, num_instantiations=20,
                         selection_policy=SelectionPolicy.FIXED_RANDOM)


@pytest.mark.parametrize("config", [FIXED_POOL, build_scenario("p5-r5m4", num_instantiations=20,
                                                               post_convergence_horizon=50)],
                         ids=["n<N", "p5-r5m4"])
def test_fixed_random_set_is_the_sample_of_the_first_draws(config):
    # a FIXED_RANDOM run's first draws, one per place, are a partial
    # Fisher-Yates sample of the ids, and every round selects that sample,
    # sorted; a sample taken after any other draw would select other sets
    n, pool_size = config.mechanism.select_n, config.mechanism.pool_size_N
    batch = run_batch(config, keep_records=True)
    sets = set()
    for seed, records in zip(batch.seeds, batch.records):
        ids = list(range(pool_size))
        partial_shuffle(ids, 0, n, pool_size, make_stream(seed).random)
        sample = tuple(sorted(ids[:n]))
        assert all(record.outcome.selected == sample for record in records), seed
        sets.add(sample)
    assert len(sets) > 1 or n == pool_size


def test_running_the_cli_and_a_pool_leaves_numpy_unloaded(tmp_path):
    # numpy costs about 0.1 s and 18 MB per process, and nothing in repsim
    # uses it; the process pool's module costs about 0.03 s, and only a pool
    # should load it
    src = str(Path(repsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"""
import sys
import repsim.cli
print("concurrent.futures.process" in sys.modules)
repsim.cli.main(["run", "S3", "--runs", "2", "--horizon", "20", "--trace",
                 "--out", {str(tmp_path / "cli")!r}])
print("numpy" in sys.modules)
from repsim import run_batch
from repsim.scenarios import build_scenario
run_batch(build_scenario("S5", num_instantiations=4, post_convergence_horizon=20), parallel=2)
print("numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split()[0] == "False"
    assert out.stdout.split()[-2:] == ["False", "False"]
