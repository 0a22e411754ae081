"""The buffered random stream serves exactly the Generator's draws, and a
run on it equals a run on the plain Generator, record for record."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import repsim
from repsim import run_single
from repsim.master import RunState, play
from repsim.model import BufferedStream, make_stream
from repsim.scenarios import build_scenario

calls = st.lists(
    st.one_of(
        st.just(("random", None)),
        st.tuples(st.just("random"), st.sampled_from([5, 9, 99])),
        st.just(("integers", 2)),
    ),
    max_size=200,
)


@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 2, 7, 64, 1024]),
    pending=st.booleans(),
    calls=calls,
)
# a pending high half carried across a refill, and reads that cross one
@example(seed=3, block=2, pending=False,
         calls=[("integers", 2), ("random", None), ("random", None), ("integers", 2)])
@example(seed=5, block=7, pending=True, calls=[("random", 5), ("random", 9), ("random", 99)])
def test_buffered_stream_matches_generator(seed, block, pending, calls):
    reference, wrapped = make_stream(seed), make_stream(seed)
    if pending:  # the Generator already holds a high half when wrapped
        assert reference.integers(2) == wrapped.integers(2)
    stream = BufferedStream(wrapped, block=block)
    for name, arg in calls:
        if name == "integers":
            assert stream.integers(arg) == reference.integers(arg)
        elif arg is None:
            assert stream.random() == reference.random()
        else:
            assert np.array_equal(stream.random(arg), reference.random(arg))


def test_buffered_stream_refuses_other_bit_generators():
    for bit_generator in (np.random.MT19937(0), np.random.PCG64DXSM(0), np.random.Philox(0)):
        with pytest.raises(TypeError, match="PCG64"):
            BufferedStream(np.random.Generator(bit_generator))


class CountingGenerator:
    """A Generator that counts its ``integers`` calls (the vote's tie breaks)."""

    def __init__(self, rng):
        self.rng, self.ties = rng, 0
        self.random = rng.random

    def integers(self, high):
        self.ties += 1
        return self.rng.integers(high)


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
    state = RunState(config, rng)
    counting = CountingGenerator(rng)
    reference = []
    before = state.audit_prob
    for r, (audited, accepted, selected, responders, cheats, payoffs) in zip(
        range(1, ROUNDS + 1), play(state, counting)
    ):
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
        assert counting.ties > 0


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds about 5.5 MB of RSS, and only a run should load it;
    # the process pool's module costs about 0.03 s, and only a pool should
    src = str(Path(repsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    modules = ("numpy.random", "concurrent.futures.process")
    code = f"import sys, repsim.cli; print([m in sys.modules for m in {modules!r}])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[False, False]"
