"""Per-round traces: one formatter for the streamed and the record-backed
path, byte-identical across ``--parallel``, and memory that does not grow
with the number of rounds traced."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, strategies as st

import repsim
from repsim import ReplyValue, SelectionPolicy, WorkerType, run_batch, save_config
from repsim.cli import emit_results, main
from repsim.engine import TRACE_COLUMNS, WorkerSnapshot, trace_header, trace_row
from repsim.master import RoundOutcome
from repsim.scenarios import build_scenario, make_config

UNIT = st.floats(0.0, 1.0, allow_subnormal=True)
WORKERS = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from([t.value for t in WorkerType]),
              UNIT, UNIT, UNIT),
    max_size=6,
)


def reference_lines(round_index, audit_prob, outcome, workers):
    """The row as ``json.dumps`` of a dict and as ``csv.writer`` output."""
    accepted = outcome.accepted_value
    values = (
        round_index, audit_prob, outcome.audited,
        "NONE" if accepted is None else accepted.value, len(outcome.responders),
    )
    row = {
        **dict(zip(TRACE_COLUMNS, values)),
        "workers": [dict(zip(WorkerSnapshot._fields, w)) for w in workers],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [*values[:2], "true" if outcome.audited else "false", *values[3:]]
        + [v for w in workers for v in w]
    )
    writer.writerow([*TRACE_COLUMNS] + [
        f"w{k}_{field}" for k in range(len(workers)) for field in WorkerSnapshot._fields
    ])
    row_line, header_line = buf.getvalue().splitlines(keepends=True)
    return json.dumps(row) + "\n", row_line, header_line


@given(
    round_index=st.integers(1, 10**9),
    audit_prob=UNIT,
    audited=st.booleans(),
    accepted=st.sampled_from([None, ReplyValue.CORRECT, ReplyValue.WRONG]),
    replies=st.integers(0, 6),
    workers=WORKERS,
)
@example(round_index=1, audit_prob=1e-05, audited=True, accepted=None, replies=0,
         workers=[(0, "RATIONAL", 5e-324, 1e-16, 1.0)])
def test_trace_row_matches_json_and_csv_writer(
    round_index, audit_prob, audited, accepted, replies, workers
):
    outcome = RoundOutcome(
        selected=tuple(w[0] for w in workers), responders=tuple(range(replies)),
        audited=audited, cheaters_caught=(), accepted_value=accepted, payoffs={},
        audit_prob_after=audit_prob,
    )
    jsonl, csv_row, header = reference_lines(round_index, audit_prob, outcome, workers)
    assert trace_row("jsonl", round_index, audit_prob, outcome, workers) == jsonl
    assert trace_row("csv", round_index, audit_prob, outcome, workers) == csv_row
    assert trace_header(len(workers)) == header


def run(out, *args):
    return main(["run", *args, "--out", str(out)])


def trace_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("trace_seed*"))}


def test_parallel_traces_match_serial(tmp_path):
    for fmt in ("csv", "jsonl"):
        args = ["S3", "--runs", "4", "--horizon", "40", "--seed", "77", "--trace", "--format", fmt]
        assert run(tmp_path / f"serial_{fmt}", *args) == 0
        assert run(tmp_path / f"pool_{fmt}", *args, "--parallel", "2") == 0  # real processes
        serial = trace_files(tmp_path / f"serial_{fmt}")
        assert len(serial) == 4
        assert serial == trace_files(tmp_path / f"pool_{fmt}")


def test_emitted_records_match_streamed_traces(tmp_path):
    config = build_scenario("S5", reputation_type="boinc", num_instantiations=3,
                            post_convergence_horizon=40, base_seed=11)
    for fmt in ("csv", "jsonl"):
        streamed, emitted = tmp_path / f"streamed_{fmt}", tmp_path / f"emitted_{fmt}"
        assert run(streamed, "S5", "--reputation", "boinc", "--runs", "3", "--horizon", "40",
                   "--seed", "11", "--trace", "--format", fmt) == 0
        emit_results(run_batch(config, keep_records=True), emitted, fmt=fmt)
        assert len(trace_files(streamed)) == 3
        assert trace_files(streamed) == trace_files(emitted)
        assert (streamed / f"metrics.{fmt}").read_bytes() == (emitted / f"metrics.{fmt}").read_bytes()


# Spawns the command and prints its exit code and peak RSS (KiB on Linux).
# The launcher is a small fresh interpreter because a child's peak RSS counts
# the memory of the process it was spawned from.
WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS of ``python -m repsim.cli ARGV`` from ``os.wait4``."""
    src = str(Path(repsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", WAIT4, sys.executable, "-m", "repsim.cli", *argv],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    code, kib = map(int, out.stdout.split())
    assert code == 3  # no run converges
    return kib / 1024


def test_trace_memory_does_not_grow_with_rounds(tmp_path):
    # 2 runs x 20 000 rounds that never converge; records kept until the
    # batch ends would cost about 1.2 KB per round
    frozen = make_config([(5, WorkerType.MALICIOUS, 1.0)], select_n=5,
                         selection_policy=SelectionPolicy.FIXED_RANDOM,
                         max_rounds=20_000, num_instantiations=2)
    path = tmp_path / "frozen.json"
    save_config(frozen, path)
    untraced = peak_rss_mb(["run", str(path), "--out", str(tmp_path / "plain")])
    traced = peak_rss_mb(["run", str(path), "--out", str(tmp_path / "traced"), "--trace"])
    assert len(trace_files(tmp_path / "traced")) == 2
    assert traced <= untraced + 10, (untraced, traced)
