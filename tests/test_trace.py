"""Per-round traces: one row renderer over a run's round records, streamed
files that render a run's kept records, byte-identical across ``--parallel``,
an unknown format rejected by the renderer and before a batch makes anything,
memory that does not grow with the number of rounds traced, and a pooled
batch's memory per run."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import repsim
from repsim import ReplyValue, SelectionPolicy, WorkerType, run_batch, save_config
from repsim.cli import emit_results, main
from repsim.engine import (
    TRACE_COLUMNS,
    RoundOutcome,
    RoundRecord,
    TraceTarget,
    WorkerSnapshot,
    trace_header,
    trace_rows,
)
from repsim.scenarios import build_scenario, make_config

UNIT = st.floats(0.0, 1.0, allow_subnormal=True)
WORKERS = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from([t.value for t in WorkerType]),
              UNIT, UNIT, UNIT),
    max_size=6,
)
# Floats as distinct objects with equal values, both zeros among them: a
# renderer must tell neither two equal objects nor 0.0 and -0.0 apart wrongly.
POOL = [float(text) for text in ("0.0", "-0.0", "0.0", "-0.0", "0.5", "0.5", "1e-16", "1.0")]
TYPES = [t.value for t in WorkerType] + ["".join(t.value) for t in WorkerType]


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


def record_of(round_index, audit_prob, audited, accepted, replies, workers):
    outcome = RoundOutcome(
        selected=tuple(w[0] for w in workers), responders=tuple(range(replies)),
        audited=audited, cheaters_caught=(), accepted_value=accepted, payoffs={},
        audit_prob_after=audit_prob,
    )
    return outcome, RoundRecord(round_index, outcome, tuple(WorkerSnapshot(*w) for w in workers),
                                audit_prob)


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
    outcome, record = record_of(round_index, audit_prob, audited, accepted, replies, workers)
    jsonl, csv_row, header = reference_lines(round_index, audit_prob, outcome, workers)
    assert trace_rows("jsonl")(record) == jsonl
    assert trace_rows("csv")(record) == csv_row
    assert trace_header(len(workers)) == header


@given(
    ids=st.lists(st.integers(0, 10**6), min_size=4, max_size=4, unique=True),
    rows=st.lists(
        st.tuples(
            st.sampled_from(POOL),
            st.lists(
                st.tuples(st.integers(0, 3), st.sampled_from(TYPES), *[st.sampled_from(POOL)] * 3),
                max_size=4, unique_by=lambda w: w[0],
            ),
        ),
        max_size=12,
    ),
)
@example(ids=[7, 8, 9, 10], rows=[(0.5, [(0, "RATIONAL", -0.0, 0.5, 1.0)]),
                                  (0.5, [(0, "RATIONAL", 0.0, 0.5, 1.0)]),
                                  (0.5, [(0, "RATIONAL", -0.0, 0.5, 1.0)])])
def test_one_renderer_matches_json_and_csv_writer_across_rows(ids, rows):
    # one renderer per format over the whole sequence, as a traced run has;
    # each row's workers are some of a fixed set, in any order
    render = {fmt: trace_rows(fmt) for fmt in ("csv", "jsonl")}
    for round_index, (audit_prob, slots) in enumerate(rows, 1):
        workers = [(ids[k], *values) for k, *values in slots]
        outcome, record = record_of(round_index, audit_prob, round_index % 2 == 0, None,
                                    len(workers), workers)
        jsonl, csv_row, _ = reference_lines(round_index, audit_prob, outcome, workers)
        assert render["jsonl"](record) == jsonl
        assert render["csv"](record) == csv_row


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


def test_streamed_traces_render_kept_records(tmp_path):
    s5 = build_scenario("S5", reputation_type="boinc", num_instantiations=3,
                        post_convergence_horizon=40, base_seed=11)
    # a frozen 5 of 9, sampled from each run's stream before its first round
    frozen = make_config([(4, WorkerType.ALTRUISTIC, 0.8), (5, WorkerType.MALICIOUS, 0.8)],
                         select_n=5, selection_policy=SelectionPolicy.FIXED_RANDOM,
                         num_instantiations=3, max_rounds=300, post_convergence_horizon=40,
                         base_seed=11)
    save_config(frozen, tmp_path / "frozen.json")
    # all rational: learning moves cheat_prob and audits move rho_tr, so a
    # renderer's cached pieces go stale as the run plays
    s4 = build_scenario("S4", reputation_type="exponential", num_instantiations=3,
                        post_convergence_horizon=40, base_seed=11)
    cases = {
        "S5": (s5, ["S5", "--reputation", "boinc", "--runs", "3", "--horizon", "40",
                    "--seed", "11"]),
        "S4": (s4, ["S4", "--reputation", "exponential", "--runs", "3", "--horizon", "40",
                    "--seed", "11"]),
        "frozen": (frozen, [str(tmp_path / "frozen.json")]),
    }
    for name, (config, cli_args) in cases.items():
        select_n = config.mechanism.select_n
        for fmt in ("csv", "jsonl"):
            batches = {}
            for parallel in (1, 2):  # 2: records pickled back from real pool processes
                out = tmp_path / f"{name}_{fmt}_parallel{parallel}"
                batch = run_batch(config, parallel=parallel, keep_records=True,
                                  trace=TraceTarget(out, fmt))
                assert len(trace_files(out)) == 3
                for seed, records in zip(batch.seeds, batch.records):
                    assert all(len(rec.snapshots) == select_n for rec in records)
                    header = trace_header(select_n) if fmt == "csv" else ""
                    expected = header + "".join(trace_rows(fmt)(rec) for rec in records)
                    assert (out / f"trace_seed{seed}.{fmt}").read_text() == expected
                batches[parallel] = batch
            assert batches[1].records == batches[2].records
            assert isinstance(batches[2].records[0][0], RoundRecord)

            emitted, cli_out = tmp_path / f"{name}_emitted_{fmt}", tmp_path / f"{name}_cli_{fmt}"
            metrics_path = emit_results(batches[1], emitted, fmt=fmt)
            assert sorted(p.name for p in emitted.iterdir()) == [f"metrics.{fmt}"]
            assert run(cli_out, *cli_args, "--format", fmt) == 0
            assert metrics_path.read_bytes() == (cli_out / f"metrics.{fmt}").read_bytes()


def test_unknown_trace_format_is_rejected_before_anything_is_made(tmp_path):
    config = build_scenario("S5", num_instantiations=2, post_convergence_horizon=40)
    with pytest.raises(ValueError, match="unknown format"):
        run_batch(config, parallel=2, trace=TraceTarget(tmp_path / "t", "xml"))
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("fmt", ["xml", "CSV", "json", ""])
def test_unknown_format_is_rejected_when_a_renderer_is_built(fmt):
    with pytest.raises(ValueError, match=re.escape(f"unknown format {fmt!r}")):
        trace_rows(fmt)


# Spawns the command and prints its exit code and peak RSS (KiB on Linux).
# The launcher is a small fresh interpreter because a child's peak RSS counts
# the memory of the process it was spawned from.
WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv: list[str], code: int) -> float:
    """Peak RSS of ``python -m repsim.cli ARGV`` from ``os.wait4``; the
    command must exit with ``code``."""
    src = str(Path(repsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", WAIT4, sys.executable, "-m", "repsim.cli", *argv],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    exit_code, kib = map(int, out.stdout.split())
    assert exit_code == code
    return kib / 1024


def test_trace_memory_does_not_grow_with_rounds(tmp_path):
    # 2 runs x 20 000 rounds that never converge; records kept until the
    # batch ends would cost about 1.2 KB per round
    frozen = make_config([(5, WorkerType.MALICIOUS, 1.0)], select_n=5,
                         selection_policy=SelectionPolicy.FIXED_RANDOM,
                         max_rounds=20_000, num_instantiations=2)
    path = tmp_path / "frozen.json"
    save_config(frozen, path)
    # no run converges, so each command exits 3
    untraced = peak_rss_mb(["run", str(path), "--out", str(tmp_path / "plain")], code=3)
    traced = peak_rss_mb(["run", str(path), "--out", str(tmp_path / "traced"), "--trace"], code=3)
    assert len(trace_files(tmp_path / "traced")) == 2
    assert traced <= untraced + 10, (untraced, traced)


def test_fanout_memory_grows_at_most_1_kb_per_run(tmp_path):
    # At --parallel 2 the batch keeps one RunMetrics per run (about 0.4 KB);
    # one pool task per run, each with its own pickled config, cost 2.1 KB.
    peak = {
        runs: peak_rss_mb(["run", "S1", "--horizon", "1", "--runs", str(runs), "--parallel", "2",
                           "--out", str(tmp_path / str(runs))], code=0)
        for runs in (1_000, 8_000)
    }
    assert (peak[8_000] - peak[1_000]) * 1024 <= 7_000, peak
