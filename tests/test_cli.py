import concurrent.futures.process
import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repsim import (
    ReputationType,
    SelectionPolicy,
    WorkerType,
    config_to_dict,
    run_batch,
    save_config,
    validate_config,
)
from repsim import cli
from repsim.cli import METRICS_COLUMNS, main
from repsim.engine import METRICS, RunMetrics, aggregate_metrics
from repsim.scenarios import build_scenario, get_scenario, list_scenarios, make_config


def read_metrics_csv(path):
    """Parse a metrics CSV back into RunMetrics values (round-trip of
    ``cli.write_metrics``)."""
    with Path(path).open(newline="") as fh:
        return [
            RunMetrics(
                seed=int(row["seed"]),
                **{attr: None if row[name] == "" else int(row[name]) for name, attr in METRICS},
            )
            for row in csv.DictReader(fh)
        ]


class TestCatalog:
    def test_all_presets_present(self):
        names = [p.name for p in list_scenarios()]
        for pool in (5, 9, 99):
            for ratio in ("r5m4", "r4m5", "r1m8"):
                assert f"p{pool}-{ratio}" in names
        for s in ("S1", "S2", "S3", "S4", "S5", "S6"):
            assert s in names

    def test_s6_composition(self):
        cfg = build_scenario("S6")
        types = [(w.worker_type, w.availability) for w in cfg.workers]
        assert types.count((WorkerType.RATIONAL, 1.0)) == 1
        assert types.count((WorkerType.MALICIOUS, 0.5)) == 8

    def test_p99_pool_size(self):
        cfg = build_scenario("p99-r1m8")
        assert cfg.mechanism.pool_size_N == 99
        assert sum(w.worker_type is WorkerType.RATIONAL for w in cfg.workers) == 11
        assert sum(w.worker_type is WorkerType.MALICIOUS for w in cfg.workers) == 88

    def test_pool_of_five_selects_whole_pool(self):
        cfg = build_scenario("p5-r1m8")
        assert cfg.mechanism.pool_size_N == cfg.mechanism.select_n == 5
        assert cfg.mechanism.selection_policy is SelectionPolicy.FIXED_RANDOM

    def test_every_preset_validates_across_sweeps(self):
        for preset in list_scenarios():
            for rep in ReputationType:
                for pa_init in (0.5, 1.0):
                    cfg = preset.generator(reputation_type=rep, audit_prob_initial=pa_init)
                    assert validate_config(cfg) == [], preset.name

    def test_defaults_match_standard_parameterization(self):
        cfg = build_scenario("S1")
        assert cfg.num_instantiations == 100
        m = cfg.mechanism
        assert (m.tolerance_tau, m.audit_prob_min, m.exponential_base_epsilon) == (0.5, 0.01, 0.5)
        assert (m.master_learning_rate_alpha_m, m.worker_learning_rate_alpha_w) == (0.1, 0.1)
        p = cfg.payoffs
        assert (p.punishment_WPc, p.task_cost_WCt, p.reward_WBy) == (0.0, 0.1, 1.0)

    def test_unknown_scenario_error_lists_names(self):
        with pytest.raises(KeyError, match="S1"):
            get_scenario("S9")


class TestListCommand:
    def test_list_exits_zero_and_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "S6" in out and "p99-r1m8" in out


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the process pool: record each pool's ``max_workers`` and
    map in this process, so no worker process is ever started. This process
    appears to have 64 CPUs."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    return sizes


class TestRunCommand:
    def run_s1(self, tmp_path, *extra):
        args = ["run", "S1", "--horizon", "30", "--out", str(tmp_path), *extra]
        return main(args)

    def test_unknown_scenario(self, tmp_path, capsys):
        code = main(["run", "S9", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "S9" in err and "S1" in err and "p99-r1m8" in err

    def test_invalid_override_surfaces_validation_error(self, tmp_path, capsys):
        code = self.run_s1(tmp_path, "--set", "mechanism.select_n=9")
        assert code == 2
        assert "select_n" in capsys.readouterr().err

    def test_run_writes_one_row_per_instantiation(self, tmp_path, capsys):
        assert self.run_s1(tmp_path) == 0
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == ",".join(METRICS_COLUMNS)
        assert len(rows) == 1 + 100  # default instantiation count
        out = capsys.readouterr().out
        assert "metrics.csv" in out

    def test_metrics_round_trip_and_summary_consistency(self, tmp_path, capsys):
        assert self.run_s1(tmp_path, "--runs", "20") == 0
        cfg = build_scenario("S1", post_convergence_horizon=30, num_instantiations=20)
        batch = run_batch(cfg)
        parsed = read_metrics_csv(tmp_path / "metrics.csv")
        assert tuple(parsed) == batch.runs
        agg = aggregate_metrics(parsed)
        assert agg == aggregate_metrics(batch.runs)
        assert agg.metrics["audits_to_convergence"].median == 10.0
        # the printed table carries the same medians as the emitted file
        out = capsys.readouterr().out
        assert "audits_to_convergence" in out and "10" in out

    def test_reputation_and_pa_init_flags(self, tmp_path):
        code = main([
            "run", "S3", "--reputation", "exponential", "--pa-init", "1.0",
            "--runs", "3", "--horizon", "20", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(read_metrics_csv(tmp_path / "metrics.csv")) == 3

    def test_config_file_input(self, tmp_path):
        cfg = build_scenario("S6", num_instantiations=4, post_convergence_horizon=20)
        path = tmp_path / "custom.json"
        save_config(cfg, path)
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        assert len(read_metrics_csv(out_dir / "metrics.csv")) == 4

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mechanism": {"pool_size_N": 9}}')
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_deeply_nested_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "deep.json" in err and "nested too deeply" in err

    @pytest.mark.parametrize("name, content, message", [
        ("bad.json", b"{", "is not valid JSON: Expecting property name"),
        ("bom.json", b"\xff\xfe", "cannot be decoded: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_config_file_exits_2_naming_it(self, tmp_path, capsys, name, content,
                                                     message):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and message in err
        assert "Traceback" not in err

    def test_unreadable_config_path_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, message", [
        ("workers", 5, "workers must be a JSON array"),
        ("workers", [7], "workers[0] must be a JSON object"),
        ("mechanism", 3, "mechanism must be a JSON object"),
        ("payoffs", [], "payoffs must be a JSON object"),
    ])
    def test_wrong_shaped_config_file_exits_2(self, tmp_path, capsys, section, value, message):
        cfg = config_to_dict(build_scenario("S1"))
        cfg[section] = value
        path = tmp_path / "shaped.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, message", [
        ("mechanism=3", "mechanism must be a JSON object"),
        ("workers={}", "workers must be a JSON array"),
        ("mechanism.select_n=[5]", "invalid mechanism field select_n"),
        ("max_rounds=Infinity", "invalid config field max_rounds"),
        ("payoffs.reward_WBy=Infinity", "reward_WBy must be finite"),
        ("mechanism.tolerance_tau=NaN", "tolerance_tau must be finite"),
        ("mechanism.select_n=4.9", "invalid mechanism field select_n"),
        ("mechanism.tolerance_tau=abc", "invalid mechanism field tolerance_tau"),
        ("num_instantiations=true", "invalid config field num_instantiations"),
        pytest.param("mechanism.tolerance_tau=" + "[" * 5_000,
                     "'mechanism.tolerance_tau' is nested too deeply", id="deeply-nested-value"),
    ])
    def test_wrong_shaped_or_non_finite_override_exits_2(
        self, tmp_path, capsys, assignment, message
    ):
        assert self.run_s1(tmp_path, "--set", assignment) == 2
        assert message in capsys.readouterr().err

    def test_all_runs_not_converged_exit_code(self, tmp_path, capsys):
        cfg = make_config(
            [(5, WorkerType.MALICIOUS, 1.0)], select_n=5,
            selection_policy=SelectionPolicy.FIXED_RANDOM,
            max_rounds=200, num_instantiations=2,
        )
        path = tmp_path / "frozen.json"
        save_config(cfg, path)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "no run converged" in capsys.readouterr().err

    def test_trace_row_count(self, tmp_path):
        assert self.run_s1(tmp_path, "--runs", "2", "--trace") == 0
        parsed = read_metrics_csv(tmp_path / "metrics.csv")
        for m in parsed:
            trace = tmp_path / f"trace_seed{m.seed}.csv"
            with trace.open() as fh:
                rows = list(csv.reader(fh))
            assert len(rows) - 1 == m.convergence_round + 30
            header = rows[0]
            assert header[:5] == [
                "round_index", "audit_prob", "audited", "accepted_value", "num_replies"
            ]
            assert "w4_rho_tr" in header

    def test_jsonl_format(self, tmp_path):
        assert self.run_s1(tmp_path, "--runs", "3", "--format", "jsonl", "--trace") == 0
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        row = json.loads(lines[0])
        assert set(row) == set(METRICS_COLUMNS)
        trace_line = json.loads(
            (tmp_path / f"trace_seed{row['seed']}.jsonl").read_text().splitlines()[0]
        )
        assert {w["type"] for w in trace_line["workers"]} == {"ALTRUISTIC"}

    def test_parallel_flag_matches_sequential(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_s1(out_a, "--runs", "4") == 0
        assert self.run_s1(out_b, "--runs", "4", "--parallel", "2") == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_parallel_pool_never_exceeds_run_count(self, tmp_path, pool_sizes):
        assert self.run_s1(tmp_path / "a", "--runs", "3", "--parallel", "500") == 0
        assert self.run_s1(tmp_path / "b", "--runs", "5", "--parallel", "2") == 0
        assert self.run_s1(tmp_path / "c", "--runs", "1", "--parallel", "4") == 0  # in-process
        assert pool_sizes == [3, 2]

    def test_parallel_pool_never_exceeds_usable_cpus(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert self.run_s1(tmp_path / "a", "--runs", "5", "--parallel", "100000") == 0
        # where the platform cannot tell the usable CPUs, the machine's count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert self.run_s1(tmp_path / "b", "--runs", "5", "--parallel", "100000") == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: in-process
        assert self.run_s1(tmp_path / "c", "--runs", "5", "--parallel", "100000") == 0
        assert pool_sizes == [2, 3]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, pool_sizes, value):
        with pytest.raises(SystemExit) as exc:
            self.run_s1(tmp_path, "--parallel", value)
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert pool_sizes == []

    @pytest.mark.parametrize("extra", [(), ("--trace",), ("--trace", "--parallel", "2")])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, extra):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert self.run_s1(out, "--runs", "2", *extra) == 2
        assert "error: cannot write results" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_unopenable_trace_in_pool_worker_exits_2(self, tmp_path, capsys):
        (tmp_path / f"trace_seed{build_scenario('S1').seed_for(1)}.csv").mkdir()
        assert self.run_s1(tmp_path, "--runs", "2", "--trace", "--parallel", "2") == 2
        err = capsys.readouterr().err
        assert "error: cannot write results" in err and "trace_seed" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main([
                "run", "S6", "--runs", "5", "--horizon", "30",
                "--seed", "4242", "--out", str(out), "--trace",
            ])
            assert code == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        for trace in sorted(out_a.glob("trace_*.csv")):
            assert trace.read_bytes() == (out_b / trace.name).read_bytes()



JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)
BASE_CONFIG = config_to_dict(build_scenario("S3", num_instantiations=2))


@st.composite
def config_dicts(draw):
    """The S3 config dict with up to four fields (of the config, a section
    or a worker) dropped, added or set to arbitrary JSON."""
    cfg = copy.deepcopy(BASE_CONFIG)
    for _ in range(draw(st.integers(1, 4))):
        node = cfg
        section = draw(st.sampled_from(["", "mechanism", "payoffs", "workers"]))
        if section:
            node = cfg.get(section)
        if isinstance(node, list) and node:
            node = draw(st.sampled_from(node))
        if not isinstance(node, dict):
            continue
        key = draw(st.sampled_from(sorted(node) + ["bogus"]))
        if draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = draw(JSON_VALUES)
    return cfg


SET_PATHS = st.sampled_from([
    "max_rounds", "base_seed", "mechanism", "mechanism.select_n", "mechanism.tolerance_tau",
    "mechanism.reputation_type", "mechanism.selection_policy", "payoffs.reward_WBy",
    "workers", "workers.0", "bogus", "mechanism.bogus", "", ".",
])
ASSIGNMENTS = st.builds("{}={}".format, SET_PATHS, JSON_VALUES.map(json.dumps) | st.text(max_size=12))


class Reached(Exception):
    """Raised in place of a simulation by the stubbed ``run_batch``."""


def parse_only(argv):
    """``main(argv)`` with ``run_batch`` stubbed out: the config a run would
    use, or the exit code; plus what was written to stderr."""
    def reached(config, **_):
        raise Reached(config)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, "run_batch", reached)
        try:
            return main(argv), err.getvalue()
        except Reached as exc:
            return exc.args[0], err.getvalue()


class TestParsingFuzz:
    """Every config file and ``--set`` override ends in a valid config or
    in a diagnostic with exit code 2; no simulation is run."""

    def check(self, result, err):
        if isinstance(result, int):
            assert result == 2
            assert "error" in err
        else:
            assert not [d for d in validate_config(result) if d.severity == "error"]

    @settings(max_examples=150, deadline=None)
    @given(config_dicts())
    def test_config_files(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.json"
            path.write_text(json.dumps(cfg))
            self.check(*parse_only(["run", str(path), "--out", tmp]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(ASSIGNMENTS | st.text(max_size=16), min_size=1, max_size=3))
    def test_set_overrides(self, assignments):
        argv = ["run", "S3", "--runs", "2", "--out", "unused"]
        argv += [f"--set={a}" for a in assignments]
        self.check(*parse_only(argv))
