#!/usr/bin/env python3
"""repsim benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run_bench.py --workload {sweep,trace,fanout} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; repsim is taken from ``src/`` (it need not
be installed). Every workload is a closed loop with one client: the
benchmark spawns the workload's processes one after another, each after the
previous one exited, and repeats the workload until ``--seconds`` have
passed (at least three times untraced). ``--seed`` becomes the base seed of
every batch, so the same seed gives the same inputs and the same outputs;
repetitions must produce byte-identical files. Why each workload exists, the
metric definitions and the held-out seed are in ``bench/README.md``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``attempted`` counts simulated runs
(instantiations) over all repetitions; a run failed when its output is
missing, fails a check in ``checks.py``, or differs from the first
repetition's. A full report is also written to ``.bench_work/reports/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_batch, digest
from tracer import TARGETS, merge_span_files

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
PROBE = BENCH / "probe.py"

GRID = [f"p{n}-r{r}m{m}" for n in (5, 9, 99) for r, m in ((5, 4), (4, 5), (1, 8))]
PRESETS = GRID + [f"S{i}" for i in range(1, 7)]
REPUTATIONS = ("linear", "exponential", "boinc")
PA_INITS = (0.5, 1.0)

# Workload sizes, chosen so one repetition takes a few seconds on a 2-CPU
# machine and a run repeats each workload several times.
SWEEP_RUNS = 1
TRACE_RUNS, TRACE_HORIZON = 6, 2000
FANOUT_RUNS, FANOUT_PARALLEL = 40, 2
DEFAULT_HORIZON, DEFAULT_MAX_ROUNDS = 500, 50_000

MIN_REPS = 3
RUN_DEADLINE_S = 150.0

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
# Functions not called on every workload report calls only; their time stays
# in their module's self_s, so no reported time is zero by construction.
COUNT_ONLY = {
    "scenarios.build_scenario",
    "scenarios.get_scenario",
    "worker.WorkerState.update_cheat_prob",
    "cli.write_trace",
}
MODULES = ("model", "scenarios", "reputation", "worker", "master", "engine", "cli")


def _layer_units() -> dict[str, str]:
    units = {}
    for module, path in TARGETS:
        name = f"{module}.{path}"
        units[f"{name}.calls"] = "count"
        if name not in COUNT_ONLY:
            units[f"{name}.self_s"] = "s"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({
        "cli.emit_results.total_s": "s",
        "cli.write_trace.rows": "count",
        "cli.write_trace.bytes": "B",
        "worker.reply_rate": "ratio",
        "master.audit_rate": "ratio",
        "master.empty_round_rate": "ratio",
        "engine.rounds": "count",
        "engine.fanout_cpu_per_wall": "ratio",
        "import_s": "s",
        "trace_overhead_frac": "ratio",
    })
    return units


LAYER_UNITS = _layer_units()


@dataclass
class Proc:
    """One workload process: a CLI call, or the library path in probe.py."""

    kind: str  # "cli" | "lib"
    out: str
    specs: list[dict]

    def cli_argv(self, out_dir: str) -> list[str]:
        (s,) = self.specs
        argv = [
            "run", s["preset"], "--reputation", s["reputation"],
            "--pa-init", repr(s["pa_init"]), "--seed", str(s["seed"]),
            "--runs", str(s["runs"]), "--horizon", str(s["horizon"]),
            "--max-rounds", str(s["max_rounds"]), "--format", s["format"],
            "--parallel", str(s["parallel"]), "--out", out_dir,
        ]
        return argv + (["--trace"] if s["trace"] else [])


def _spec(preset, seed, runs, out, reputation="linear", pa_init=0.5,
          horizon=DEFAULT_HORIZON, fmt="csv", trace=False, parallel=1) -> dict:
    return {
        "preset": preset, "reputation": reputation, "pa_init": pa_init,
        "seed": seed, "runs": runs, "horizon": horizon,
        "max_rounds": DEFAULT_MAX_ROUNDS, "format": fmt, "trace": trace,
        "parallel": parallel, "out": out,
    }


def workload_procs(name: str, seed: int) -> list[Proc]:
    if name == "sweep":
        specs = [
            _spec(p, seed, SWEEP_RUNS, f"{p}_{r}_pa{pa}", reputation=r, pa_init=pa)
            for p in PRESETS for r in REPUTATIONS for pa in PA_INITS
        ]
        return [Proc("lib", "sweep", specs)]
    if name == "trace":
        return [
            Proc("cli", f"trace_{fmt}", [_spec("S3", seed, TRACE_RUNS, ".",
                                               horizon=TRACE_HORIZON, fmt=fmt, trace=True)])
            for fmt in ("csv", "jsonl")
        ]
    if name == "fanout":
        return [
            Proc("cli", f"fanout_{p}", [_spec(p, seed, FANOUT_RUNS, ".", parallel=FANOUT_PARALLEL)])
            for p in ("S5", "p99-r1m8")
        ]
    raise ValueError(name)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], stdout: Path, deadline: float) -> Sample:
    """Run cmd to completion; wall time from spawn to exit, and the rusage of
    its whole process tree from wait4 (reaped pool workers included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with stdout.open("wb") as out, stdout.with_suffix(".err").open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            # Wait without reaping, so the process group cannot be reused
            # before the timer is cancelled.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    runs: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.deadline = deadline
        self.procs = workload_procs(workload, seed)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.spec_files = []
        for i, proc in enumerate(self.procs):
            path = self.dir / f"specs{i}.json"
            path.write_text(json.dumps(proc.specs))
            self.spec_files.append(path)
        self.rounds = 0
        self.not_converged = 0
        self.violated = 0
        self.first_digest: str | None = None
        self.provenance: dict = {}
        self.absent: list[str] = []
        self.expected_code: dict[str, int] = {}
        self.content_failed: dict[str, int] = {}

    def setup_probe(self, i: int) -> tuple[Sample, str]:
        stdout = self.dir / f"setup{i}.out"
        sample = spawn([sys.executable, str(PROBE), "setup", str(self.spec_files[i])],
                       stdout, self.deadline)
        return sample, stdout.read_text()

    def warm_up(self) -> bool:
        """Untimed set-up of each process kind: writes bytecode caches and
        fills the file cache, which users do not pay on every run."""
        for i in range(len(self.procs)):
            sample, text = self.setup_probe(i)
            if sample.code != 0:
                print(f"error: set-up probe failed, see {self.dir / f'setup{i}.err'}",
                      file=sys.stderr)
                return False
            info = json.loads(text.splitlines()[-1])
            self.provenance.setdefault("config_sha256", {}).update(
                {str(Path(self.procs[i].out, k)): v for k, v in info.pop("config_sha256").items()})
            self.provenance.update(info)
        return True

    def rep(self, index: int, traced: bool) -> Rep:
        rep = Rep(traced)
        outputs = []
        for i, proc in enumerate(self.procs):
            setup, _ = self.setup_probe(i)
            rep.setup_s += setup.wall_s
            if setup.code != 0:
                rep.problems.append(f"{proc.out}: set-up probe exited {setup.code}")
            out_dir = self.dir / proc.out
            shutil.rmtree(out_dir, ignore_errors=True)
            spans = self.dir / f"spans{index}_{i}"
            if traced:
                spans.mkdir()
            prefix = [sys.executable, str(PROBE)] + (["--spans", str(spans)] if traced else [])
            rel_out = str(out_dir.relative_to(ROOT))
            if proc.kind == "lib":
                out_dir.mkdir()
                cmd = prefix + ["lib", str(self.spec_files[i]), rel_out]
            elif traced:
                cmd = prefix + ["cli"] + proc.cli_argv(rel_out)
            else:
                cmd = [sys.executable, "-m", "repsim.cli"] + proc.cli_argv(rel_out)
            stdout = self.dir / f"{proc.out}.stdout"
            sample = spawn(cmd, stdout, self.deadline)
            rep.wall_s += sample.wall_s
            rep.cpu_s += sample.cpu_s
            rep.rss_mb = max(rep.rss_mb, sample.rss_mb)
            outputs += [out_dir, stdout]
            rep.runs += sum(s["runs"] for s in proc.specs)
            rep.failed += self._check(proc, sample, stdout, out_dir, rep, first=index == 0)
        rep.digest = digest(outputs, self.dir)
        if self.first_digest is None:
            self.first_digest = rep.digest
        elif rep.digest != self.first_digest:
            rep.problems.append(f"output digest {rep.digest} differs from {self.first_digest}")
            rep.failed = rep.runs
        if traced:
            rep.layers = self._layers(index)
        return rep

    def _check(self, proc: Proc, sample: Sample, stdout: Path, out_dir: Path,
               rep: Rep, first: bool) -> int:
        """Failed runs of one process. Later repetitions are checked through
        their digest, which must equal the first repetition's, so they
        repeat its failures."""
        if first:
            text = stdout.read_text().splitlines()
            self.content_failed[proc.out] = 0
            for spec in proc.specs:
                result = check_batch(out_dir / spec["out"], spec, _summary_lines(proc, spec, text))
                self.content_failed[proc.out] += len(result.failed)
                rep.problems += [f"{proc.out}/{spec['out']}: {p}" for p in result.problems]
                self.rounds += result.rounds
                self.not_converged += result.not_converged
                self.violated += result.violated
                # The CLI exits 3 exactly when no run converged.
                if proc.kind == "cli" and result.not_converged == spec["runs"]:
                    self.expected_code[proc.out] = 3
        if sample.code != self.expected_code.get(proc.out, 0):
            rep.problems.append(f"{proc.out}: exited {sample.code}, see {stdout.with_suffix('.err')}")
            return sum(s["runs"] for s in proc.specs)
        return self.content_failed[proc.out]

    def _layers(self, index: int) -> dict[str, float]:
        merged = merge_span_files([self.dir / f"spans{index}_{i}" for i in range(len(self.procs))])
        stats, counts = merged["stats"], merged["counts"]
        values: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, path in TARGETS:
            name = f"{module}.{path}"
            calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls
            if name not in COUNT_ONLY:
                values[f"{name}.self_s"] = self_s
            module_self[module] += self_s
        values.update({f"{m}.self_s": s for m, s in module_self.items()})
        rounds = counts.get("rounds", 0)

        def ratio(a, b):
            return a / b if b else 0.0

        values.update({
            "cli.emit_results.total_s": stats.get("cli.emit_results", (0, 0.0, 0.0))[2],
            "cli.write_trace.rows": counts.get("trace_rows", 0),
            "cli.write_trace.bytes": counts.get("trace_bytes", 0),
            "worker.reply_rate": ratio(counts.get("replies", 0), counts.get("selections", 0)),
            "master.audit_rate": ratio(counts.get("audited", 0), rounds),
            "master.empty_round_rate": ratio(counts.get("empty", 0), rounds),
            "engine.rounds": self.rounds,
            "engine.fanout_cpu_per_wall": ratio(counts.get("batch_cpu_s", 0.0),
                                                counts.get("batch_wall_s", 0.0)),
            "import_s": counts.get("import_s", 0.0),
        })
        self.absent = merged["absent"]
        return values


def _summary_lines(proc: Proc, spec: dict, text: list[str]) -> list[str]:
    """The part of a process's stdout that summarises one batch."""
    if proc.kind == "cli":
        return [line for line in text if not line.startswith("per-run metrics: ")]
    header = f"== {spec['out']}"
    if header not in text:
        return []
    start = text.index(header) + 1
    end = next((j for j in range(start, len(text)) if text[j].startswith("== ")), len(text))
    return text[start:end]


def _provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run_bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "trace", "fanout"])
    parser.add_argument("--seed", type=int, required=True, help="base seed of every batch")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from traced repetitions")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repsim" / "__init__.py").is_file():
        print(f"error: no repsim sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else E2E_UNITS
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        section = json.loads(declared.read_text())["per_layer" if args.trace else "end_to_end"]
        if {m["name"]: m["unit"] for m in section} != units:
            print(f"error: {declared.name} does not declare the metrics this benchmark reports",
                  file=sys.stderr)
            return 2

    start = time.monotonic()
    bench = Bench(args.workload, args.seed, start + RUN_DEADLINE_S)
    bench.provenance = _provenance()
    if not bench.warm_up():
        return 2
    reps: list[Rep] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(bench.rep(len(reps), traced))
        elapsed = time.monotonic() - start
        if elapsed >= RUN_DEADLINE_S - 30:
            break
        if elapsed >= args.seconds and (
            any(r.traced for r in reps) if args.trace else len(reps) >= MIN_REPS
        ):
            break

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    if args.trace and not traced:
        print("error: no traced repetition finished before the deadline", file=sys.stderr)
        return 1
    attempted = sum(r.runs for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]

    series = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": [r.setup_s for r in plain],
        "rounds_per_s": [bench.rounds / (r.wall_s - r.setup_s) for r in plain],
        "peak_rss_mb": [r.rss_mb for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
    }
    if args.trace:
        layer_series = {k: [r.layers[k] for r in traced] for k in traced[0].layers}
        layer_series["trace_overhead_frac"] = [
            statistics.median([r.wall_s for r in traced]) / statistics.median(series["wall_s"]) - 1.0
        ]
    else:
        layer_series = {}
    report_series = {**series, **layer_series}
    metrics = {
        name: {"value": statistics.median(report_series[name]), "unit": unit}
        for name, unit in units.items()
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "runs_per_repetition": reps[0].runs,
        "rounds_per_repetition": bench.rounds,
        "outcomes": {"not_converged": bench.not_converged, "violated": bench.violated},
        "output_sha256": bench.first_digest,
        "provenance": bench.provenance,
        "spread": {k: _spread(v) for k, v in report_series.items()},
        "problems": problems,
        "absent_functions": bench.absent,
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (reports / name).write_text(json.dumps(report, indent=2) + "\n")
    for proc in bench.procs:
        shutil.rmtree(bench.dir / proc.out, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced "
          f"repetitions of {reps[0].runs} runs / {bench.rounds} rounds")
    for key in E2E_UNITS:
        s = report["spread"][key]
        print(f"  {key:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"n={s['n']}  [{E2E_UNITS[key]}]")
    print(f"  outcomes: {bench.not_converged} not converged, {bench.violated} violating runs")
    print(f"  output sha256: {bench.first_digest}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(f"  report: {(reports / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
