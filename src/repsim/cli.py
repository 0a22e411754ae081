"""Command-line front end: scenario catalog, batch execution, and
machine-readable result emission (per-run metrics, plus per-round traces
streamed while the batch plays)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from .engine import (
    FORMATS,
    METRICS,
    BatchResult,
    RunMetrics,
    TraceTarget,
    aggregate_metrics,
    run_batch,
)
from .model import (
    ScenarioConfig,
    config_errors,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from .scenarios import get_scenario, list_scenarios

__all__ = [
    "emit_results",
    "write_metrics",
    "format_summary",
    "main",
]

METRICS_COLUMNS = ("seed", *(name for name, _ in METRICS), "violated", "not_converged")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _metrics_row(m: RunMetrics) -> dict[str, Any]:
    """The METRICS_COLUMNS of one run; a run that never converged has a
    ``None`` convergence round."""
    return {
        "seed": m.seed,
        **{name: getattr(m, attr) for name, attr in METRICS},
        "violated": m.eventual_correctness_violated,
        "not_converged": m.not_converged,
    }


def write_metrics(runs: Iterable[RunMetrics], path: Path, fmt: str = "csv") -> None:
    """One row per instantiation; full precision, '.' decimals, LF-terminated.
    In CSV, booleans read true/false and None is an empty cell."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    rows = (_metrics_row(m) for m in runs)
    with path.open("w", newline="") as fh:
        if fmt == "jsonl":
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(
                ("true" if v else "false") if isinstance(v, bool) else v for v in row.values()
            )


def emit_results(batch: BatchResult, out_dir: Path, fmt: str = "csv") -> Path:
    """Write the per-run metrics file under ``out_dir`` and return its path;
    traces are written while the batch plays (``run_batch(trace=...)``)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / f"metrics.{fmt}"
    write_metrics(batch.runs, metrics_path, fmt=fmt)
    return metrics_path


def format_summary(runs: Sequence[RunMetrics]) -> str:
    """The printed batch summary: the run counts, then the median and
    quartiles of each metric over the converged runs (``aggregate_metrics``)."""
    agg = aggregate_metrics(runs)
    lines = [
        f"runs: {len(runs)}  converged: {agg.converged_count}  "
        f"not converged: {agg.not_converged_count}  violations: {agg.violated_count}",
    ]
    if agg.metrics:
        lines.append(f"{'metric':<24} {'median':>10} {'q25':>10} {'q75':>10}")
        for name, s in agg.metrics.items():
            lines.append(f"{name:<24} {s.median:>10g} {s.q25:>10g} {s.q75:>10g}")
    else:
        lines.append("no converged runs; per-run metrics emitted, statistics skipped")
    return "\n".join(lines)


def _apply_set_override(cfg: dict[str, Any], assignment: str) -> None:
    path, sep, raw = assignment.partition("=")
    if not sep:
        raise ValueError(f"--set expects PATH=VALUE, got {assignment!r}")
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ValueError(f"--set: value of {path!r} is nested too deeply") from None
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ValueError(f"--set: unknown config path {path!r}")
    node[leaf] = value


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """Preset name or config file path, with flag overrides applied on the
    dict form so presets and hand-written configs share one schema."""
    target = args.scenario
    try:
        config = get_scenario(target).generator()
    except KeyError:
        if not Path(target).exists():
            names = ", ".join(p.name for p in list_scenarios())
            raise ValueError(f"unknown scenario or config path {target!r}; "
                             f"available scenarios: {names}")
        try:
            config = load_config(target)
        except OSError as exc:
            raise ValueError(f"cannot read config file {target!r}: {exc.strerror}") from None

    cfg = config_to_dict(config)
    if args.reputation is not None:
        cfg["mechanism"]["reputation_type"] = args.reputation.upper()
    if args.pa_init is not None:
        cfg["mechanism"]["audit_prob_initial"] = args.pa_init
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if args.runs is not None:
        cfg["num_instantiations"] = args.runs
    if args.horizon is not None:
        cfg["post_convergence_horizon"] = args.horizon
    if args.max_rounds is not None:
        cfg["max_rounds"] = args.max_rounds
    for assignment in args.set or []:
        _apply_set_override(cfg, assignment)
    return config_from_dict(cfg)


def _cmd_list() -> int:
    for preset in list_scenarios():
        print(f"{preset.name:<12} {preset.description}")
    print(
        "\nEach scenario accepts --reputation {linear,exponential,boinc} "
        "and --pa-init (0.5 or 1.0 in the standard sweeps)."
    )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    diags = validate_config(config)
    for d in diags:
        print(f"{d.severity}: {d.field}: {d.message}", file=sys.stderr)
    if config_errors(diags):
        return EXIT_BAD_INPUT

    out_dir = Path(args.out)
    trace = TraceTarget(out_dir, args.format) if args.trace else None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        batch = run_batch(config, parallel=args.parallel, trace=trace)
        metrics_path = emit_results(batch, out_dir, fmt=args.format)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    print(format_summary(batch.runs))
    print(f"per-run metrics: {metrics_path}")
    if not batch.aggregate.converged_count:
        print("error: no run converged within max_rounds", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsim",
        description="Reputation-based master-worker computing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list built-in scenarios")

    run = sub.add_parser("run", help="run a scenario batch and emit metrics")
    run.add_argument("scenario", help="built-in scenario name or config file path")
    run.add_argument("--reputation", choices=["linear", "exponential", "boinc"],
                     help="truthfulness reputation type")
    run.add_argument("--pa-init", type=float, help="initial audit probability")
    run.add_argument("--seed", type=int, help="base seed (instantiation k uses base_seed + k)")
    run.add_argument("--runs", type=int, help="number of instantiations")
    run.add_argument("--horizon", type=int, help="rounds simulated past convergence")
    run.add_argument("--max-rounds", type=int, help="hard cap on rounds per run")
    run.add_argument("--trace", action="store_true",
                     help="also write a per-round trace file per run")
    run.add_argument("--out", default="results", help="output directory (default: results)")
    run.add_argument("--parallel", type=_at_least_one, default=1, metavar="K",
                     help="run up to K instantiations in parallel processes")
    run.add_argument("--format", choices=FORMATS, default="csv",
                     help="output format (default: csv)")
    run.add_argument("--set", action="append", metavar="PATH=VALUE",
                     help="dotted-path config override, e.g. mechanism.tolerance_tau=0.4")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
