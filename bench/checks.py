"""Output checks of one emitted batch, and the digest of a workload's outputs.

The checks rest only on the documented file formats and on laws of the
model, never on repsim's own code:

* ``metrics.<fmt>`` has one well-formed row per instantiation, in seed order
  ``base_seed + k``, and its flags agree with its counts;
* the printed summary recomputes from those rows (median and quartiles over
  the converged runs, as the README promises);
* each trace has one row per round played (convergence round plus horizon,
  capped at ``max_rounds``), and its audited / WRONG / NONE rows agree with
  the run's counts before and after convergence;
* S1 (nine always-available altruists) under LINEAR or EXPONENTIAL
  truthfulness walks the audit staircase: every audit finds no cheater and
  lowers the audit probability by ``alpha_m * tau = 0.05``, so convergence
  takes exactly 10 audits from 0.5 and 20 from 1.0 under any random stream.
  BOINC is exempt: its truthfulness is zero for the first ten audits, so
  those audits raise the audit probability instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

METRICS_COLUMNS = (
    "seed",
    "convergence_round",
    "audits_to_convergence",
    "incorrect_before",
    "incorrect_after",
    "empty_after",
    "violated",
    "not_converged",
)
COUNT_COLUMNS = METRICS_COLUMNS[2:6]
SUMMARY_METRICS = ("convergence_round",) + COUNT_COLUMNS
STAIRCASE_AUDITS = {0.5: 10, 1.0: 20}
_HEAD = re.compile(
    r"runs: (\d+)\s+converged: (\d+)\s+not converged: (\d+)\s+violations: (\d+)$"
)


class BatchCheck:
    """Result of checking one batch: failed instantiations and outcomes."""

    def __init__(self, runs: int):
        self.runs = runs
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.rounds = 0
        self.not_converged = 0
        self.violated = 0

    def fail(self, why: str, runs=None) -> None:
        self.problems.append(why)
        self.failed.update(range(self.runs) if runs is None else runs)


def _parse_rows(path: Path, fmt: str) -> list[dict]:
    """Rows as dicts with int/None/bool values; raises ValueError if malformed."""
    rows = []
    with path.open(newline="") as fh:
        if fmt == "csv":
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != METRICS_COLUMNS:
                raise ValueError(f"columns {reader.fieldnames}")
            raw_rows = list(reader)
        else:
            raw_rows = [json.loads(line) for line in fh]
    for raw in raw_rows:
        if tuple(raw) != METRICS_COLUMNS:
            raise ValueError(f"keys {list(raw)}")
        row = {}
        for key in METRICS_COLUMNS:
            value = raw[key]
            if key in ("violated", "not_converged"):
                if fmt == "csv":
                    if value not in ("true", "false"):
                        raise ValueError(f"{key}={value!r}")
                    value = value == "true"
                elif not isinstance(value, bool):
                    raise ValueError(f"{key}={value!r}")
            elif key == "convergence_round" and value in ("", None):
                value = None
            else:
                value = int(value)
                if isinstance(raw[key], (bool, float)) or value < 0:
                    raise ValueError(f"{key}={raw[key]!r}")
            row[key] = value
        rows.append(row)
    return rows


def _row_problem(row: dict) -> str | None:
    conv = row["convergence_round"]
    if row["not_converged"] != (conv is None):
        return "not_converged disagrees with convergence_round"
    after = row["incorrect_after"] + row["empty_after"]
    if row["violated"] != (conv is None or after > 0):
        return "violated disagrees with the counts"
    if conv is None:
        return "post-convergence counts without convergence" if after else None
    if conv < 1 or row["audits_to_convergence"] > conv or row["incorrect_before"] > conv:
        return "counts exceed the convergence round"
    return None


def rounds_played(row: dict, spec: dict) -> int:
    conv = row["convergence_round"]
    if conv is None:
        return spec["max_rounds"]
    return min(conv + spec["horizon"], spec["max_rounds"])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def expected_summary(rows: list[dict]) -> list[str]:
    """The summary's content, as whitespace-separated tokens per line."""
    converged = [r for r in rows if not r["not_converged"]]
    violated = sum(r["violated"] for r in rows)
    lines = [
        f"runs: {len(rows)}  converged: {len(converged)}  "
        f"not converged: {len(rows) - len(converged)}  violations: {violated}"
    ]
    if not converged:
        lines.append("no converged runs; per-run metrics emitted, statistics skipped")
        return [" ".join(line.split()) for line in lines]
    lines.append("metric median q25 q75")
    for name in SUMMARY_METRICS:
        values = sorted(float(r[name]) for r in converged)
        stats = (_percentile(values, q) for q in (0.5, 0.25, 0.75))
        lines.append(" ".join([name, *(format(v, "g") for v in stats)]))
    return [" ".join(line.split()) for line in lines]


def _check_trace(path: Path, fmt: str, row: dict, expected_rounds: int) -> str | None:
    conv = row["convergence_round"]
    audits = wrong_before = wrong_after = empty_after = 0
    played = 0
    with path.open(newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            header = next(reader)
            i_round, i_audit, i_acc = (
                header.index(c) for c in ("round_index", "audited", "accepted_value")
            )
            records = ((int(r[i_round]), r[i_audit] == "true", r[i_acc]) for r in reader)
        else:
            records = (
                (d["round_index"], d["audited"] is True, d["accepted_value"])
                for d in map(json.loads, fh)
            )
        for round_index, audited, accepted in records:
            played += 1
            if round_index != played:
                return f"round {played} has index {round_index}"
            if conv is None or round_index <= conv:
                audits += audited
                wrong_before += accepted == "WRONG"
            else:
                wrong_after += accepted == "WRONG"
                empty_after += accepted == "NONE"
    if played != expected_rounds:
        return f"{played} trace rows for {expected_rounds} rounds played"
    if audits != row["audits_to_convergence"]:
        return f"{audits} audited rows up to convergence, metrics say {row['audits_to_convergence']}"
    if conv is not None and (wrong_before, wrong_after, empty_after) != (
        row["incorrect_before"], row["incorrect_after"], row["empty_after"]
    ):
        return "WRONG/NONE rows disagree with the metrics"
    return None


def check_batch(batch_dir: Path, spec: dict, summary_lines: list[str]) -> BatchCheck:
    """Check one batch's emitted files and printed summary."""
    result = BatchCheck(spec["runs"])
    fmt = spec["format"]
    try:
        rows = _parse_rows(batch_dir / f"metrics.{fmt}", fmt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail(f"metrics file unreadable: {exc}")
        return result
    seeds = [spec["seed"] + k for k in range(spec["runs"])]
    if [r["seed"] for r in rows] != seeds:
        result.fail("metrics rows are not one per seed, in seed order")
        return result

    got = [" ".join(line.split()) for line in summary_lines if line.strip()]
    if got != expected_summary(rows):
        result.fail("printed summary does not recompute from the metrics rows")

    staircase = None
    if spec["preset"] == "S1" and spec["reputation"] in ("linear", "exponential"):
        staircase = STAIRCASE_AUDITS[spec["pa_init"]]
    for k, row in enumerate(rows):
        expected_rounds = rounds_played(row, spec)
        result.rounds += expected_rounds
        result.not_converged += row["not_converged"]
        result.violated += row["violated"]
        problem = _row_problem(row)
        if problem is None and staircase is not None and row["audits_to_convergence"] != staircase:
            problem = f"S1 staircase broken: {row['audits_to_convergence']} audits, expected {staircase}"
        if problem is None and spec["trace"]:
            path = batch_dir / f"trace_seed{row['seed']}.{fmt}"
            try:
                problem = _check_trace(path, fmt, row, expected_rounds)
            except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
                problem = f"trace unreadable: {exc!r}"
        if problem is not None:
            result.fail(f"seed {row['seed']}: {problem}", [k])
    return result


def digest(paths: list[Path], base: Path) -> str:
    """sha256 over the relative names and contents of every file under paths."""
    h = hashlib.sha256()
    for top in paths:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for path in files:
            h.update(str(path.relative_to(base)).encode() + b"\0")
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            h.update(b"\0")
    return h.hexdigest()
