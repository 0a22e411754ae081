"""Multi-round runs, convergence detection, batch aggregation, and the
long-run correctness property checks."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .master import RoundOutcome, RunState, run_master_round
from .model import (
    BufferedStream,
    ReplyValue,
    ReputationType,
    ScenarioConfig,
    WorkerType,
    config_errors,
    make_stream,
    validate_config,
)

__all__ = [
    "WorkerSnapshot",
    "RoundRecord",
    "TraceTarget",
    "TraceWriter",
    "RunMetrics",
    "MetricSummary",
    "AggregateStats",
    "BatchResult",
    "run_single",
    "run_batch",
    "Verdict",
    "TheoremReport",
    "check_theorem_1",
    "check_theorem_2",
]

# (column name in metrics files and summaries, RunMetrics attribute)
METRICS = (
    ("convergence_round", "convergence_round"),
    ("audits_to_convergence", "audits_to_convergence"),
    ("incorrect_before", "incorrect_before_convergence"),
    ("incorrect_after", "incorrect_after_convergence"),
    ("empty_after", "empty_rounds_after_convergence"),
)

# a trace row's columns, before one set of WorkerSnapshot columns per selected worker
TRACE_COLUMNS = ("round_index", "audit_prob", "audited", "accepted_value", "num_replies")
FORMATS = ("csv", "jsonl")  # of metrics and trace files


class WorkerSnapshot(NamedTuple):
    """State of one selected worker as of the end of a round; the fields are
    the per-worker trace columns."""

    id: int
    type: str
    cheat_prob: float
    rho_rs: float
    rho_tr: float


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    outcome: RoundOutcome
    snapshots: tuple[WorkerSnapshot, ...]
    audit_prob_before: float

    @property
    def audit_prob_after(self) -> float:
        return self.outcome.audit_prob_after


# Observer of a run, called after each round with the round index, the audit
# probability the round was played with, the outcome and the selected workers'
# snapshots; ``TraceWriter.write`` is one.
RoundObserver = Callable[[int, float, RoundOutcome, Sequence[WorkerSnapshot]], None]


def trace_header(slots: int) -> str:
    """The CSV header line of a trace whose rows carry ``slots`` workers."""
    columns = list(TRACE_COLUMNS)
    for k in range(slots):
        columns += [f"w{k}_{field}" for field in WorkerSnapshot._fields]
    return ",".join(columns) + "\n"


def trace_row(
    fmt: str,
    round_index: int,
    audit_prob: float,
    outcome: RoundOutcome,
    workers: Iterable[WorkerSnapshot],
) -> str:
    """One trace line: the round's columns, then each selected worker's
    ``WorkerSnapshot`` columns.

    The bytes are those of ``json.dumps`` on the row as a dict (workers as a
    list of dicts), or of a ``csv.writer`` with LF line ends on the flattened
    row: numbers by ``repr``, booleans as true/false, no accepted value as
    NONE. The numbers are finite, and type names need no quoting.
    """
    accepted = outcome.accepted_value
    value = "NONE" if accepted is None else accepted.value
    audited = "true" if outcome.audited else "false"
    replies = len(outcome.responders)
    if fmt == "csv":
        return (
            f"{round_index},{audit_prob!r},{audited},{value},{replies}"
            + "".join(f",{i},{t},{p!r},{rs!r},{tr!r}" for i, t, p, rs, tr in workers)
            + "\n"
        )
    return (
        f'{{"round_index": {round_index}, "audit_prob": {audit_prob!r}, "audited": {audited}, '
        f'"accepted_value": "{value}", "num_replies": {replies}, "workers": ['
        + ", ".join(
            f'{{"id": {i}, "type": "{t}", "cheat_prob": {p!r}, "rho_rs": {rs!r}, "rho_tr": {tr!r}}}'
            for i, t, p, rs, tr in workers
        )
        + "]}\n"
    )


class TraceWriter:
    """One run's trace file, written a row at a time by ``write``, a
    ``RoundObserver``. A CSV file's header names as many worker slots as the
    first row carries; a trace without rows is a bare header (CSV) or empty
    (JSON lines).
    """

    def __init__(self, path: Path, fmt: str = "csv"):
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        self.fmt = fmt
        self._fh = open(path, "w", newline="")
        self._header_due = fmt == "csv"

    def write(
        self,
        round_index: int,
        audit_prob: float,
        outcome: RoundOutcome,
        workers: Sequence[WorkerSnapshot],
    ) -> None:
        if self._header_due:
            self._fh.write(trace_header(len(workers)))
            self._header_due = False
        self._fh.write(trace_row(self.fmt, round_index, audit_prob, outcome, workers))

    def close(self) -> None:
        if self._header_due:
            self._fh.write(trace_header(0))
        self._fh.close()

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceTarget(NamedTuple):
    """Where a batch streams its traces: ``directory/trace_seed<seed>.<fmt>``."""

    directory: Path
    fmt: str = "csv"

    def path(self, seed: int) -> Path:
        return Path(self.directory) / f"trace_seed{seed}.{self.fmt}"


@dataclass(frozen=True)
class RunMetrics:
    """Summary of one run.

    ``convergence_round`` is the first round whose post-round audit
    probability sits exactly at the configured minimum; ``None`` means the
    run hit max_rounds without converging. Counts of accepted-WRONG rounds
    are split at the convergence round (the convergence round itself counts
    as "before"). A run violates eventual correctness when any
    post-convergence round accepted a wrong value or nothing at all, or when
    it never converged (its after-convergence counts are then zero).
    """

    seed: int
    convergence_round: int | None
    audits_to_convergence: int
    incorrect_before_convergence: int
    incorrect_after_convergence: int
    empty_rounds_after_convergence: int

    @property
    def not_converged(self) -> bool:
        return self.convergence_round is None

    @property
    def eventual_correctness_violated(self) -> bool:
        return (
            self.not_converged
            or self.incorrect_after_convergence > 0
            or self.empty_rounds_after_convergence > 0
        )


@dataclass(frozen=True)
class MetricSummary:
    minimum: float
    maximum: float
    mean: float
    median: float
    std: float


@dataclass(frozen=True)
class AggregateStats:
    """Per-metric statistics over the converged runs of a batch."""

    metrics: dict[str, MetricSummary]
    converged_count: int
    not_converged_count: int
    violated_count: int


@dataclass(frozen=True)
class BatchResult:
    seeds: tuple[int, ...]
    runs: tuple[RunMetrics, ...]
    aggregate: AggregateStats
    records: tuple[tuple[RoundRecord, ...], ...] | None = None


def _require_valid(config: ScenarioConfig) -> None:
    errors = config_errors(validate_config(config))
    if errors:
        detail = "; ".join(f"{d.field}: {d.message}" for d in errors)
        raise ValueError(f"invalid scenario config: {detail}")


def run_single(
    config: ScenarioConfig,
    seed: int,
    keep_records: bool = True,
    observer: RoundObserver | None = None,
) -> tuple[list[RoundRecord], RunMetrics]:
    """Run one seeded instantiation to convergence plus the configured
    horizon (or to max_rounds), returning the round trail and its metrics.

    With ``keep_records=False`` the trail is skipped and an empty list is
    returned; the metrics are identical either way. ``observer``, if given,
    sees every round as it is played (see ``RoundObserver``).
    """
    _require_valid(config)
    rng = make_stream(seed)
    state = RunState(config, rng)
    stream = BufferedStream(rng)  # after RunState, which may draw with Generator.choice
    type_names = [spec.worker_type.value for spec in state.specs]
    p_min = config.mechanism.audit_prob_min
    horizon = config.post_convergence_horizon

    records: list[RoundRecord] = []
    convergence_round: int | None = None
    audits_before_convergence = 0
    incorrect_before = 0
    incorrect_after = 0
    empty_after = 0

    for r in range(1, config.max_rounds + 1):
        audit_prob_before = state.audit_prob
        outcome = run_master_round(state, stream)
        if keep_records or observer is not None:
            snapshots = tuple(
                WorkerSnapshot(i, type_names[i], state.cheat_prob[i], state.resp[i],
                               state.truth[i])
                for i in outcome.selected
            )
            if observer is not None:
                observer(r, audit_prob_before, outcome, snapshots)
            if keep_records:
                records.append(RoundRecord(r, outcome, snapshots, audit_prob_before))

        accepted = outcome.accepted_value
        if convergence_round is None:
            if outcome.audited:
                audits_before_convergence += 1
            if accepted is ReplyValue.WRONG:
                incorrect_before += 1
            if state.audit_prob == p_min:
                convergence_round = r
        else:
            if accepted is ReplyValue.WRONG:
                incorrect_after += 1
            if accepted is None:
                empty_after += 1
            if r >= convergence_round + horizon:
                break

    metrics = RunMetrics(
        seed=seed,
        convergence_round=convergence_round,
        audits_to_convergence=audits_before_convergence,
        incorrect_before_convergence=incorrect_before,
        incorrect_after_convergence=incorrect_after,
        empty_rounds_after_convergence=empty_after,
    )
    return records, metrics


def _batch_task(args: tuple[ScenarioConfig, int, bool, TraceTarget | None]):
    """One run of a batch, in-process or in a pool worker; a traced run
    streams its rows to its own file as it plays."""
    config, seed, keep_records, trace = args
    if trace is None:
        records, metrics = run_single(config, seed, keep_records)
    else:
        with TraceWriter(trace.path(seed), trace.fmt) as writer:
            records, metrics = run_single(config, seed, keep_records, writer.write)
    return tuple(records), metrics


def converged_columns(runs: Sequence[RunMetrics]) -> dict[str, np.ndarray]:
    """Each metric column of ``METRICS`` over the converged runs, in run
    order; every array is empty when no run converged."""
    converged = [m for m in runs if not m.not_converged]
    return {
        name: np.asarray([getattr(m, attr) for m in converged], dtype=float)
        for name, attr in METRICS
    }


def aggregate_metrics(runs: list[RunMetrics]) -> AggregateStats:
    """Min/max/mean/median/std per metric over the converged runs."""
    columns = converged_columns(runs)
    converged = len(columns["convergence_round"])
    stats = {
        name: MetricSummary(
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            std=float(arr.std()),
        )
        for name, arr in columns.items()
    } if converged else {}
    return AggregateStats(
        metrics=stats,
        converged_count=converged,
        not_converged_count=len(runs) - converged,
        violated_count=sum(1 for m in runs if m.eventual_correctness_violated),
    )


def run_batch(
    config: ScenarioConfig,
    parallel: int = 1,
    keep_records: bool = False,
    trace: TraceTarget | None = None,
) -> BatchResult:
    """Run ``num_instantiations`` independent seeded runs and aggregate.

    Instantiation k runs on seed ``base_seed + k``. At most ``parallel``
    processes run at once, and never more than there are runs. Results are
    gathered and aggregated in seed order, so the outcome does not depend on
    ``parallel``. With ``trace``, each run writes its trace file as its
    rounds are played (a pool worker writes its own runs' files), so memory
    does not grow with the number of rounds; the directory is created if
    missing.
    """
    _require_valid(config)
    if trace is not None:
        Path(trace.directory).mkdir(parents=True, exist_ok=True)
    seeds = [config.seed_for(k) for k in range(config.num_instantiations)]
    tasks = [(config, seed, keep_records, trace) for seed in seeds]
    workers = min(parallel, len(tasks))
    if workers > 1:
        # under fork, the executor starts all max_workers processes at once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_task, tasks))
    else:
        results = [_batch_task(t) for t in tasks]
    runs = [metrics for _, metrics in results]
    return BatchResult(
        seeds=tuple(seeds),
        runs=tuple(runs),
        aggregate=aggregate_metrics(runs),
        records=tuple(records for records, _ in results) if keep_records else None,
    )


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INAPPLICABLE = "INAPPLICABLE"


@dataclass(frozen=True)
class TheoremReport:
    verdict: Verdict
    reason: str
    total_runs: int = 0
    converged_runs: int = 0
    violating_runs: int = 0

    @property
    def violating_fraction(self) -> float:
        return self.violating_runs / self.converged_runs if self.converged_runs else 0.0


def _check(
    config: ScenarioConfig,
    parallel: int,
    reputation_types: tuple[ReputationType, ...],
    judge: Callable[[int, int], tuple[Verdict, str]],
) -> TheoremReport:
    """Applicability tests shared by both theorems, then a batch tally of
    converged and violating runs; ``judge(converged, violating)`` gives the
    verdict and its reason."""
    workers = config.workers
    if any(w.worker_type is WorkerType.RATIONAL for w in workers):
        return TheoremReport(Verdict.INAPPLICABLE, "pool contains rational workers")
    if not any(w.worker_type is WorkerType.ALTRUISTIC and w.availability == 1.0 for w in workers):
        return TheoremReport(Verdict.INAPPLICABLE, "no altruistic worker with availability 1")
    if config.mechanism.reputation_type not in reputation_types:
        names = " or ".join(t.value for t in reputation_types)
        return TheoremReport(Verdict.INAPPLICABLE, f"reputation type must be {names}")

    runs = run_batch(config, parallel=parallel).runs
    converged = [m for m in runs if not m.not_converged]
    violating = sum(1 for m in converged if m.eventual_correctness_violated)
    verdict, reason = judge(len(converged), violating)
    return TheoremReport(verdict, reason, len(runs), len(converged), violating)


def check_theorem_1(config: ScenarioConfig, parallel: int = 1) -> TheoremReport:
    """Long-run correctness check for pools without rational workers under
    the forgiving reputation types.

    Applicable when the pool holds only altruistic/malicious workers, at
    least one altruistic worker is always available, and the truthfulness
    type is LINEAR or EXPONENTIAL. PASS means every converged run stayed free
    of post-convergence violations.
    """
    def judge(converged: int, violating: int) -> tuple[Verdict, str]:
        if not converged:
            return Verdict.FAIL, "no run converged"
        if violating == 0:
            return Verdict.PASS, "all converged runs violation-free"
        return Verdict.FAIL, (
            f"{violating}/{converged} converged runs accepted WRONG or NONE after convergence"
        )

    return _check(config, parallel, (ReputationType.LINEAR, ReputationType.EXPONENTIAL), judge)


def check_theorem_2(config: ScenarioConfig, parallel: int = 1) -> TheoremReport:
    """Directionality check for the streak-threshold reputation type.

    Applicable to altruistic/malicious pools with at least one always
    -available altruistic worker under BOINC truthfulness. When fewer than
    ``select_n`` altruistic workers are partially available, every converged
    run must be violation-free. Otherwise a violation is possible but not
    certain: the report carries the observed violating fraction, and PASS
    requires having seen at least one violating run (sample enough seeds).
    """
    partial_altruistic = sum(
        w.worker_type is WorkerType.ALTRUISTIC and w.availability < 1.0 for w in config.workers
    )

    def judge(converged: int, violating: int) -> tuple[Verdict, str]:
        if partial_altruistic < config.mechanism.select_n:
            if not converged:
                return Verdict.FAIL, "no run converged"
            return Verdict.PASS if violating == 0 else Verdict.FAIL, (
                f"{partial_altruistic} partially-available altruistic workers < n: "
                + ("violation-free as required" if violating == 0 else f"{violating} violating runs")
            )
        return Verdict.PASS if violating > 0 else Verdict.FAIL, (
            f"{partial_altruistic} partially-available altruistic workers >= n: violation has "
            f"positive probability; observed fraction {violating}/{converged}"
            + ("" if violating else " (none observed in this sample; try more seeds)")
        )

    return _check(config, parallel, (ReputationType.BOINC,), judge)
