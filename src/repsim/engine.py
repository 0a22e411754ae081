"""Multi-round runs with their round records and trace files, convergence
detection, batch aggregation, and the long-run correctness property checks."""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .master import RunState, play
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
    "RoundOutcome",
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


class RoundOutcome(NamedTuple):
    """Everything observable about one completed round.

    ``payoffs`` holds only delivered payoffs: selected workers that did not
    reply receive nothing and perform no learning update. On audited rounds
    the accepted value is always CORRECT (the master computed the task
    itself); an unaudited round with no replies accepts nothing (``None``).
    """

    selected: tuple[int, ...]
    responders: tuple[int, ...]
    audited: bool
    cheaters_caught: tuple[int, ...]
    accepted_value: ReplyValue | None
    payoffs: dict[int, float]
    audit_prob_after: float


class WorkerSnapshot(NamedTuple):
    """State of one selected worker as of the end of a round; the fields are
    the per-worker trace columns."""

    id: int
    type: str
    cheat_prob: float
    rho_rs: float
    rho_tr: float


class RoundRecord(NamedTuple):
    """One played round, as observers see it, kept trails hold it and trace
    rows render it; ``audit_prob_before`` is the probability it was played with."""

    round_index: int
    outcome: RoundOutcome
    snapshots: tuple[WorkerSnapshot, ...]
    audit_prob_before: float

    @property
    def audit_prob_after(self) -> float:
        return self.outcome.audit_prob_after


# Observer of a run, called after each round with its record;
# ``TraceWriter.write`` is one.
RoundObserver = Callable[[RoundRecord], None]


def trace_header(slots: int) -> str:
    """The CSV header line of a trace whose rows carry ``slots`` workers."""
    columns = list(TRACE_COLUMNS)
    for k in range(slots):
        columns += [f"w{k}_{field}" for field in WorkerSnapshot._fields]
    return ",".join(columns) + "\n"


def trace_row(fmt: str, record: RoundRecord) -> str:
    """One trace line: the round's columns (``audit_prob`` is the
    probability the round was played with), then each selected worker's
    ``WorkerSnapshot`` columns.

    The bytes are those of ``json.dumps`` on the row as a dict (workers as a
    list of dicts), or of a ``csv.writer`` with LF line ends on the flattened
    row: numbers by ``repr``, booleans as true/false, no accepted value as
    NONE. The numbers are finite, and type names need no quoting.
    """
    round_index, outcome, workers, audit_prob = record
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

    def write(self, record: RoundRecord) -> None:
        if self._header_due:
            self._fh.write(trace_header(len(record.snapshots)))
            self._header_due = False
        self._fh.write(trace_row(self.fmt, record))

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
    """One metric over a batch's converged runs; ``std`` is the population
    standard deviation and the quartiles interpolate linearly."""

    minimum: float
    maximum: float
    mean: float
    median: float
    std: float
    q25: float
    q75: float


@dataclass(frozen=True)
class AggregateStats:
    """Per-metric statistics over the converged runs of a batch, and the
    batch's run counts; ``violated_count`` includes every run that never
    converged (see ``RunMetrics.eventual_correctness_violated``)."""

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
    WRONG = ReplyValue.WRONG

    records: list[RoundRecord] = []
    recording = keep_records or observer is not None
    convergence_round: int | None = None
    audits_before_convergence = 0
    incorrect_before = 0
    incorrect_after = 0
    empty_after = 0

    audit_prob = state.audit_prob
    rounds = zip(range(1, config.max_rounds + 1), play(state, stream))
    for r, (audited, accepted, selected, responders, cheats, pays) in rounds:
        audit_prob_before, audit_prob = audit_prob, state.audit_prob
        if recording:
            caught = tuple(i for i, c in zip(responders, cheats) if c) if audited else ()
            outcome = RoundOutcome(tuple(selected), tuple(responders), audited, caught,
                                   accepted, dict(zip(responders, pays)), audit_prob)
            snapshots = tuple(
                WorkerSnapshot(i, type_names[i], state.cheat_prob[i], state.resp[i],
                               state.truth[i])
                for i in selected
            )
            record = RoundRecord(r, outcome, snapshots, audit_prob_before)
            if observer is not None:
                observer(record)
            if keep_records:
                records.append(record)

        if convergence_round is None:
            if audited:
                audits_before_convergence += 1
            if accepted is WRONG:
                incorrect_before += 1
            if audit_prob == p_min:
                convergence_round = r
        else:
            if accepted is WRONG:
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


def aggregate_metrics(runs: Sequence[RunMetrics]) -> AggregateStats:
    """Every statistic and count a batch reports, in one pass over a
    (metric x converged run) table; no statistics when no run converged."""
    converged = [m for m in runs if not m.not_converged]
    stats = {}
    if converged:
        table = np.array([[getattr(m, attr) for m in converged] for _, attr in METRICS],
                         dtype=float)
        quantiles = np.percentile(table, (0, 25, 50, 75, 100), axis=1).T.tolist()
        means, stds = table.mean(axis=1).tolist(), table.std(axis=1).tolist()
        rows = zip(METRICS, quantiles, means, stds)
        for (name, _), (lo, q25, median, q75, hi), mean, std in rows:
            stats[name] = MetricSummary(lo, hi, mean, median, std, q25, q75)
    return AggregateStats(
        metrics=stats,
        converged_count=len(converged),
        not_converged_count=len(runs) - len(converged),
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
    processes run at once, and never more than there are runs or CPUs this
    process may use. Results are gathered and aggregated in seed order, so
    the outcome does not depend on ``parallel``. With ``trace``, each run
    writes its trace file as its rounds are played (a pool worker writes its
    own runs' files), so memory does not grow with the number of rounds; the
    directory is created if missing.
    """
    _require_valid(config)
    if trace is not None:
        Path(trace.directory).mkdir(parents=True, exist_ok=True)
    seeds = [config.seed_for(k) for k in range(config.num_instantiations)]
    tasks = [(config, seed, keep_records, trace) for seed in seeds]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms that cannot tell which CPUs this process may use
        cpus = os.cpu_count() or 1
    workers = min(parallel, len(tasks), cpus)
    if workers > 1:
        # imported here, as only a pool needs it (about 0.03 s of start-up)
        from concurrent.futures.process import ProcessPoolExecutor

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

    batch = run_batch(config, parallel=parallel)
    agg = batch.aggregate
    # every run that never converged counts as violated; the theorems judge the others
    violating = agg.violated_count - agg.not_converged_count
    verdict, reason = judge(agg.converged_count, violating)
    return TheoremReport(verdict, reason, len(batch.runs), agg.converged_count, violating)


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
