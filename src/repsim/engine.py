"""Multi-round runs with their round records and trace files, convergence
detection, batch aggregation, and the long-run correctness property checks."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .master import RunState, play
from .model import (
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


# Observer of a run, called after each round with its record; a traced run
# renders its rows from the run's columns instead (see ``trace_rows``), so it
# builds records only when they are kept or an observer is passed.
RoundObserver = Callable[[RoundRecord], None]


def trace_header(slots: int) -> str:
    """The CSV header line of a trace whose rows carry ``slots`` workers."""
    columns = list(TRACE_COLUMNS)
    for k in range(slots):
        columns += [f"w{k}_{field}" for field in WorkerSnapshot._fields]
    return ",".join(columns) + "\n"


def trace_rows(fmt: str, state: RunState) -> Callable[..., str]:
    """A renderer of one run's trace lines, called after each round with the
    round's columns (``audit_prob`` is the probability the round was played
    with); each selected worker's ``WorkerSnapshot`` columns are read by id
    from ``state``'s ``type_name``, ``cheat_prob``, ``resp`` and ``truth``
    as they stand at the call, the end of the round.

    The bytes are those of ``json.dumps`` on the row as a dict (workers as a
    list of dicts), or of a ``csv.writer`` with LF line ends on the flattened
    row: numbers by ``repr``, booleans as true/false, no accepted value as
    NONE. The numbers are finite, and type names need no quoting.

    Within a run only ``rho_rs`` is a new float in nearly every row, so the
    renderer keeps, per worker id, the text before it (id, type,
    ``cheat_prob``) and the text after it (``rho_tr``), and the last
    ``audit_prob``'s text, each with the objects it was rendered from, and
    renders a piece again only when a column holds a different object. A
    cached text is the ``repr`` of the very object it is compared with (held,
    so its identity is not reused), so every row has the bytes of rendering
    each value afresh, ``-0.0`` included; the state is one entry per worker id.
    A format other than those in ``FORMATS`` raises ``ValueError`` here.
    """
    if fmt == "csv":
        head, tail = ",{},{},{!r},".format, ",{!r}".format
    elif fmt == "jsonl":
        head = '{{"id": {}, "type": "{}", "cheat_prob": {!r}, "rho_rs": '.format
        tail = ', "rho_tr": {!r}}}'.format
    else:
        raise ValueError(f"unknown format {fmt!r}")
    type_name, cheat_prob, resp, truth = state.type_name, state.cheat_prob, state.resp, state.truth
    heads: dict[int, tuple[str, float, str]] = {}  # id -> (type, cheat_prob, text)
    tails: dict[int, tuple[float, str]] = {}  # id -> (rho_tr, text)
    last_audit_prob, audit_text = None, repr(None)  # as every cached text: the object's repr

    def render(round_index: int, audit_prob: float, audited: bool,
               accepted: ReplyValue | None, selected: Sequence[int], replies: int) -> str:
        nonlocal last_audit_prob, audit_text
        if audit_prob is not last_audit_prob:
            last_audit_prob, audit_text = audit_prob, repr(audit_prob)
        cells = []
        for i in selected:
            t, p, tr = type_name[i], cheat_prob[i], truth[i]
            h = heads.get(i)
            if h is None or h[0] is not t or h[1] is not p:
                h = heads[i] = (t, p, head(i, t, p))
            r = tails.get(i)
            if r is None or r[0] is not tr:
                r = tails[i] = (tr, tail(tr))
            cells.append(h[2] + repr(resp[i]) + r[1])
        value = "NONE" if accepted is None else accepted.value
        audited_text = "true" if audited else "false"
        if fmt == "csv":
            return f"{round_index},{audit_text},{audited_text},{value},{replies}{''.join(cells)}\n"
        return (
            f'{{"round_index": {round_index}, "audit_prob": {audit_text}, '
            f'"audited": {audited_text}, "accepted_value": "{value}", "num_replies": {replies}, '
            '"workers": [' + ", ".join(cells) + "]}\n"
        )

    return render


class TraceTarget(NamedTuple):
    """Where a batch streams its traces: ``directory/trace_seed<seed>.<fmt>``."""

    directory: Path
    fmt: str = "csv"

    def path(self, seed: int) -> Path:
        return Path(self.directory) / f"trace_seed{seed}.{self.fmt}"


@dataclass(frozen=True, slots=True)
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
    """Raise ValueError if the config has errors."""
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
    sees every round as it is played (see ``RoundObserver``). An invalid
    config raises ``ValueError``.
    """
    _require_valid(config)
    return _run(config, seed, keep_records, observer)


def _run(config: ScenarioConfig, seed: int, keep_records: bool,
         observer: RoundObserver | None, write: Callable[[str], object] | None = None,
         fmt: str = "csv") -> tuple[list[RoundRecord], RunMetrics]:
    """``run_single`` on a config the caller has already validated; with
    ``write``, each round's ``trace_rows(fmt, ...)`` row is passed to it."""
    rng = make_stream(seed)
    state = RunState(config)
    p_min = config.mechanism.audit_prob_min
    horizon = config.post_convergence_horizon
    WRONG = ReplyValue.WRONG

    records: list[RoundRecord] = []
    recording = keep_records or observer is not None
    row = None if write is None else trace_rows(fmt, state)
    observed = recording or row is not None
    convergence_round: int | None = None
    audits_before_convergence = 0
    incorrect_before = 0
    incorrect_after = 0
    empty_after = 0

    audit_prob = state.audit_prob
    # The records are built with ``tuple.__new__``, as ``NamedTuple._make``
    # does: the classes' generated Python-level ``__new__`` costs about as
    # much again.
    new = tuple.__new__
    type_name, cheat_prob, resp, truth = state.type_name, state.cheat_prob, state.resp, state.truth
    rounds = zip(range(1, config.max_rounds + 1), play(state, rng))
    for r, (audited, accepted, selected, responders, cheats, pays) in rounds:
        audit_prob_before, audit_prob = audit_prob, state.audit_prob
        if observed:  # the one per-round test of an untraced, unrecorded run
            if row is not None:
                write(row(r, audit_prob_before, audited, accepted, selected, len(responders)))
            if recording:
                caught = tuple(i for i, c in zip(responders, cheats) if c) if audited else ()
                outcome = new(RoundOutcome, (tuple(selected), tuple(responders), audited, caught,
                                             accepted, dict(zip(responders, pays)), audit_prob))
                snapshots = tuple([
                    new(WorkerSnapshot, (i, type_name[i], cheat_prob[i], resp[i], truth[i]))
                    for i in selected
                ])
                record = new(RoundRecord, (r, outcome, snapshots, audit_prob_before))
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


def _batch_task(config: ScenarioConfig, keep_records: bool, trace: TraceTarget | None,
                seed: int):
    """One run of a batch on its validated config, in-process or in a pool
    worker; a traced run streams its rows to its own file as it plays."""
    if trace is None:
        records, metrics = _run(config, seed, keep_records, None)
    else:
        with open(trace.path(seed), "w", newline="") as fh:
            if trace.fmt == "csv":  # every round selects select_n workers
                fh.write(trace_header(config.mechanism.select_n))
            records, metrics = _run(config, seed, keep_records, None, fh.write, trace.fmt)
    return tuple(records), metrics


def aggregate_metrics(runs: Sequence[RunMetrics]) -> AggregateStats:
    """Every statistic and count a batch reports, from each metric's column
    over the converged runs; no statistics when no run converged. The columns
    are integer counts, so their sums are exact and each statistic is one
    rounding of an exact value: the mean, the population variance under the
    standard deviation's square root, and the quartiles, which interpolate
    linearly between the two nearest ranks."""
    converged = [m for m in runs if not m.not_converged]
    n = len(converged)
    stats = {}
    for name, attr in METRICS if converged else ():
        column = sorted(getattr(m, attr) for m in converged)
        s1, s2 = sum(column), sum(v * v for v in column)
        lo, q25, median, q75, hi = (
            (column[i] * (4 - f) + column[min(i + 1, n - 1)] * f) / 4
            for i, f in (divmod((n - 1) * k, 4) for k in range(5))
        )
        std = math.sqrt((n * s2 - s1 * s1) / (n * n))
        stats[name] = MetricSummary(lo, hi, s1 / n, median, std, q25, q75)
    return AggregateStats(
        metrics=stats,
        converged_count=n,
        not_converged_count=len(runs) - n,
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
    own runs' files), so memory does not grow with the number of rounds. The
    config is validated once for all runs: an invalid one, or an unknown
    ``trace.fmt``, raises ``ValueError`` before the directory, created if
    missing, or any process is made.
    """
    _require_valid(config)
    if trace is not None:
        if trace.fmt not in FORMATS:
            raise ValueError(f"unknown format {trace.fmt!r}")
        Path(trace.directory).mkdir(parents=True, exist_ok=True)
    seeds = [config.seed_for(k) for k in range(config.num_instantiations)]
    task = partial(_batch_task, config, keep_records, trace)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms that cannot tell which CPUs this process may use
        cpus = os.cpu_count() or 1
    workers = min(parallel, len(seeds), cpus)
    if workers > 1:
        # imported here, as only a pool needs it (about 0.03 s of start-up)
        from concurrent.futures.process import ProcessPoolExecutor

        # under fork, the executor starts all max_workers processes at once;
        # a chunk of seeds is one work item (one pickled config), 8 per worker
        chunksize = math.ceil(len(seeds) / (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, seeds, chunksize=chunksize))
    else:
        results = list(map(task, seeds))
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
