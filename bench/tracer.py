"""Span tracer that wraps repsim's public functions at run time.

Nothing under ``src/`` is changed: :meth:`Tracer.install` replaces module
attributes and class methods of the imported ``repsim`` modules with timing
wrappers. A module-level function is replaced under every name any ``repsim``
module binds it to, so ``run_master_round`` reaches the wrapped
``select_workers`` through ``repsim.master``'s globals, and ``MasterState``
reaches the wrapped ``responsiveness``/``truthfulness`` the same way.

Each wrapper keeps, per function, the number of calls, the total span time
and the self time (span time minus the time covered by wrapped callees).
Stats are kept in memory and written as ``spans_<pid>.json`` into the
tracer's directory: by the launching process when it is done, and by each
forked pool worker whenever its outermost span closes (workers never return
to the launcher's code).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# (module, attribute path) of every wrapped function. A target a later
# version of repsim no longer has is reported as absent, not as an error.
TARGETS = (
    ("model", "validate_config"),
    ("model", "make_stream"),
    ("scenarios", "make_config"),
    ("scenarios", "build_scenario"),
    ("scenarios", "get_scenario"),
    ("reputation", "responsiveness"),
    ("reputation", "truthfulness"),
    ("worker", "WorkerState.draw_availability"),
    ("worker", "WorkerState.produce_reply"),
    ("worker", "WorkerState.update_cheat_prob"),
    ("master", "run_master_round"),
    ("master", "select_workers"),
    ("master", "select_top_n"),
    ("master", "decide_audit"),
    ("master", "accept_by_weighted_majority"),
    ("master", "update_audit_prob"),
    ("master", "assign_payoffs"),
    ("master", "MasterState.record_selection"),
    ("master", "MasterState.record_reply"),
    ("master", "MasterState.record_audit_outcome"),
    ("engine", "run_single"),
    ("engine", "run_batch"),
    ("engine", "aggregate_metrics"),
    ("cli", "emit_results"),
    ("cli", "write_metrics"),
    ("cli", "write_trace"),
    ("cli", "format_summary"),
)


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _count_round(counts: dict, args, kwargs, outcome) -> None:
    counts["rounds"] = counts.get("rounds", 0) + 1
    counts["audited"] = counts.get("audited", 0) + bool(getattr(outcome, "audited", False))
    counts["empty"] = counts.get("empty", 0) + (getattr(outcome, "accepted_value", 0) is None)
    counts["selections"] = counts.get("selections", 0) + len(getattr(outcome, "selected", ()))
    counts["replies"] = counts.get("replies", 0) + len(getattr(outcome, "responders", ()))


def _count_trace(counts: dict, args, kwargs, _result) -> None:
    records = args[0] if args else kwargs.get("records", ())
    path = args[1] if len(args) > 1 else kwargs.get("path")
    counts["trace_rows"] = counts.get("trace_rows", 0) + len(records)
    if path is not None and Path(path).exists():
        counts["trace_bytes"] = counts.get("trace_bytes", 0) + Path(path).stat().st_size


OBSERVERS = {
    "master.run_master_round": _count_round,
    "cli.write_trace": _count_trace,
}


class Tracer:
    """Calls and self time per wrapped function, plus observed counts."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._launcher_pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A pool worker starts with the launcher's stats and open spans;
        # it reports only its own work.
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._stack.clear()

    def install(self) -> None:
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"repsim.{module_name}")
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owners else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            fn = self._cpu_metered(original) if name == "engine.run_batch" else original
            wrapper = self._wrap(name, fn, OBSERVERS.get(name))
            if owners:
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repsim" or mod_name.startswith("repsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _cpu_metered(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def metered(*args, **kwargs):
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["batch_cpu_s"] = counts.get("batch_cpu_s", 0.0) + _cpu_s() - cpu0
                counts["batch_wall_s"] = (
                    counts.get("batch_wall_s", 0.0) + time.perf_counter() - wall0
                )

        return metered

    def _wrap(self, name: str, fn, observe):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt - child[0]
                st[2] += dt
                if stack:
                    stack[-1][0] += dt
                elif os.getpid() != self._launcher_pid:
                    self.dump()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def dump(self, extra: dict | None = None) -> None:
        payload = {
            "stats": self.stats,
            "counts": {**self.counts, **(extra or {})},
            "absent": self.absent,
        }
        tmp = self.out_dir / f".spans_{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.out_dir / f"spans_{os.getpid()}.json")


def merge_span_files(directories: list[Path]) -> dict:
    """Sum the span files of the process trees that wrote into directories."""
    stats: dict[str, list] = {}
    counts: dict[str, float] = {}
    absent: set[str] = set()
    for directory in directories:
        for path in sorted(Path(directory).glob("spans_*.json")):
            payload = json.loads(path.read_text())
            for name, triple in payload["stats"].items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                for j in range(3):
                    acc[j] += triple[j]
            for key, value in payload["counts"].items():
                counts[key] = counts.get(key, 0) + value
            absent.update(payload["absent"])
    return {"stats": stats, "counts": counts, "absent": sorted(absent)}
