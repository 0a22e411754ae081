"""Domain types, scenario configuration, validation, and seeded randomness.

Everything downstream (the reputation scores, the master's round, the run
engine) shares the types defined here. A :class:`ScenarioConfig` is a plain,
JSON-serializable value object; two runs built from equal configs and equal
seeds produce identical round streams.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import random
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, get_args, get_origin, get_type_hints

__all__ = [
    "WorkerType",
    "ReplyValue",
    "ReputationType",
    "SelectionPolicy",
    "WorkerSpec",
    "PayoffParams",
    "MechanismParams",
    "ScenarioConfig",
    "Diagnostic",
    "validate_config",
    "make_stream",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
]


class WorkerType(str, Enum):
    MALICIOUS = "MALICIOUS"
    ALTRUISTIC = "ALTRUISTIC"
    RATIONAL = "RATIONAL"


class ReplyValue(str, Enum):
    """Abstract task result: one correct value, one (shared) incorrect value."""

    CORRECT = "CORRECT"
    WRONG = "WRONG"


class ReputationType(str, Enum):
    LINEAR = "LINEAR"
    EXPONENTIAL = "EXPONENTIAL"
    BOINC = "BOINC"


class SelectionPolicy(str, Enum):
    REPUTATION = "REPUTATION"
    FIXED_RANDOM = "FIXED_RANDOM"


@dataclass(frozen=True)
class WorkerSpec:
    """Static description of one worker in the pool.

    ``initial_cheat_prob`` is only meaningful for RATIONAL workers; malicious
    and altruistic workers have hardwired behavior. ``learning_rate`` is an
    optional per-worker override of the shared worker learning rate.
    """

    worker_id: int
    worker_type: WorkerType
    availability: float = 1.0
    aspiration: float = 0.1
    initial_cheat_prob: float = 0.5
    learning_rate: float | None = None


@dataclass(frozen=True)
class PayoffParams:
    """Worker-side payoff constants."""

    punishment_WPc: float = 0.0
    task_cost_WCt: float = 0.1
    reward_WBy: float = 1.0


@dataclass(frozen=True)
class MechanismParams:
    """Parameters of the master's selection/audit mechanism."""

    pool_size_N: int
    select_n: int
    audit_prob_initial: float = 0.5
    audit_prob_min: float = 0.01
    tolerance_tau: float = 0.5
    master_learning_rate_alpha_m: float = 0.1
    worker_learning_rate_alpha_w: float = 0.1
    reputation_type: ReputationType = ReputationType.LINEAR
    exponential_base_epsilon: float = 0.5
    selection_policy: SelectionPolicy = SelectionPolicy.REPUTATION


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, self-contained description of a batch of simulation runs."""

    workers: tuple[WorkerSpec, ...]
    payoffs: PayoffParams
    mechanism: MechanismParams
    num_instantiations: int = 100
    max_rounds: int = 50_000
    post_convergence_horizon: int = 500
    base_seed: int = 1729

    def seed_for(self, k: int) -> int:
        """Seed of instantiation ``k``; each instantiation owns its stream."""
        return (self.base_seed + k) % (1 << 64)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    field: str
    message: str


ERROR = "error"
WARNING = "warning"


def _probability(x: float) -> bool:
    return 0.0 <= x <= 1.0


def validate_config(config: ScenarioConfig) -> list[Diagnostic]:
    """Check every structural invariant of a scenario.

    Returns one diagnostic per violation, naming the offending field. The
    participation condition (reward minus task cost must cover the largest
    aspiration in the pool) is reported as a warning; everything else is an
    error. A NaN or infinite parameter gets one "must be finite" error and no
    range error. An empty list means the config is fully valid.
    """
    sections = [("mechanism", config.mechanism), ("payoffs", config.payoffs)]
    sections += [(f"workers[{w.worker_id}]", w) for w in config.workers]
    nonfinite = [
        f"{tag}.{name}"
        for tag, section in sections
        for name, value in vars(section).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    diags = [
        Diagnostic(ERROR, name, f"{name.rsplit('.', 1)[1]} must be finite") for name in nonfinite
    ]

    def err(field: str, message: str) -> None:
        if field not in nonfinite:
            diags.append(Diagnostic(ERROR, field, message))

    m = config.mechanism
    for name in ("pool_size_N", "select_n"):
        if getattr(m, name) < 1:
            err(f"mechanism.{name}", f"{name} must be >= 1")
    if m.select_n > m.pool_size_N:
        err("mechanism.select_n", "select_n must be <= pool_size_N")
    elif m.selection_policy is SelectionPolicy.REPUTATION and m.select_n == m.pool_size_N:
        err("mechanism.select_n", "select_n must be < pool_size_N under REPUTATION selection")
    if not 0.0 < m.audit_prob_min <= 1.0:
        err("mechanism.audit_prob_min", "audit_prob_min must be in (0, 1]")
    if not _probability(m.audit_prob_initial):
        err("mechanism.audit_prob_initial", "audit_prob_initial must be in [0, 1]")
    elif 0.0 < m.audit_prob_min <= 1.0 and m.audit_prob_initial < m.audit_prob_min:
        err("mechanism.audit_prob_initial", "audit_prob_initial must be >= audit_prob_min")
    if not _probability(m.tolerance_tau):
        err("mechanism.tolerance_tau", "tolerance_tau must be in [0, 1]")
    if m.master_learning_rate_alpha_m <= 0.0:
        err("mechanism.master_learning_rate_alpha_m", "master learning rate must be > 0")
    if m.worker_learning_rate_alpha_w <= 0.0:
        err("mechanism.worker_learning_rate_alpha_w", "worker learning rate must be > 0")
    if not 0.0 < m.exponential_base_epsilon < 1.0:
        err("mechanism.exponential_base_epsilon", "exponential_base_epsilon must be in (0, 1)")

    if len(config.workers) != m.pool_size_N:
        err("workers", f"expected {m.pool_size_N} workers, got {len(config.workers)}")
    ids = sorted(w.worker_id for w in config.workers)
    if ids != list(range(len(config.workers))):
        err("workers", "worker_ids must be distinct and dense in [0, N)")

    for w in config.workers:
        tag = f"workers[{w.worker_id}]"
        if not 0.0 < w.availability <= 1.0:
            err(f"{tag}.availability", "availability must be > 0 and <= 1")
        if not _probability(w.initial_cheat_prob):
            err(f"{tag}.initial_cheat_prob", "initial_cheat_prob must be in [0, 1]")
        if w.aspiration < 0.0:
            err(f"{tag}.aspiration", "aspiration must be >= 0")
        if w.learning_rate is not None and w.learning_rate <= 0.0:
            err(f"{tag}.learning_rate", "learning_rate override must be > 0")

    p = config.payoffs
    for name in ("punishment_WPc", "task_cost_WCt", "reward_WBy"):
        if getattr(p, name) < 0.0:
            err(f"payoffs.{name}", f"{name} must be >= 0")
    if config.workers:
        max_aspiration = max(w.aspiration for w in config.workers)
        if p.reward_WBy - p.task_cost_WCt < max_aspiration:
            diags.append(Diagnostic(
                WARNING,
                "payoffs.reward_WBy",
                "participation condition violated: reward_WBy - task_cost_WCt "
                f"({p.reward_WBy - p.task_cost_WCt!r}) is below the maximum aspiration "
                f"({max_aspiration!r})",
            ))

    for name in ("num_instantiations", "max_rounds", "post_convergence_horizon"):
        if getattr(config, name) < 1:
            err(name, f"{name} must be >= 1")

    return diags


def config_errors(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == ERROR]


def make_stream(seed: int) -> random.Random:
    """Seeded random stream: same seed, same draw sequence, bit for bit. Draw
    only with ``random()``, whose sequence Python fixes for an integer seed."""
    return random.Random(seed % (1 << 64))


# --- serialization ----------------------------------------------------------
#
# The on-disk format is a JSON object whose keys mirror ScenarioConfig field
# names exactly; enums are stored as their string names. See README for the
# documented schema.


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a config dataclass; None for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _json_value(v: Any) -> Any:
    """A config value as JSON data: a section as an object of its fields, a
    tuple of sections as an array, an enum as its name."""
    names = _field_names(type(v))
    if names is not None:
        return {name: _json_value(getattr(v, name)) for name in names}
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v.value if isinstance(v, Enum) else v


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    return _json_value(config)


def _scalar(tp: type) -> Callable[[Any], Any]:
    """Strict JSON scalar -> ``tp``: an int field takes integers and
    integral floats, a float field any number, an enum field one of its
    names; anything else (bools and strings included) raises TypeError."""
    if issubclass(tp, Enum):
        def enum(v: Any) -> Enum:
            try:
                return tp(v)
            except ValueError as exc:
                raise TypeError(exc) from None

        return enum

    def number(v: Any) -> Any:
        if type(v) is tp:
            return v
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or (
            tp is int and not isinstance(v, numbers.Integral) and not float(v).is_integer()
        ):
            raise TypeError(f"expected {'an integer' if tp is int else 'a number'}, got {v!r}")
        return tp(v)

    return number


def _converter(tp: Any, name: str) -> Callable[[Any], Any]:
    """JSON value -> value of field ``name`` annotated ``tp``."""
    if is_dataclass(tp):
        return lambda v: _parse(tp, v, name, name)
    if get_origin(tp) is tuple:  # an array of sections: "workers" of "worker"s
        item = get_args(tp)[0]

        def array(v: Any) -> tuple:
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{name} must be a JSON array")
            return tuple(_parse(item, x, f"{name}[{k}]", name[:-1]) for k, x in enumerate(v))

        return array
    if get_args(tp):  # ``float | None``
        convert = _scalar(get_args(tp)[0])
        return lambda v: None if v is None else convert(v)
    return _scalar(tp)


@functools.cache
def _schema(cls: type) -> dict[str, tuple[Callable[[Any], Any], bool, bool]]:
    """Per field of a config dataclass: its converter from JSON, whether it
    has a default, and whether it is a section whose own fields all have
    defaults (so the whole section may be omitted)."""
    hints = get_type_hints(cls)
    return {
        f.name: (
            _converter(hints[f.name], f.name),
            f.default is not MISSING,
            is_dataclass(hints[f.name])
            and all(g.default is not MISSING for g in fields(hints[f.name])),
        )
        for f in fields(cls)
    }


def _parse(cls: type, d: Any, path: str, label: str) -> Any:
    """Build dataclass ``cls`` from the JSON object ``d``; an absent field
    takes its default. ``path`` names ``d`` in shape errors, ``label`` in
    unknown-, missing- and invalid-field errors."""
    if not isinstance(d, dict):
        raise ValueError(f"{path} must be a JSON object")
    schema = _schema(cls)
    unknown = d.keys() - schema.keys()
    if unknown:
        raise ValueError(f"unknown {label} field(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, (convert, has_default, omissible) in schema.items():
        if name in d:
            try:
                kwargs[name] = convert(d[name])
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"invalid {label} field {name}: {exc}") from None
        elif omissible:
            kwargs[name] = convert({})
        elif not has_default:
            raise ValueError(f"missing required {label} field: {name}")
    return cls(**kwargs)


def config_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """Parse a config dict; raises ValueError on unknown, missing or
    wrong-shaped fields."""
    return _parse(ScenarioConfig, d, "config", "config")


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a config file; raises ValueError naming the file when it cannot be
    decoded or parsed, and as ``config_from_dict`` does."""
    name = f"config file {str(path)!r}"
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name} cannot be decoded: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{name} is nested too deeply") from None
    return config_from_dict(d)
