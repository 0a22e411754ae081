"""Golden-output regression: the CLI's emitted bytes and the theorem checks'
reason strings, pinned against digests recorded from a reference build.

Any change here means the random streams, a metric, a file format or the
printed summary changed. Such a change must be deliberate and declared;
only then regenerate the pins with ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repsim import (
    SelectionPolicy,
    WorkerType,
    check_theorem_1,
    check_theorem_2,
    config_to_dict,
    save_config,
)
from repsim.cli import main
from repsim.scenarios import build_scenario, make_config

GOLDEN = Path(__file__).with_name("golden_digests.json")

PRESETS = ("S1", "S2", "S3", "S4", "S5", "S6", "p5-r5m4", "p9-r4m5", "p99-r1m8")
REPUTATIONS = ("linear", "exponential", "boinc")
FORMATS = ("csv", "jsonl")
COMMON = ["--runs", "3", "--horizon", "30", "--seed", "2024", "--trace"]

A, M = WorkerType.ALTRUISTIC, WorkerType.MALICIOUS
FIXED = SelectionPolicy.FIXED_RANDOM


def _config_files(tmp: Path) -> dict[str, Path]:
    """Hand-written configs for paths the presets do not reach: per-worker
    learning rates with a nonzero fine, and a pool that never converges."""
    s5 = build_scenario("S5", num_instantiations=3, post_convergence_horizon=30)
    s5 = config_to_dict(s5)
    for k, w in enumerate(s5["workers"]):
        w["learning_rate"] = 0.02 * (k + 1)
    s5["payoffs"]["punishment_WPc"] = 0.5
    frozen = make_config([(5, M, 1.0)], select_n=5, selection_policy=FIXED,
                         max_rounds=200, num_instantiations=2)
    paths = {"s5_learning_rates": tmp / "s5_lr.json", "frozen": tmp / "frozen.json"}
    paths["s5_learning_rates"].write_text(json.dumps(s5))
    save_config(frozen, paths["frozen"])
    return paths


def _cases(tmp: Path) -> dict[str, list[str]]:
    cases = {
        f"{preset}/{rep}/{fmt}": [preset, "--reputation", rep, "--format", fmt, *COMMON]
        for preset in PRESETS for rep in REPUTATIONS for fmt in FORMATS
    }
    cases["S3/linear/pa1/csv"] = ["S3", "--pa-init", "1.0", *COMMON]
    for name, path in _config_files(tmp).items():
        for fmt in FORMATS:
            cases[f"{name}/{fmt}"] = [str(path), "--format", fmt, "--trace"]
    return cases


def _batch_digest(argv: list[str], out: Path) -> str:
    """sha256 over the exit code, the printed summary and every emitted file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", *argv, "--out", str(out)])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for line in stdout.getvalue().splitlines(keepends=True):
        if not line.startswith("per-run metrics: "):
            h.update(line.encode())
    h.update(stderr.getvalue().encode())
    for path in sorted(out.iterdir()):
        h.update(f"\n== {path.name}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _theorem_configs() -> dict[str, object]:
    small = {"num_instantiations": 6, "post_convergence_horizon": 30}
    return {
        "S3/linear": build_scenario("S3", **small),
        "S3/boinc": build_scenario("S3", reputation_type="boinc", **small),
        "S3/linear/unconverged": build_scenario("S3", num_instantiations=3, max_rounds=3),
        "S3/boinc/unconverged": build_scenario("S3", reputation_type="boinc",
                                               num_instantiations=3, max_rounds=3),
        "S2/boinc": build_scenario("S2", reputation_type="boinc", **small),
        "S5/linear": build_scenario("S5", **small),
        "no-full-altruist": make_config([(9, A, 0.5)], **small),
        "fixed-partial/linear": make_config([(1, A, 1.0), (8, A, 0.3)],
                                            selection_policy=FIXED, **small),
        "fixed-partial/boinc": make_config([(1, A, 1.0), (8, A, 0.3)], reputation_type="boinc",
                                           selection_policy=FIXED, **small),
        "mixed/boinc": make_config([(1, A, 1.0), (3, A, 0.5), (5, M, 1.0)],
                                   reputation_type="boinc", **small),
    }


def _theorem_reports() -> dict[str, list]:
    out = {}
    for name, config in _theorem_configs().items():
        for check in (check_theorem_1, check_theorem_2):
            r = check(config)
            out[f"{check.__name__}/{name}"] = [
                r.verdict.value, r.reason, r.total_runs, r.converged_runs, r.violating_runs,
            ]
    return out


def _batch_digests(tmp: Path) -> dict[str, str]:
    return {
        name: _batch_digest(argv, tmp / "out" / name.replace("/", "_"))
        for name, argv in _cases(tmp).items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_emitted_outputs_match_golden_digests(tmp_path, golden):
    actual = _batch_digests(tmp_path)
    assert actual.keys() == golden["batches"].keys()
    changed = sorted(k for k in actual if actual[k] != golden["batches"][k])
    assert not changed, f"outputs changed for: {', '.join(changed)}"


def test_theorem_reports_match_golden(golden):
    assert _theorem_reports() == golden["theorems"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {"batches": _batch_digests(Path(tmp)), "theorems": _theorem_reports()}
        GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
