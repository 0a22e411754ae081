"""Child-side entry points of the benchmark; ``run_bench.py`` spawns these.

    python bench/probe.py setup SPECS.json
        Set-up only: import repsim (numpy included), resolve and validate
        every batch config in SPECS.json, print versions and config hashes.
    python bench/probe.py [--spans DIR] lib SPECS.json OUT_DIR
        Library path: for each batch, the same set-up, then ``run_batch`` and
        ``emit_results`` into OUT_DIR/<batch out>, and the CLI's summary of
        the batch on stdout under a ``== <batch out>`` header.
    python bench/probe.py --spans DIR cli ARGV...
        ``repsim.cli.main(ARGV)`` with the tracer installed.

With ``--spans`` the tracer wraps repsim's public functions and writes its
span files into DIR. Untraced CLI runs do not come through here: they run
``python -m repsim.cli`` directly.

A batch spec is a JSON object with the keys ``preset``, ``reputation``,
``pa_init``, ``seed``, ``runs``, ``horizon``, ``max_rounds``, ``format``,
``trace``, ``parallel`` and ``out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path


def resolve(spec: dict):
    """Build, round-trip through the config schema (as the CLI does) and
    validate one batch config; returns it with its canonical-JSON sha256."""
    from repsim import model, scenarios

    config = scenarios.build_scenario(
        spec["preset"],
        reputation_type=spec["reputation"],
        audit_prob_initial=spec["pa_init"],
        num_instantiations=spec["runs"],
        post_convergence_horizon=spec["horizon"],
        max_rounds=spec["max_rounds"],
        base_seed=spec["seed"],
    )
    as_dict = model.config_to_dict(config)
    config = model.config_from_dict(as_dict)
    errors = [d for d in model.validate_config(config) if d.severity == "error"]
    if errors:
        raise SystemExit(f"invalid config for {spec['out']}: {errors}")
    canonical = json.dumps(as_dict, sort_keys=True, separators=(",", ":"))
    return config, hashlib.sha256(canonical.encode()).hexdigest()


def _setup(specs: list[dict]) -> int:
    import numpy
    import repsim
    import repsim.cli  # noqa: F401  (the CLI's import set)

    hashes = {spec["out"]: resolve(spec)[1] for spec in specs}
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repsim": getattr(repsim, "__version__", None),
        "config_sha256": hashes,
    }))
    return 0


def _lib(specs: list[dict], out_dir: Path) -> int:
    from repsim import cli, engine

    for spec in specs:
        config, _ = resolve(spec)
        batch = engine.run_batch(config, parallel=spec["parallel"], keep_records=spec["trace"])
        cli.emit_results(batch, out_dir / spec["out"], fmt=spec["format"])
        print(f"== {spec['out']}")
        print(cli.format_summary(batch.runs))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    parser.add_argument("--spans", type=Path, help="trace into this directory")
    parser.add_argument("mode", choices=["setup", "lib", "cli"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        return _setup(json.loads(Path(args.rest[0]).read_text()))

    tracer = None
    t0 = time.perf_counter()
    import repsim.cli

    import_s = time.perf_counter() - t0
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer(args.spans)
        tracer.install()
    try:
        if args.mode == "lib":
            return _lib(json.loads(Path(args.rest[0]).read_text()), Path(args.rest[1]))
        return repsim.cli.main(args.rest)
    finally:
        if tracer is not None:
            tracer.dump(extra={"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
