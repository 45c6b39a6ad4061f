"""The decision-engine benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold-check --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run spawns fresh interpreters
(``worker.py``) with ``PYTHONPATH=src`` and the ``REPRO_*`` tuning
variables stripped: several set-up-only children time the program's
set-up, then one child runs the workload for ``--seconds`` seconds with
one closed-loop caller.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see ``probes.py``).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when any decided verdict contradicts its input's
known answer (``wrong_verdicts`` > 0), a certificate fails
``certify()``, a cold check touches the process-wide cache, or a traced
run leaves a required layer without calls.  ``failed`` counts operations
that raised, answered ``ok: false`` or were refused with 429.
See ``README.md`` in this directory for the workload record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import CALIBRATION_REFERENCE_S, percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only children spawned before, and again after, the workload
#: child; ``setup_s`` is the median of their set-up times and the
#: workload child's.
SETUP_PROBES = 4
#: Hard limit for one child, well inside the 180 s a run may take.
CHILD_TIMEOUT = 170.0
#: The program's settings (``REPRO_KERNEL``, ``REPRO_CACHE_DIR``,
#: ``REPRO_CACHE_SIZE``, ``REPRO_PROFILE``, ``REPRO_SLOW_MS``,
#: ``REPRO_FLIGHT_*``, ``REPRO_HIST_BUCKETS``, ...) all share this
#: prefix; a child never sees any of them.
STRIPPED_PREFIX = "REPRO_"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> tuple[dict[str, str], list[str]]:
    """The children's environment, and the names stripped from it."""
    env = dict(os.environ)
    stripped = sorted(name for name in env if name.startswith(STRIPPED_PREFIX))
    for name in stripped:
        del env[name]
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, stripped


def spawn(args: list[str], env: dict[str, str]) -> tuple[float, dict | None]:
    """Run one worker; (seconds from spawn to READY, its JSON result)."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        ready = time.perf_counter() - started
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def timings(raw: dict, prefix: str = "") -> tuple[float, float, float]:
    """(ops_per_s, p50 seconds, p90 seconds) of one run: normalised, or
    wall clock with ``prefix="raw_"``.

    Workloads that repeat one pool of inputs report over the inputs,
    each at its median latency across passes; edit-session, whose
    stream moves on, reports medians of its per-pass figures.
    """
    if "input_medians" in raw:
        latencies = raw[f"{prefix}input_medians"]
        return (len(latencies) / sum(latencies),
                percentile(latencies, 0.5), percentile(latencies, 0.9))
    passes = raw["passes"]
    return (
        statistics.median(p["ops"] / p[f"{prefix}seconds"] for p in passes),
        statistics.median(p[f"{prefix}p50"] for p in passes),
        statistics.median(p[f"{prefix}p90"] for p in passes),
    )


def probe_setup(worker_args: list[str], env: dict[str, str]
                ) -> tuple[float, float]:
    """One set-up-only child: (seconds from spawn to READY, seconds of a
    calibration slice right after READY)."""
    ready, probe = spawn(worker_args + ["--setup-only"], env)
    return ready, probe["calibration"]


def end_to_end(raw: dict, setups: list[tuple[float, float]]
               ) -> dict[str, tuple[float, str]]:
    """The user-facing metrics of one run, in normalised time."""
    ops_per_s, p50, p90 = timings(raw)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (1000.0 * p50, "ms"),
        "latency_p90_ms": (1000.0 * p90, "ms"),
        "decided_frac": (
            raw["decided"] / raw["problems"] if raw["problems"] else 1.0,
            "ratio",
        ),
        "setup_s": (statistics.median(
            ready * CALIBRATION_REFERENCE_S / calibration
            for ready, calibration in setups
        ), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="decision-engine benchmark (see module docstring)"
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is the self-test's quick configuration",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env, stripped = child_env()
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    try:
        # (wall seconds to READY, calibration slice time right after it)
        probes = SETUP_PROBES if not args.trace else 0
        setups = [probe_setup(worker_args, env) for __ in range(probes)]
        ready, raw = spawn(worker_args, env)
        if raw is None:
            raise BenchError("worker printed no result")
        setups.append((ready, raw["setup_calibration"]))
        setups += [probe_setup(worker_args, env) for __ in range(probes)]
    except (BenchError, KeyError, TypeError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    attempted = raw["attempted"]
    problems = raw["problems"]
    correct = (
        raw["wrong"] == 0
        and raw["warmup_errors"] == 0  # includes every certify() failure
        and not raw["default_cache_touched"]
        and not raw.get("missing_layers")
    )
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}")
    print(f"  stripped from the environment ({STRIPPED_PREFIX}*): "
          f"{', '.join(stripped) or 'none was set'}")
    print(f"  inputs: {json.dumps(raw['properties'], sort_keys=True)}")
    print(f"  samples: {attempted} operations in {len(raw['passes'])} passes "
          f"over {raw['wall_seconds']:.2f} s; {problems} problems")
    print(f"  wrong_verdicts {raw['wrong']} count")
    print(f"  failed_frac {raw['failed'] / max(attempted, 1):.6f} ratio "
          f"({raw['failed']} failed, {raw['rejected']} refused with 429)")
    for label, ms in raw["university_ms"].items():
        print(f"  known defect, superlinear membership: {label} "
              f"{ms:.1f} ms median")
    for error in raw["errors"]:
        print(f"  error: {error}")
    if args.trace:
        metrics = raw["layer_metrics"]
        if raw["missing_layers"]:
            print(f"  layers without calls: {', '.join(raw['missing_layers'])}")
    else:
        metrics = end_to_end(raw, setups)
        ops_per_s, p50, p90 = timings(raw, "raw_")
        print(f"  wall clock, not normalised: ops_per_s {ops_per_s:.6g}, "
              f"latency_p50_ms {1000 * p50:.6g}, "
              f"latency_p90_ms {1000 * p90:.6g}, setup_s "
              f"{statistics.median(ready for ready, __ in setups):.6g}; "
              f"calibration slice {1e6 * raw['calibration_median']:.1f} us "
              "median")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
