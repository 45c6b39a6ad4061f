"""One workload in one fresh interpreter (spawned by ``run.py``).

Protocol on standard output: the first line is ``READY`` once the
program is ready for the workload's first operation (interpreter start,
``import repro.cli`` and the workload's session or server); the last
line is one JSON object with the run's raw results.  ``--setup-only``
stops after ``READY``.  Benchmark-side input generation happens after
``READY``, so it stays out of the set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Least operations per measured pass (the workload's pool, repeated
#: as needed), so that a 90th percentile over a pass has at least ten
#: samples beyond it.
PASS_OPS = 100

#: Normalisation constant: timings are reported as they would be while
#: one :func:`calibration_work` call takes this long (see
#: :func:`speed_factors`).  Only ratios between runs matter; for scale,
#: the slice takes 240-500 µs on a shared 2.1 GHz Xeon vCPU under
#: CPython 3.11, depending on the other tenants' load.
CALIBRATION_REFERENCE_S = 300e-6
#: Slices on each side of an operation whose median scales it.
SPEED_WINDOW = 2
#: Calibration slices in a set-up speed sample; it is their median.
CALIBRATION_SLICES = 15
#: Longest wait for the server's handler threads to finish after an
#: operation.
SETTLE_TIMEOUT_S = 1.0


def calibration_work() -> int:
    """A fixed slice of interpreter work: tuple hashing, dict updates,
    sorting and a frozenset, like the engine's inner loops."""
    table: dict[tuple[int, int], int] = {}
    for i in range(1200):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    items = sorted(table.items())
    return len(frozenset(key for key, __ in items))


def calibrate() -> float:
    """Seconds one :func:`calibration_work` takes right now.

    The collector is off during the slice, so the slice never pays for
    collecting the program's garbage.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        calibration_work()
        return time.perf_counter() - started
    finally:
        gc.enable()


def settle(threads: int) -> None:
    """Wait until only *threads* threads are left.

    edit-session's server finishes a request after sending the
    response (admission bookkeeping, socket shutdown, thread exit).
    That work is the program's: it must not overlap a calibration slice
    and so slow it.
    """
    deadline = time.perf_counter() + SETTLE_TIMEOUT_S
    while (threading.active_count() > threads
           and time.perf_counter() < deadline):
        time.sleep(0.0001)


def speed_sample() -> float:
    """Median seconds of a calibration slice, over a few slices."""
    return statistics.median(calibrate() for __ in range(CALIBRATION_SLICES))


def speed_factors(slices: list[float]) -> list[float]:
    """Normalised seconds per wall second for each operation of a pass.

    A shared host runs the same code up to twice as slowly, in spells
    from a fraction of a second to tens of seconds, and CPU time
    inflates with wall time, so no clock hides it.  A calibration slice
    runs before the first operation of a pass and after every operation
    (once the program is idle), so operation *i* lies between
    ``slices[i]`` and ``slices[i + 1]``.  It is scaled by the
    constant-to-measured ratio of the median of the SPEED_WINDOW slices
    on either side of it: the median follows the machine's speed from
    operation to operation, while one slice slowed by what an operation
    left in the caches does not move it.
    """
    return [
        CALIBRATION_REFERENCE_S / statistics.median(
            slices[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW])
        for i in range(len(slices) - 1)
    ]


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of *values* (0 < fraction < 1)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload, seconds: float, rng: random.Random,
            recorder=None) -> dict:
    """Run whole passes of at least PASS_OPS operations for *seconds*.

    One warm-up pass of the pool runs first and is discarded; it also
    certifies every decided verdict once.  Each measured pass reports
    its throughput and latency percentiles in normalised time (and, for
    people, in raw wall time).  With a *recorder*, passes alternate
    untraced/traced, so the traced run measures its own overhead.
    """
    threads = threading.active_count()
    errors: list[str] = []
    for op in workload.next_pass(rng):
        outcome = workload.run(op, certify_all=True)
        errors.extend(outcome.errors)
    warmup_errors = len(errors)
    # the benchmark's own inputs are not the program's garbage: keep
    # them out of every collection the measured operations trigger
    gc.collect()
    gc.freeze()

    totals: dict[str, int] = defaultdict(int)
    by_label: dict[str, list[float]] = defaultdict(list)
    by_input: dict[int, list[float]] = defaultdict(list)
    by_input_raw: dict[int, list[float]] = defaultdict(list)
    passes: list[dict] = []
    # traced -> [raw seconds, normalised seconds, ops]
    lanes = {False: [0.0, 0.0, 0], True: [0.0, 0.0, 0]}
    slice_medians: list[float] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(passes) < 2
           or (recorder is not None and len(passes) % 2)):
        traced = recorder is not None and len(passes) % 2 == 1
        planned: list = []
        while len(planned) < PASS_OPS:
            planned.extend(workload.next_pass(rng))
        raw: list[float] = []
        outcomes: list = []
        slices = [calibrate()]
        if traced:
            recorder.install()
        try:
            for op in planned:
                outcome = workload.run(op)
                settle(threads)
                slices.append(calibrate())
                raw.append(outcome.latency)
                outcomes.append((op, outcome))
                totals["attempted"] += 1
                totals["problems"] += outcome.problems
                totals["decided"] += outcome.decided
                totals["wrong"] += outcome.wrong
                totals["failed"] += outcome.failed
                totals["rejected"] += outcome.rejected
                errors.extend(outcome.errors)
                if traced:
                    recorder.count("xmlmodel.nodes", outcome.nodes)
                    recorder.count("service.rejected", outcome.rejected)
        finally:
            if traced:
                recorder.uninstall()
        slice_medians.append(statistics.median(slices))
        scaled = [latency * factor
                  for latency, factor in zip(raw, speed_factors(slices))]
        for (op, outcome), latency in zip(outcomes, scaled):
            by_label[outcome.label].append(latency)
            by_input[id(op)].append(latency)
            by_input_raw[id(op)].append(outcome.latency)
        lanes[traced][0] += sum(raw)
        lanes[traced][1] += sum(scaled)
        lanes[traced][2] += len(raw)
        passes.append({
            "ops": len(raw),
            "raw_seconds": sum(raw),
            "raw_p50": percentile(raw, 0.5),
            "raw_p90": percentile(raw, 0.9),
            "seconds": sum(scaled),
            "p50": percentile(scaled, 0.5),
            "p90": percentile(scaled, 0.9),
        })

    result = dict(totals)
    if workload.fixed_pool:
        # every pass runs the same inputs: each input's median over the
        # passes is its noise-robust latency
        result["input_medians"] = [
            statistics.median(values) for values in by_input.values()
        ]
        result["raw_input_medians"] = [
            statistics.median(values) for values in by_input_raw.values()
        ]
    result.update(
        wall_seconds=time.perf_counter() - started,
        passes=passes,
        warmup_errors=warmup_errors,
        calibration_median=statistics.median(slice_medians),
        errors=errors[:20],
        properties=workload.properties(),
        university_ms={
            label: 1000.0 * statistics.median(values)
            for label, values in sorted(by_label.items())
            if label.startswith("university")
        },
    )
    if recorder is not None:
        raw_traced, scaled_traced, traced_ops = lanes[True]
        __, scaled_plain, plain_ops = lanes[False]
        metrics, missing = recorder.metrics(
            workload.name,
            ops=traced_ops,
            passes=len(passes) // 2,
            scale=scaled_traced / raw_traced if raw_traced else 1.0,
            op_seconds=scaled_traced / max(traced_ops, 1),
            untraced_op_seconds=scaled_plain / max(plain_ops, 1),
            round_trip_seconds=raw_traced if workload.remote else 0.0,
        )
        result.update(layer_metrics=metrics, missing_layers=missing)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (the CLI's import cost is set-up time)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.scale)
    workload.start()
    print("READY", flush=True)
    try:
        if args.setup_only:
            # the machine's speed right after set-up, to normalise it
            print(json.dumps({"calibration": speed_sample()}))
            return 0
        from repro.engine import DEFAULT_CACHE

        setup_calibration = speed_sample()
        rng = random.Random(args.seed)
        workload.generate(rng)
        recorder = None
        if args.trace:
            from probes import Recorder

            recorder = Recorder()
        default_cache_before = DEFAULT_CACHE.stats()
        result = measure(workload, args.seconds, rng, recorder)
        # cold discipline: nothing may compile into the process-wide cache
        result["default_cache_touched"] = (
            workload.name == "cold-check"
            and DEFAULT_CACHE.stats() != default_cache_before
        )
    finally:
        workload.close()
    result["setup_calibration"] = setup_calibration
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
