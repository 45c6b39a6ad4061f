"""Observability overhead guard and trace-artifact smoke (DESIGN.md §Observability).

Instrumentation must be near-free when nobody is looking.  The guard
times a fixed serial solve workload twice — once as shipped (registry
enabled, no trace collector installed) and once with the registry
disabled (the true no-obs baseline) — and fails when the idle
instrumentation costs more than ``OVERHEAD_TOLERANCE`` (default 5%,
override with ``REPRO_OBS_TOLERANCE``).  Timings take the min over
several runs and the comparison retries before failing, so a loaded CI
runner gets the benefit of the doubt but a real regression does not.

``--smoke`` runs the guards at reduced size without journaling them,
then a traced ``jobs=2`` batch whose merged span log is written to
``BENCH_trace_smoke.jsonl`` (the artifact CI uploads) and whose
Prometheus export must parse clean.

Run directly (``python benchmarks/bench_obs.py``) for the full guards,
which ``BENCH_obs.json`` records.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import REPO_ROOT, emit_json

from repro.engine import CompilationCache, ExecutionContext, solve, solve_many
from repro.engine.problems import ConsistencyProblem, SatisfiabilityProblem
from repro.obs import REGISTRY, collecting, parse_prometheus, tracing_active
from repro.patterns.parser import parse_pattern
from repro.workloads.families import cons_nested_family
from repro.xmlmodel.dtd import parse_dtd

OVERHEAD_TOLERANCE = float(os.environ.get("REPRO_OBS_TOLERANCE", "0.05"))
SESSION_TOLERANCE = float(os.environ.get("REPRO_SESSION_TOLERANCE", "0.10"))
TRACE_ARTIFACT = REPO_ROOT / "BENCH_trace_smoke.jsonl"


def _workload(scale: int = 4):
    """A fixed, deterministic serial solve loop (fresh cache per run, so
    both timed arms pay identical compilation work)."""
    problems = [ConsistencyProblem(cons_nested_family(n)) for n in range(2, 2 + scale)]
    problems += [
        SatisfiabilityProblem(parse_dtd("r -> a*, b?"), parse_pattern(p))
        for p in ("r/a", "r/b", "r//a")
    ]

    def run() -> None:
        context = ExecutionContext(cache=CompilationCache())
        for problem in problems:
            solve(problem, context)

    return run


def _best_of(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def run_overhead_guard(
    scale: int = 4, repeats: int = 5, attempts: int = 3, emit: bool = True
) -> dict:
    """Idle instrumentation vs the registry-disabled baseline.

    Returns the record; raises ``AssertionError`` when the overhead
    exceeds the tolerance on every attempt.
    """
    assert not tracing_active(), "guard must run without a trace collector"
    run = _workload(scale)
    run()  # warm lazy imports and interned parse artifacts out of the timing
    overhead = float("inf")
    baseline = observed = 0.0
    for _ in range(attempts):
        REGISTRY.enabled = False
        try:
            baseline = _best_of(run, repeats)
        finally:
            REGISTRY.enabled = True
        observed = _best_of(run, repeats)
        overhead = observed / max(baseline, 1e-9) - 1.0
        if overhead <= OVERHEAD_TOLERANCE:
            break
    record = {
        "claim": "idle observability stays within "
        f"{OVERHEAD_TOLERANCE:.0%} of the no-obs baseline",
        "baseline_seconds": baseline,
        "observed_seconds": observed,
        "overhead": overhead,
        "tolerance": OVERHEAD_TOLERANCE,
        "repeats": repeats,
    }
    print(
        f"[obs-guard] baseline {baseline:.6f}s, instrumented {observed:.6f}s "
        f"-> overhead {overhead:+.2%} (tolerance {OVERHEAD_TOLERANCE:.0%})"
    )
    if emit:
        emit_json("obs", "overhead_guard", record)
    assert overhead <= OVERHEAD_TOLERANCE, (
        f"idle observability overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_TOLERANCE:.0%} (baseline {baseline:.6f}s, "
        f"observed {observed:.6f}s)"
    )
    return record


def run_session_overhead_guard(
    scale: int = 4, repeats: int = 5, attempts: int = 3, emit: bool = True
) -> dict:
    """Per-request service-session envelope vs direct ``solve()`` calls.

    The service layer wraps every request in ID generation, ambient span
    tags, a request span, metric observations and response-dict
    building.  Both arms share the session's warm compilation cache,
    result memo and parse table (every handler reads mapping text
    through the table, so the direct arm does too), so the measured
    difference is exactly that envelope — it must stay within
    ``SESSION_TOLERANCE`` (default 10%, override with
    ``REPRO_SESSION_TOLERANCE``).  The record also gives the envelope in
    microseconds per request.
    """
    from repro.engine import AbsoluteConsistencyProblem
    from repro.mappings.io import parse_mapping, render_mapping
    from repro.service import EngineSession
    from repro.workloads.families import cons_nested_family

    texts = [render_mapping(cons_nested_family(n)) for n in range(2, 2 + scale)]
    session = EngineSession()

    def direct() -> None:
        for text in texts:
            mapping = parse_mapping(text, table=session.incremental.parses)
            context = ExecutionContext(
                cache=session.cache, memo=session.incremental.memo
            )
            solve(ConsistencyProblem(mapping), context)
            solve(AbsoluteConsistencyProblem(mapping), context)

    def via_session() -> None:
        for text in texts:
            response = session.check({"mappings": [text]})
            assert response["ok"], response.get("error")

    direct()
    via_session()  # warm the shared cache and lazy imports out of the timing
    overhead = float("inf")
    baseline = observed = 0.0
    for _ in range(attempts):
        baseline = _best_of(direct, repeats)
        observed = _best_of(via_session, repeats)
        overhead = observed / max(baseline, 1e-9) - 1.0
        if overhead <= SESSION_TOLERANCE:
            break
    envelope_us = 1e6 * (observed - baseline) / len(texts)
    record = {
        "claim": "per-request session envelope stays within "
        f"{SESSION_TOLERANCE:.0%} of direct solve() calls",
        "baseline_seconds": baseline,
        "observed_seconds": observed,
        "overhead": overhead,
        "envelope_us_per_request": envelope_us,
        "tolerance": SESSION_TOLERANCE,
        "requests_per_run": len(texts),
        "repeats": repeats,
    }
    print(
        f"[obs-session] direct {baseline:.6f}s, session {observed:.6f}s "
        f"-> overhead {overhead:+.2%}, {envelope_us:.1f} us/request "
        f"(tolerance {SESSION_TOLERANCE:.0%})"
    )
    if emit:
        emit_json("obs", "session_overhead_guard", record)
    assert overhead <= SESSION_TOLERANCE, (
        f"per-request session overhead {overhead:+.2%} exceeds "
        f"{SESSION_TOLERANCE:.0%} (direct {baseline:.6f}s, "
        f"session {observed:.6f}s)"
    )
    return record


def run_flight_overhead_guard(
    scale: int = 4, repeats: int = 5, attempts: int = 3, emit: bool = True
) -> dict:
    """Flight recorder on vs off over one warm session.

    Recorder-on means what every served request pays since the flight
    recorder became always-on: per-request span collection, tree
    serialization, the trace-rollup walk and the ring-buffer push.
    Recorder-off (``FlightRecorder(enabled=False)``) restores the old
    trace-on-demand path on the *same* session — same warm cache, same
    request parsing — so the measured difference is exactly the
    recording cost.  It must stay within ``OVERHEAD_TOLERANCE``
    (default 5%, override with ``REPRO_OBS_TOLERANCE``).
    """
    from repro.mappings.io import render_mapping
    from repro.obs import FlightRecorder
    from repro.service import EngineSession

    texts = [render_mapping(cons_nested_family(n)) for n in range(2, 2 + scale)]
    # a slow threshold no request reaches: the guard measures the idle
    # recording path, not the slow-log sink
    session = EngineSession(
        flight=FlightRecorder(capacity=64, slow_ms=float("inf"))
    )

    def run() -> None:
        for text in texts:
            response = session.check({"mappings": [text]})
            assert response["ok"], response.get("error")

    run()  # warm the shared cache and lazy imports out of the timing
    overhead = float("inf")
    baseline = observed = 0.0
    for _ in range(attempts):
        session.flight.enabled = False
        try:
            baseline = _best_of(run, repeats)
        finally:
            session.flight.enabled = True
        observed = _best_of(run, repeats)
        overhead = observed / max(baseline, 1e-9) - 1.0
        if overhead <= OVERHEAD_TOLERANCE:
            break
    record = {
        "claim": "always-on flight recording stays within "
        f"{OVERHEAD_TOLERANCE:.0%} of the recorder-off session",
        "baseline_seconds": baseline,
        "observed_seconds": observed,
        "overhead": overhead,
        "tolerance": OVERHEAD_TOLERANCE,
        "requests_per_run": len(texts),
        "repeats": repeats,
    }
    print(
        f"[obs-flight] recorder-off {baseline:.6f}s, recorder-on "
        f"{observed:.6f}s -> overhead {overhead:+.2%} "
        f"(tolerance {OVERHEAD_TOLERANCE:.0%})"
    )
    if emit:
        emit_json("obs", "flight_overhead_guard", record)
    assert overhead <= OVERHEAD_TOLERANCE, (
        f"flight-recorder overhead {overhead:+.2%} exceeds "
        f"{OVERHEAD_TOLERANCE:.0%} (recorder-off {baseline:.6f}s, "
        f"recorder-on {observed:.6f}s)"
    )
    return record


def run_trace_smoke(jobs: int = 2) -> int:
    """Traced parallel batch: writes the JSONL artifact, checks the export."""
    problems = [ConsistencyProblem(cons_nested_family(n)) for n in range(2, 8)]
    with collecting("bench-obs-smoke", jobs=jobs) as tree:
        batch = solve_many(problems, jobs=jobs, chunk_size=1)
    TRACE_ARTIFACT.write_text(tree.jsonl())
    spans = tree.jsonl().count("\n")
    solve_spans = tree.jsonl().count('"name": "solve"')
    print(
        f"[obs-smoke] {len(problems)} problems over {jobs} jobs: "
        f"{spans} spans ({solve_spans} solves) -> {TRACE_ARTIFACT.name}"
    )
    failures = []
    if solve_spans < len(problems):
        failures.append(
            f"merged trace covers {solve_spans}/{len(problems)} solves"
        )
    if batch.report.trace is None:
        failures.append("batch report carries no merged trace")
    try:
        series = parse_prometheus(REGISTRY.render_prometheus())
    except ValueError as error:
        failures.append(f"prometheus export does not parse: {error}")
    else:
        names = {key.split("{", 1)[0] for key in series}
        for required in ("repro_solves_total", "repro_worker_chunks_total"):
            if required not in names:
                failures.append(f"missing series {required}")
    for failure in failures:
        print(f"[obs-smoke] FAIL: {failure}")
    return 1 if failures else 0


# -- pytest entry points -------------------------------------------------------


def test_obs_overhead_within_tolerance():
    run_overhead_guard(scale=2, repeats=3, emit=False)


def test_session_overhead_within_tolerance():
    run_session_overhead_guard(scale=2, repeats=3, emit=False)


def test_flight_overhead_within_tolerance():
    run_flight_overhead_guard(scale=2, repeats=3, emit=False)


def test_obs_trace_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(
        sys.modules[__name__], "TRACE_ARTIFACT", tmp_path / "trace.jsonl"
    )
    assert run_trace_smoke(jobs=2) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size guards, journaling nothing, "
                        "+ trace artifact for CI")
    args = parser.parse_args(argv)
    size = {"scale": 2, "repeats": 3, "emit": False} if args.smoke else {}
    # every guard runs even after one fails, so one failing bar does not
    # hide the others' verdicts or leave the trace artifact stale
    failed = False
    for guard in (
        run_overhead_guard, run_session_overhead_guard, run_flight_overhead_guard
    ):
        try:
            guard(**size)
        except AssertionError as error:
            print(f"FAIL: {error}")
            failed = True
    return 1 if run_trace_smoke() or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
