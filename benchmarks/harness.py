"""Shared helpers for the figure benchmarks.

Every benchmark reproduces one cell of the paper's Figure 1 or Figure 2:
it prints the paper's claimed complexity next to a measured scaling series
so the *shape* (polynomial vs exponential growth, and where the
tractability frontier falls) can be compared directly.  Absolute numbers
are not the point — the substrate is a Python library, not the authors'
formal machines.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

#: ``BENCH_fig1.json`` / ``BENCH_fig2.json`` live at the repository root.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Version of the ``BENCH_*.json`` layout.  2 added the ``_meta`` block
#: (schema version + run environment) and per-point span breakdowns.
SCHEMA_VERSION = 2


def run_environment(jobs: int | None = None) -> dict:
    """The run-environment block journaled under ``_meta.environment``.

    Numbers from different machines are not comparable; this records
    enough to tell them apart when reading a trajectory file.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "jobs": jobs if jobs is not None else os.cpu_count() or 1,
    }


class SweepPoint(NamedTuple):
    """One measured point: size, mean seconds, last result, sample count.

    Unpacks like the historical ``(n, seconds, result)`` triple for
    existing consumers; ``samples`` records how many runs entered the
    mean (1 = a single cold measurement).
    """

    n: int
    seconds: float
    result: object
    samples: int = 1


def time_once(action: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = action()
    return time.perf_counter() - start, result


def sweep(
    sizes: Iterable[int],
    make_action: Callable[[int], Callable[[], object]],
    min_repeat_seconds: float = 0.01,
    min_samples: int = 3,
) -> list[SweepPoint]:
    """Run ``make_action(n)()`` per size; fast points are repeated and averaged.

    The first call pays one-time costs (lazy imports, caches warming up),
    so once a point proves fast enough to repeat, that cold sample is
    *discarded* and only warm runs enter the average.  Slow points are
    measured at least *min_samples* times and report the **minimum** —
    for a deterministic computation the minimum is the least-noise
    estimate (everything above it is scheduler/GC interference), whereas
    a mean would smear interference into the curve.
    """
    rows: list[SweepPoint] = []
    for n in sizes:
        action = make_action(n)
        elapsed, result = time_once(action)
        repeats = 1
        warm_only = False
        while elapsed < min_repeat_seconds and repeats < 1000:
            more = max(1, int(min_repeat_seconds / max(elapsed / repeats, 1e-9)))
            start = time.perf_counter()
            for __ in range(more):
                result = action()
            batch = time.perf_counter() - start
            if warm_only:
                elapsed += batch
                repeats += more
            else:
                elapsed, repeats, warm_only = batch, more, True
        if not warm_only:
            # slow point: min-of-K, never a lone cold sample
            best = elapsed
            while repeats < max(min_samples, 1):
                seconds, result = time_once(action)
                if seconds < best:
                    best = seconds
                repeats += 1
            rows.append(SweepPoint(n, best, result, repeats))
        else:
            rows.append(SweepPoint(n, elapsed / repeats, result, repeats))
    return rows


def batch_sweep(
    groups: Sequence[tuple[int, list]],
    jobs: int = 1,
    task_timeout: float | None = None,
    cache_dir=None,
    context=None,
    collect_traces: bool = False,
) -> list[SweepPoint]:
    """The parallel sweep mode: one ``solve_many`` batch per point.

    Each ``(n, problems)`` group is decided in a single batch; the point's
    result is the :class:`~repro.engine.parallel.BatchResult`, so callers
    can compare verdicts across serial/parallel runs and read the
    aggregated cache statistics.  With *collect_traces* each batch runs
    under a trace collector, so ``batch.report.trace`` carries the merged
    cross-process span tree and :func:`series_payload` journals the
    per-span breakdown next to the timing.
    """
    from repro.engine import solve_many

    points: list[SweepPoint] = []
    for n, problems in groups:
        started = time.perf_counter()
        if collect_traces:
            from repro.obs import collecting

            with collecting("batch-sweep", n=n, jobs=jobs):
                batch = solve_many(
                    problems,
                    jobs=jobs,
                    task_timeout=task_timeout,
                    cache_dir=cache_dir,
                    context=context,
                )
        else:
            batch = solve_many(
                problems,
                jobs=jobs,
                task_timeout=task_timeout,
                cache_dir=cache_dir,
                context=context,
            )
        points.append(
            SweepPoint(n, time.perf_counter() - started, batch, len(problems))
        )
    return points


def growth_ratios(rows: Sequence[tuple[int, float, object]]) -> list[float]:
    """Consecutive timing ratios — the eyeball test for poly vs exponential."""
    return [
        rows[i + 1][1] / rows[i][1] if rows[i][1] > 0 else float("inf")
        for i in range(len(rows) - 1)
    ]


def series_payload(
    rows: Sequence[SweepPoint], claim: str = "", note: str = "", **extra
) -> dict:
    """A JSON-ready record of one experiment's series.

    Every point carries its sample count next to the timing, so a reader
    of the trajectory files can tell a noisy single cold measurement from
    a repeat-averaged one.
    """
    points = []
    for row in rows:
        point = {
            "n": row[0],
            "seconds": row[1],
            "samples": row[3] if len(row) > 3 else 1,
            "result": repr(row[2]),
        }
        breakdown = span_breakdown_of(row[2])
        if breakdown:
            point["span_breakdown"] = breakdown
        points.append(point)
    payload = {"claim": claim, "note": note, "points": points}
    payload.update(extra)
    return payload


def span_breakdown_of(result: object) -> dict[str, float] | None:
    """Seconds per span name, when *result* carries a merged trace
    (a :class:`BatchResult` from a traced :func:`batch_sweep`)."""
    tree = getattr(getattr(result, "report", None), "trace", None)
    if not tree:
        return None
    try:
        from repro.obs import span_breakdown
    except ImportError:  # pragma: no cover - src/ not on sys.path
        return None
    return {
        name: round(seconds, 6)
        for name, seconds in sorted(span_breakdown(tree).items())
    }


def emit_json(
    figure: str, experiment: str | None, payload: dict | None, meta: dict | None = None
) -> Path:
    """Merge one experiment's record into the repo-root trajectory file.

    ``figure`` is ``"fig1"`` or ``"fig2"``; the record lands under
    *experiment* (e.g. ``"F1.1"``) in ``BENCH_<figure>.json`` (with
    *experiment* None, only ``_meta`` is rewritten).  Several
    benchmark modules contribute to one file, so writes read-merge-write;
    an unreadable file is rebuilt from scratch rather than crashing the
    benchmark run.  Every write refreshes the ``_meta`` block
    (:data:`SCHEMA_VERSION` plus :func:`run_environment`), stamping the
    file with the machine that produced the latest numbers; the notes
    already journaled there are kept, and *meta* entries (e.g. the kernel
    a ladder ran under) are merged on top, so a run that journals one
    series keeps the other series' notes.
    """
    path = REPO_ROOT / f"BENCH_{figure}.json"
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            data = {}
    except (OSError, ValueError):
        data = {}
    if experiment is not None:
        data[experiment] = payload
    notes = data.get("_meta")
    data["_meta"] = {
        **(notes if isinstance(notes, dict) else {}),
        "schema_version": SCHEMA_VERSION,
        "environment": run_environment(jobs=(payload or {}).get("jobs")),
    }
    if meta:
        data["_meta"].update(meta)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def print_table(
    experiment: str,
    claim: str,
    rows: Sequence[tuple[int, float, object]],
    size_label: str = "n",
    note: str = "",
) -> None:
    """Render one experiment's series in a fixed, grep-friendly format.

    Figure experiments (labels ``F1.*`` / ``F2.*``) are additionally
    journaled into the repo-root trajectory file for that figure, so a
    benchmark run leaves ``BENCH_fig1.json`` / ``BENCH_fig2.json`` behind
    without each module wiring up :func:`emit_json` itself.
    """
    match = re.match(r"F([12])\.", experiment)
    if match:
        emit_json(
            f"fig{match.group(1)}",
            experiment,
            series_payload(rows, claim=claim, note=note, size_label=size_label),
        )
    print()
    print(f"[{experiment}] paper: {claim}")
    if note:
        print(f"[{experiment}] note : {note}")
    header = f"[{experiment}] {size_label:>6} | {'seconds':>12} | {'samples':>7} | result"
    print(header)
    for row in rows:
        n, seconds, result = row[0], row[1], row[2]
        samples = row[3] if len(row) > 3 else 1
        print(f"[{experiment}] {n:>6} | {seconds:>12.6f} | {samples:>7} | {result}")
    ratios = growth_ratios(rows)
    if ratios:
        rendered = ", ".join(f"{r:.2f}x" for r in ratios)
        print(f"[{experiment}] growth: {rendered}")
