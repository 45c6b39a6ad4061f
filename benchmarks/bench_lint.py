"""Mapping-linter latency guard: lint must be cheap next to solving.

The linter's value proposition is a zero-solver pre-flight check, so it
has to stay an order of magnitude faster than actually deciding the
problem.  For each Figure 1 consistency family this guard times
``repro.analysis.lint_mapping`` (full pass set, fresh context) against a
*cold* ``solve()`` of the same mapping (fresh :class:`ExecutionContext`
with the compilation cache disabled, so every solve pays compilation)
and journals the per-family numbers into ``BENCH_lint.json``.  The
acceptance bar is the **aggregate** ratio across the families: total
cold-solve time must exceed ``SPEEDUP_BAR`` times the total lint time.
Per-family ratios are journaled but not individually gated — in the
PTIME cells (F1.2) solving is genuinely cheap and lint rightly costs
about the same; the EXPTIME cells are where the pre-flight check pays.
The bar was 10x against the pure-Python solver; the bitset automata
kernels cut cold-solve time ~6x at the smoke sizes, so the gate now
holds lint to 2x of the *faster* solver (the ratio widens again with
``n`` — the EXPTIME curve outruns lint's polynomial pass set).

A second guard covers the auto-repair path: ``fix_mapping`` (lint plus
quick-fix inference) must stay within ``FIX_OVERHEAD_BAR`` times plain
lint, aggregated across the same families.  On clean mappings fix
inference is nearly free — no fixable diagnostics means no verification
solves — which is exactly what the guard pins down: proposing fixes must
not tax the pre-flight path when there is nothing to fix.  A seeded
broken mapping is also journaled (``fix-broken`` record) so the *cost of
actually certifying repairs* — one ``solve()`` per candidate — stays
visible in the trajectory, but it is not gated: certification is
solver-priced by design.

``--smoke`` runs fewer repeats for the CI gate and journals nothing;
run directly for the full series, which ``BENCH_lint.json`` records.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path
from typing import Callable

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import emit_json

from repro.analysis import fix_mapping, lint_mapping
from repro.mappings.io import parse_mapping
from repro.engine import CompilationCache, ExecutionContext, solve
from repro.engine.problems import ConsistencyProblem
from repro.workloads.families import (
    cons_arbitrary_family,
    cons_nested_family,
    cons_next_sibling_family,
)

#: Aggregate lint time must be at least this many times below aggregate
#: cold-solve time across the F1 families (recalibrated from 10x when
#: the bitset kernels made cold solving itself several times faster).
SPEEDUP_BAR = 2.0

#: Aggregate ``fix_mapping`` time (lint + quick-fix inference) across
#: the F1 families must stay within this factor of plain lint.
FIX_OVERHEAD_BAR = 2.0

#: Seeded breakage for the ungated ``fix-broken`` journal record: one
#: unknown label, duplicate stds and a subsumed std, so certifying the
#: repairs exercises the solver.
BROKEN_TEXT = """\
source:
    r -> a*
    a(x)
target:
    t -> b*
    b(u)
std: r[aa(x)] -> t[b(x)]
std: r[a(y)] -> t[b(y)]
std: r[a(z)] -> t[b(z)]
std: r[a(x), a(y)] -> t[b(x)]
"""

#: (label, claim, family constructor, size)
WORKLOADS: list[tuple[str, str, Callable, int]] = [
    (
        "F1.1-family",
        "CONS(⇓) arbitrary DTDs (EXPTIME cell)",
        cons_arbitrary_family,
        5,
    ),
    (
        "F1.2-family",
        "CONS(⇓) nested-relational DTDs (PTIME cell)",
        cons_nested_family,
        16,
    ),
    (
        "F1.3-family",
        "CONS(⇓,⇒) next-sibling chains (EXPTIME cell)",
        cons_next_sibling_family,
        8,
    ),
]


def _fresh(mapping):
    """A copy of *mapping* sharing no objects with it.

    DTDs, stds and mappings memoize derived facts on themselves, so
    timing repeated calls on one object would time the memos.  Pickling
    sheds every memo; each timed call gets a fresh copy, made before its
    clock starts.
    """
    return pickle.loads(pickle.dumps(mapping))


def _mean_seconds(
    run: Callable[[object], object], mapping: object, repeats: int
) -> float:
    total = 0.0
    for _ in range(repeats):
        subject = _fresh(mapping)
        started = time.perf_counter()
        run(subject)
        total += time.perf_counter() - started
    return total / repeats


def measure_family(
    label: str, claim: str, family: Callable, n: int, repeats: int
) -> dict:
    """Lint vs cold-solve timings for one family (no assertion here)."""
    mapping = family(n)

    def lint_once(subject) -> object:
        return lint_mapping(subject, name=label)

    def fix_once(subject) -> object:
        return fix_mapping(subject, name=label)

    def solve_cold(subject) -> object:
        context = ExecutionContext(cache=CompilationCache(enabled=False))
        return solve(ConsistencyProblem(subject), context)

    lint_once(_fresh(mapping))  # warm lazy imports out of the timings
    fix_once(_fresh(mapping))
    solve_cold(_fresh(mapping))
    lint_seconds = _mean_seconds(lint_once, mapping, repeats)
    fix_seconds = _mean_seconds(fix_once, mapping, repeats)
    solve_seconds = _mean_seconds(solve_cold, mapping, repeats)
    report = lint_once(mapping)
    record = {
        "claim": claim,
        "n": n,
        "lint_seconds": lint_seconds,
        "fix_seconds": fix_seconds,
        "fix_overhead": fix_seconds / max(lint_seconds, 1e-9),
        "cold_solve_seconds": solve_seconds,
        "speedup": solve_seconds / max(lint_seconds, 1e-9),
        "repeats": repeats,
        "diagnostics": list(report.codes()),
        "fragment": report.fragment,
    }
    print(
        f"[{label}] lint {lint_seconds:.6f}s vs cold solve "
        f"{solve_seconds:.6f}s -> {record['speedup']:.1f}x "
        f"(fix overhead {record['fix_overhead']:.2f}x, n={n})"
    )
    return record


def measure_broken(repeats: int) -> dict:
    """Journal (but never gate) the cost of certifying actual repairs."""
    mapping = parse_mapping(BROKEN_TEXT)

    def lint_once(subject) -> object:
        return lint_mapping(subject, name="fix-broken")

    def fix_once(subject) -> object:
        return fix_mapping(subject, name="fix-broken")

    lint_once(_fresh(mapping))
    __, fixes = fix_mapping(_fresh(mapping), name="fix-broken")
    lint_seconds = _mean_seconds(lint_once, mapping, repeats)
    fix_seconds = _mean_seconds(fix_once, mapping, repeats)
    record = {
        "claim": "certifying repairs is solver-priced (journaled, ungated)",
        "lint_seconds": lint_seconds,
        "fix_seconds": fix_seconds,
        "fix_overhead": fix_seconds / max(lint_seconds, 1e-9),
        "fixes_offered": len(fixes),
        "repeats": repeats,
    }
    print(
        f"[fix-broken] lint {lint_seconds:.6f}s vs lint+fix "
        f"{fix_seconds:.6f}s -> {record['fix_overhead']:.2f}x "
        f"({len(fixes)} verified fix(es))"
    )
    return record


def run_guard(smoke: bool = False, emit: bool = True, attempts: int = 3) -> int:
    repeats = 3 if smoke else 5
    aggregate = 0.0
    fix_overhead = 0.0
    records: dict[str, dict] = {}
    for attempt in range(attempts):
        records = {
            label: measure_family(label, claim, family, n, repeats)
            for label, claim, family, n in WORKLOADS
        }
        lint_total = sum(r["lint_seconds"] for r in records.values())
        fix_total = sum(r["fix_seconds"] for r in records.values())
        solve_total = sum(r["cold_solve_seconds"] for r in records.values())
        aggregate = solve_total / max(lint_total, 1e-9)
        fix_overhead = fix_total / max(lint_total, 1e-9)
        print(
            f"[lint-bench] aggregate: lint {lint_total:.6f}s vs cold solve "
            f"{solve_total:.6f}s -> {aggregate:.1f}x (bar {SPEEDUP_BAR:.0f}x); "
            f"fix overhead {fix_overhead:.2f}x (bar {FIX_OVERHEAD_BAR:.0f}x, "
            f"attempt {attempt + 1}/{attempts})"
        )
        if aggregate >= SPEEDUP_BAR and fix_overhead <= FIX_OVERHEAD_BAR:
            break
    broken = measure_broken(repeats)
    if emit:
        for label, record in records.items():
            emit_json("lint", label, record)
        emit_json("lint", "fix-broken", broken)
        emit_json("lint", "aggregate", {
            "claim": f"lint is a >= {SPEEDUP_BAR:.0f}x cheaper pre-flight "
            "check than cold solving across the F1 families",
            "speedup": aggregate,
            "speedup_bar": SPEEDUP_BAR,
            "fix_overhead": fix_overhead,
            "fix_overhead_bar": FIX_OVERHEAD_BAR,
            "families": sorted(records),
        })
    assert aggregate >= SPEEDUP_BAR, (
        f"aggregate lint speedup {aggregate:.1f}x below the "
        f"{SPEEDUP_BAR:.0f}x bar"
    )
    assert fix_overhead <= FIX_OVERHEAD_BAR, (
        f"aggregate fix-inference overhead {fix_overhead:.2f}x above the "
        f"{FIX_OVERHEAD_BAR:.0f}x bar"
    )
    return 0


# -- pytest entry point --------------------------------------------------------


def test_lint_faster_than_cold_solve():
    run_guard(smoke=True, emit=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer repeats for the CI gate; journals nothing")
    args = parser.parse_args(argv)
    try:
        return run_guard(smoke=args.smoke, emit=not args.smoke)
    except AssertionError as error:
        print(f"FAIL: {error}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
