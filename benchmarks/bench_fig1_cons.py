"""Figure 1, consistency row — experiments F1.1–F1.4 and F1.11 (DESIGN.md §4).

Reproduces the comparison-free cells of the paper's consistency table:

=====================  =======================  ==========================
cell                   paper                    measured here
=====================  =======================  ==========================
CONS(⇓), arbitrary     EXPTIME-complete          exponential sweep (F1.1)
CONS(⇓), nested-rel.   PTIME (cubic)             polynomial sweep (F1.2)
CONS(⇓,⇒), arbitrary   EXPTIME-complete          exponential sweep (F1.3)
CONS(⇓,→), nested-rel. PSPACE-hard               exponential sweep (F1.4)
=====================  =======================  ==========================

F1.11 measures the engine layer itself: the shared compilation cache on
repeated-DTD sweep points versus ``CompilationCache(enabled=False)``.

``F1.1-cold`` times what a mapping author's cold ``repro check`` of an
F1.1 mapping does: parse, CONS, ABSCONS and ``certify()`` of both
verdicts on one fresh compilation cache, with the conforming-product
passes each check runs.  Journal it, optionally next to another
checkout (a ``git archive`` of the parent commit, say)::

    python benchmarks/bench_fig1_cons.py --cold-check --before /tmp/parent
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import REPO_ROOT, emit_json, print_table, sweep

from repro.consistency import is_consistent_automata, is_consistent_nested
from repro.workloads.families import (
    cons_arbitrary_family,
    cons_nested_family,
    cons_next_sibling_family,
)


def test_f11_cons_down_arbitrary(benchmark):
    """F1.1: CONS(⇓) over arbitrary DTDs — EXPTIME-complete."""
    def make(n):
        mapping = cons_arbitrary_family(n)
        return lambda: is_consistent_automata(mapping)

    rows = sweep(range(1, 7), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.1",
        "CONS(⇓) arbitrary DTDs: EXPTIME-complete",
        rows,
        size_label="choices",
        note="n independent disjunctive choices; automata state spaces double",
    )
    def make_negative(n):
        mapping = cons_arbitrary_family(n, consistent=False)
        return lambda: is_consistent_automata(mapping)

    negative = sweep(range(1, 5), make_negative)
    assert all(result.is_refuted for result in (row[2] for row in negative))
    benchmark(lambda: is_consistent_automata(cons_arbitrary_family(4)))


def test_f12_cons_down_nested_ptime(benchmark):
    """F1.2: CONS(⇓) over nested-relational DTDs — PTIME."""
    def make(n):
        mapping = cons_nested_family(n)
        return lambda: is_consistent_nested(mapping)

    rows = sweep([2, 4, 8, 16, 32, 64], make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.2",
        "CONS(⇓) nested-relational DTDs: PTIME (cubic in [4])",
        rows,
        size_label="stds",
        note="same copy workload scaled; growth stays polynomial",
    )
    negative = is_consistent_nested(cons_nested_family(16, consistent=False))
    assert negative.is_refuted
    benchmark(lambda: is_consistent_nested(cons_nested_family(32)))


def test_f13_cons_horizontal_arbitrary(benchmark):
    """F1.3: CONS(⇓,⇒) stays EXPTIME-complete (Theorem 5.2)."""
    def make(n):
        mapping = cons_next_sibling_family(n)
        return lambda: is_consistent_automata(mapping)

    rows = sweep(range(2, 9), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.3",
        "CONS(⇓,⇒): EXPTIME-complete (Theorem 5.2)",
        rows,
        size_label="chain",
        note="next-sibling chains of length n; horizontal NFAs in the closure automaton",
    )
    benchmark(lambda: is_consistent_automata(cons_next_sibling_family(5)))


def test_f14_next_sibling_breaks_nested_ptime(benchmark):
    """F1.4: CONS(⇓,→) over nested-relational DTDs is PSPACE-hard.

    The PTIME algorithm refuses horizontal axes by design; only the
    exponential automata algorithm applies, and its cost grows even
    though the DTDs stay nested-relational — the frontier the paper's
    Proposition 5.3 draws.
    """
    import pytest

    from repro.errors import SignatureError

    with pytest.raises(SignatureError):
        is_consistent_nested(cons_next_sibling_family(3))
    def make(n):
        mapping = cons_next_sibling_family(n, consistent=False)
        return lambda: is_consistent_automata(mapping)

    rows = sweep(range(2, 8), make)
    assert all(result.is_refuted for result in (row[2] for row in rows))
    print_table(
        "F1.4",
        "CONS(⇓,→) nested-relational DTDs: PSPACE-hard (Prop 5.3)",
        rows,
        size_label="chain",
        note="inconsistent order-contradiction instances; PTIME algorithm inapplicable",
    )
    benchmark(
        lambda: is_consistent_automata(cons_next_sibling_family(5, consistent=False))
    )


def test_f111_compilation_cache_speedup(benchmark):
    """F1.11: the shared CompilationCache on repeated-DTD sweep points.

    Re-deciding the F1.1 sweep points with a shared cache hits the stored
    DTD automata, closure automata and achievable trigger-set tables (the
    exponential reachability pass), so repeated points cost dict lookups.
    The acceptance bar is a measured >= 2x speedup over the same sweep
    with ``CompilationCache(enabled=False)``.
    """
    from repro.engine import (
        CompilationCache,
        ConsistencyProblem,
        ExecutionContext,
        solve,
    )

    mappings = [cons_arbitrary_family(n) for n in range(3, 6)]
    repeats = 5

    def run_sweep(enabled: bool) -> tuple[float, ExecutionContext]:
        context = ExecutionContext(cache=CompilationCache(enabled=enabled))
        started = time.perf_counter()
        for __ in range(repeats):
            for mapping in mappings:
                assert solve(ConsistencyProblem(mapping), context).is_proved
        return time.perf_counter() - started, context

    cold, __ = run_sweep(enabled=False)
    warm, context = run_sweep(enabled=True)
    stats = context.cache.stats()
    speedup = cold / warm
    print()
    print("[F1.11] paper: repeated-DTD sweeps amortize compilation (engine layer)")
    print(f"[F1.11] cache disabled: {cold:.6f}s for {repeats}x{len(mappings)} solves")
    print(f"[F1.11] cache enabled : {warm:.6f}s "
          f"(hits={stats['hits']} misses={stats['misses']} "
          f"evictions={stats['evictions']})")
    print(f"[F1.11] speedup       : {speedup:.2f}x (acceptance bar: >= 2x)")
    emit_json("fig1", "F1.11", {
        "claim": "repeated-DTD sweeps amortize compilation (engine layer)",
        "cache_disabled_seconds": cold,
        "cache_enabled_seconds": warm,
        "speedup": speedup,
        "samples": repeats * len(mappings),
        "cache": stats,
    })
    assert stats["hits"] > 0
    assert speedup >= 2.0, f"cache speedup {speedup:.2f}x below the 2x bar"

    warm_context = ExecutionContext(cache=CompilationCache())
    solve(ConsistencyProblem(mappings[-1]), warm_context)
    benchmark(lambda: solve(ConsistencyProblem(mappings[-1]), warm_context))


# -- F1.1-cold: a cold check per mapping -----------------------------------------

#: Choice counts of the cold-check series.
COLD_SIZES = (3, 4, 5, 6)
#: Fresh interpreters per arm (arms alternate round by round) and timed
#: cold checks per size in each.
COLD_ROUNDS = 3
COLD_SAMPLES = 5

#: One arm of the cold-check series, run by ``python -c`` with the
#: checkout under test on ``PYTHONPATH``; argv: the sizes (JSON) and the
#: samples per size.  Each check parses the mapping text afresh (parsed
#: objects keep memos) and solves and certifies on a fresh cache; one
#: untimed check per size first pays the interpreter's lazy imports, and
#: a collection before each check keeps earlier checks' garbage out of it.
#: ``reachable_states`` is counted where ``achievable_sets`` looks it
#: up.  Prints per-size seconds, passes per check and verdicts as JSON.
_COLD_ARM = r"""
import gc, json, sys, time
import repro.engine as engine
import repro.engine.cache as cache
from repro.mappings.io import parse_mapping, render_mapping
from repro.workloads.families import cons_arbitrary_family

sizes, samples = json.loads(sys.argv[1]), int(sys.argv[2])
passes = [0]
reachable = cache.reachable_states
def counted(*args, **kwargs):
    passes[0] += 1
    return reachable(*args, **kwargs)
cache.reachable_states = counted

def cold_check(text):
    mapping = parse_mapping(text)
    context = engine.ExecutionContext(
        engine.Budget.default(), cache=engine.CompilationCache()
    )
    verdicts = [
        engine.solve(engine.ConsistencyProblem(mapping), context),
        engine.solve(engine.AbsoluteConsistencyProblem(mapping), context),
    ]
    with context.activate():
        for verdict in verdicts:
            engine.certify(verdict)
    return verdicts

texts = {n: render_mapping(cons_arbitrary_family(n)) for n in sizes}
for text in texts.values():
    cold_check(text)
series = {}
for n, text in texts.items():
    seconds = []
    for __ in range(samples):
        passes[0] = 0
        gc.collect()
        started = time.perf_counter()
        verdicts = cold_check(text)
        seconds.append(time.perf_counter() - started)
    series[n] = {
        "seconds": seconds,
        "passes": passes[0],
        "verdicts": [repr(verdict) for verdict in verdicts],
    }
print(json.dumps(series))
"""


def _cold_arm(src: Path, sizes, samples: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _COLD_ARM, json.dumps(list(sizes)), str(samples)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def run_cold_check(
    before: Path | None = None,
    sizes=COLD_SIZES,
    rounds: int = COLD_ROUNDS,
    samples: int = COLD_SAMPLES,
    emit: bool = True,
) -> dict:
    """The F1.1-cold series (``after``; ``before`` when given)."""
    arms = {"after": REPO_ROOT / "src"}
    if before is not None:
        arms["before"] = Path(before).resolve() / "src"
    raw: dict[str, dict[str, dict]] = {arm: {} for arm in arms}
    for __ in range(rounds):
        for arm, src in arms.items():
            for n, point in _cold_arm(src, sizes, samples).items():
                merged = raw[arm].setdefault(n, {**point, "seconds": []})
                assert point["passes"] == merged["passes"], (arm, n)
                assert point["verdicts"] == merged["verdicts"], (arm, n)
                merged["seconds"] += point["seconds"]
    record: dict = {
        "claim": "a cold check (CONS + ABSCONS + certify) of a value-free "
        "mapping runs one conforming-product pass per schema side",
        "size_label": "choices",
    }
    for arm, points in raw.items():
        record[arm] = {}
        for n, point in points.items():
            seconds = point["seconds"]
            quartiles = (
                statistics.quantiles(seconds, n=4) if len(seconds) > 1 else (0, 0, 0)
            )
            record[arm][n] = {
                "median_ms": 1000 * statistics.median(seconds),
                "iqr_ms": 1000 * (quartiles[2] - quartiles[0]),
                "samples": len(seconds),
                "passes_per_check": point["passes"],
                "verdicts": point["verdicts"],
            }
    print()
    print("[F1.1-cold] cold check of cons_arbitrary_family(n): parse, CONS, "
          "ABSCONS, certify on a fresh cache")
    for n, row in record["after"].items():
        line = (f"[F1.1-cold] n={n}: {row['median_ms']:.1f} ms "
                f"(IQR {row['iqr_ms']:.1f}), {row['passes_per_check']} passes")
        if "before" in record:
            old = record["before"][n]
            line += (f"; before {old['median_ms']:.1f} ms "
                     f"(IQR {old['iqr_ms']:.1f}), "
                     f"{old['passes_per_check']} passes")
        print(f"{line} (n={row['samples']} samples)")
    if emit:
        emit_json("fig1", "F1.1-cold", record, meta={
            "F1.1-cold": {
                "cache": "cold: each check parses the text and solves on a "
                "fresh CompilationCache (no disk tier)",
                "kernel": "default selection (bitset automata)",
                "samples": f"{rounds * samples} checks per size and arm, "
                f"{rounds} fresh interpreters per arm, arms interleaved",
                "spread": "median and IQR of per-check wall time (ms)",
            },
        })
    return record


def test_f11_cold_check_series():
    """The series runs; a value-free cold check builds one table per side."""
    record = run_cold_check(sizes=(3,), rounds=1, samples=1, emit=False)
    assert record["after"]["3"]["passes_per_check"] == 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cold-check", action="store_true", required=True,
                        help="journal the F1.1-cold series")
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="also time this checkout (under 'before')")
    args = parser.parse_args(argv)
    run_cold_check(before=args.before)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
