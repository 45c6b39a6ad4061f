"""Incremental re-solving guard: a single-std edit must beat a cold solve.

The incremental engine's promise (see DESIGN.md §Incremental
re-solving) is that editing one std of an ``n``-std mapping re-solves
only that std: unchanged parts are reused, so the other ``n - 1`` stds'
compiled automata and memoized verdicts stay warm.  This guard measures a
cold ``IncrementalEngine.update`` against single-std-edit deltas over a
ladder of mapping sizes and journals the cold-vs-delta series into
``BENCH_incremental.json``.  Two gates run under ``--smoke`` (CI):

* **speedup** — at the largest ladder size (20 stds) the mean delta
  must be at least :data:`SPEEDUP_BAR` times faster than a cold solve;
* **equivalence** — under random single-std edit sequences the
  incremental verdicts must be *identical* to a cold solve of the same
  revision, under both the pure and the bitset automata kernels (the
  correctness half: reuse may never change an answer).

Run directly (no flags) for the full series with more edits per point.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import emit_json

from repro.engine import CompilationCache
from repro.incremental import IncrementalEngine
from repro.kernel import BITSET, PURE, force_kernel

#: Mean single-std-edit delta must be at least this many times faster
#: than a cold solve at the largest ladder size.
SPEEDUP_BAR = 10.0

#: Mapping sizes (std count) of the cold-vs-delta ladder.
LADDER = (5, 10, 20)


def make_mapping(n: int, edited: dict[int, int] | None = None) -> str:
    """An ``n``-std mapping with per-std disjoint labels.

    Each std ``i`` maps its own source subtree ``a_i/c_i`` to its own
    target subtree ``b_i/d_i``, so per-std compilation artifacts are
    independent and an edit changes exactly one std's artifacts.  *edited*
    maps std indices to a variant number; odd variants flatten the
    target pattern (a real semantic edit, not a comment tweak).
    """
    edited = edited or {}
    src = ["source:", "    r -> " + ", ".join(f"a{i}*" for i in range(n))]
    tgt = ["target:", "    r -> " + ", ".join(f"b{i}*" for i in range(n))]
    for i in range(n):
        src += [f"    a{i}(x{i}) -> c{i}*", f"    c{i}(y{i})"]
        tgt += [f"    b{i}(x{i}) -> d{i}*", f"    d{i}(y{i})"]
    stds = []
    for i in range(n):
        if edited.get(i, 0) % 2 == 1:
            stds.append(f"std: r[a{i}(v)[c{i}(w)]] -> r[b{i}(v)]")
        else:
            stds.append(f"std: r[a{i}(v)[c{i}(w)]] -> r[b{i}(v)[d{i}(w)]]")
    return "\n".join(src + tgt + stds) + "\n"


def measure_ladder_point(n: int, edits: int) -> dict:
    """Cold-vs-delta timings for one mapping size (no assertion here)."""
    engine = IncrementalEngine(cache=CompilationCache())
    started = time.perf_counter()
    cold = engine.update("bench", make_mapping(n))
    cold_seconds = time.perf_counter() - started
    variants: dict[int, int] = {}
    delta_seconds = []
    phases: dict[str, float] = {}
    reused = recompiled = invalidated = 0
    for edit in range(edits):
        index = edit % n
        variants[index] = variants.get(index, 0) + 1
        started = time.perf_counter()
        delta = engine.update("bench", make_mapping(n, variants))
        delta_seconds.append(time.perf_counter() - started)
        for phase, seconds in delta.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        reused += delta.reused
        recompiled += delta.recompiled
        invalidated += (
            delta.invalidated["artifacts"] + delta.invalidated["results"]
        )
    mean_delta = sum(delta_seconds) / len(delta_seconds)
    record = {
        "n": n,
        "cold_seconds": cold_seconds,
        "delta_seconds_mean": mean_delta,
        "delta_seconds_min": min(delta_seconds),
        # where a delta's time goes: parse, fingerprint (fingerprint and
        # diff), solve and lint; mean ms per delta
        "delta_phase_ms_mean": {
            phase: 1000 * seconds / edits for phase, seconds in phases.items()
        },
        "speedup": cold_seconds / max(mean_delta, 1e-9),
        "edits": edits,
        "reused": reused,
        "recompiled": recompiled,
        "invalidated": invalidated,
        "cold_recompiled": cold.recompiled,
    }
    split = ", ".join(
        f"{phase} {ms:.2f}" for phase, ms in record["delta_phase_ms_mean"].items()
    )
    print(
        f"[incremental] n={n:>3}: cold {cold_seconds:.4f}s vs delta "
        f"{mean_delta:.4f}s (min {min(delta_seconds):.4f}s) -> "
        f"{record['speedup']:.1f}x over {edits} single-std edits "
        f"[ms/delta: {split}]"
    )
    return record


def check_equivalence(kernel: str, seeds: int, edits: int) -> int:
    """Incremental verdicts must equal cold-solve verdicts under *kernel*."""
    checked = 0
    with force_kernel(kernel):
        for seed in range(seeds):
            rng = random.Random(8200 + seed)
            n = rng.choice((3, 5))
            engine = IncrementalEngine(cache=CompilationCache())
            variants: dict[int, int] = {}
            for __ in range(edits + 1):
                text = make_mapping(n, variants)
                incremental = engine.update("equiv", text)
                cold = IncrementalEngine(cache=CompilationCache()).update(
                    "equiv", text
                )
                mine = {k: v.decision() for k, v in incremental.verdicts.items()}
                theirs = {k: v.decision() for k, v in cold.verdicts.items()}
                assert mine == theirs, (
                    f"incremental != cold under {kernel} (seed {seed}): "
                    f"{mine} vs {theirs}"
                )
                checked += len(mine)
                index = rng.randrange(n)
                variants[index] = variants.get(index, 0) + 1
    print(f"[incremental] equivalence under {kernel}: {checked} verdicts agree")
    return checked


def run_guard(smoke: bool = False, emit: bool = True, attempts: int = 3) -> int:
    edits = 5 if smoke else 10
    records: dict[int, dict] = {}
    gate_speedup = 0.0
    for attempt in range(attempts):
        records = {n: measure_ladder_point(n, edits) for n in LADDER}
        gate_speedup = records[max(LADDER)]["speedup"]
        print(
            f"[incremental] gate: {gate_speedup:.1f}x at n={max(LADDER)} "
            f"(bar {SPEEDUP_BAR:.0f}x, attempt {attempt + 1}/{attempts})"
        )
        if gate_speedup >= SPEEDUP_BAR:
            break
    for kernel in (PURE, BITSET):
        check_equivalence(kernel, seeds=2 if smoke else 4, edits=3)
    if emit:
        for n, record in records.items():
            emit_json("incremental", f"delta-n{n}", dict(
                record,
                claim="single-std edit re-solves one std, "
                "unchanged parts are reused",
            ))
        emit_json("incremental", "aggregate", {
            "claim": f"single-std edits of a {max(LADDER)}-std mapping are "
            f">= {SPEEDUP_BAR:.0f}x faster than a cold solve",
            "speedup": gate_speedup,
            "speedup_bar": SPEEDUP_BAR,
            "ladder": list(LADDER),
            "equivalence_kernels": [PURE, BITSET],
        })
    assert gate_speedup >= SPEEDUP_BAR, (
        f"delta speedup {gate_speedup:.1f}x at n={max(LADDER)} below the "
        f"{SPEEDUP_BAR:.0f}x bar"
    )
    return 0


# -- pytest entry point --------------------------------------------------------


def test_incremental_equivalence():
    """The correctness half only — timing gates stay out of tier-1."""
    for kernel in (PURE, BITSET):
        check_equivalence(kernel, seeds=1, edits=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer edits per point for the CI gate")
    args = parser.parse_args(argv)
    try:
        return run_guard(smoke=args.smoke)
    except AssertionError as error:
        print(f"FAIL: {error}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
