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
  revision, with each pattern engine (``pure`` object engine, ``bitset``
  compact engine) pinned in turn (the correctness half: reuse may never
  change an answer).

Run directly (no flags) for the full series with more edits per point.

``--warm`` journals the warm-request series instead: memo-served
``/check``, ``/lint`` and single-std ``/delta`` requests of a 20-std
revision through an ``EngineSession``, median and IQR over
:data:`WARM_SAMPLES` requests per endpoint.  Each arm runs in a fresh
interpreter; ``--before CHECKOUT`` adds an arm for another checkout (a
``git archive`` of the parent commit, say), interleaved round by round
with this one and journaled under ``before``::

    python benchmarks/bench_incremental.py --warm --before /tmp/parent
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
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

from harness import REPO_ROOT, emit_json

from repro.engine import CompilationCache
from repro.incremental import IncrementalEngine
from repro.kernel import BITSET, PURE, force_kernel

#: Mean single-std-edit delta must be at least this many times faster
#: than a cold solve at the largest ladder size.
SPEEDUP_BAR = 10.0

#: Mapping sizes (std count) of the cold-vs-delta ladder.
LADDER = (5, 10, 20)

#: Requests per arm and endpoint of the warm-request series.
WARM_SAMPLES = 300
#: Fresh interpreters per arm; the arms alternate round by round.
WARM_ROUNDS = 3
#: Std count of the warm-request revision.
WARM_STDS = 20

#: One arm of the warm-request series, run by ``python -c`` with the
#: checkout under test on ``PYTHONPATH``.  stdin holds two revisions that
#: differ in one std; argv[1] the requests per endpoint.  A delta, check
#: and lint of each revision warm the session, so every timed request is
#: served from the memo.  Prints per-request seconds as JSON.
_WARM_ARM = r"""
import json, sys, time
from repro.service.session import EngineSession

texts = json.load(sys.stdin)
samples = int(sys.argv[1])
session = EngineSession()
for text in texts:
    session.delta({"name": "warm", "mapping": text})
    session.check({"mappings": [text]})
    session.lint({"mappings": [text]})

def timed(call):
    seconds = []
    for index in range(samples):
        started = time.perf_counter()
        response = call(index)
        seconds.append(time.perf_counter() - started)
        assert response["ok"], response.get("error")
    return seconds

print(json.dumps({
    "check": timed(lambda i: session.check({"mappings": [texts[0]]})),
    "lint": timed(lambda i: session.lint({"mappings": [texts[0]]})),
    # the stream's last revision is texts[1]: each delta is a
    # single-std edit back and forth
    "delta": timed(lambda i: session.delta(
        {"name": "warm", "mapping": texts[i % 2]}
    )),
}))
"""


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


def _warm_arm(src: Path, samples: int) -> dict[str, list[float]]:
    """Per-request seconds of one fresh-interpreter arm over *src*."""
    texts = [make_mapping(WARM_STDS), make_mapping(WARM_STDS, {0: 1})]
    completed = subprocess.run(
        [sys.executable, "-c", _WARM_ARM, str(samples)],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _median_iqr_ms(seconds: list[float]) -> dict:
    quartiles = statistics.quantiles(seconds, n=4)
    return {
        "median_ms": 1000 * statistics.median(seconds),
        "iqr_ms": 1000 * (quartiles[2] - quartiles[0]),
        "samples": len(seconds),
    }


def run_warm_series(before: Path | None = None, emit: bool = True) -> dict:
    """Journal the warm-request series (``after``; ``before`` when given)."""
    arms = {"after": REPO_ROOT / "src"}
    if before is not None:
        arms["before"] = Path(before).resolve() / "src"
    per_round = math.ceil(WARM_SAMPLES / WARM_ROUNDS)
    seconds: dict[str, dict[str, list[float]]] = {arm: {} for arm in arms}
    for __ in range(WARM_ROUNDS):
        for arm, src in arms.items():
            for endpoint, series in _warm_arm(src, per_round).items():
                seconds[arm].setdefault(endpoint, []).extend(series)
    record: dict = {
        "claim": f"a repeated /check, /lint or single-std /delta of a "
        f"{WARM_STDS}-std revision costs a lookup, not a parse",
        "stds": WARM_STDS,
    }
    for arm, endpoints in seconds.items():
        record[arm] = {
            endpoint: _median_iqr_ms(series) for endpoint, series in endpoints.items()
        }
    for endpoint, row in record["after"].items():
        line = f"[incremental] warm {endpoint:<5}: {row['median_ms']:.3f} ms"
        if "before" in record:
            old = record["before"][endpoint]
            line = (
                f"[incremental] warm {endpoint:<5}: {old['median_ms']:.3f} ms "
                f"(IQR {old['iqr_ms']:.3f}) -> {row['median_ms']:.3f} ms"
            )
        print(f"{line} (IQR {row['iqr_ms']:.3f}, n={row['samples']})")
    if emit:
        emit_json("incremental", "warm-requests", record, meta={
            "warm-requests": {
                "cache": "warm: every timed request is a memo hit (a delta, "
                "check and lint of both revisions ran first)",
                "kernel": "default selection (bitset automata, pattern "
                "engine by input size); memo hits run neither",
                "samples": f"{per_round * WARM_ROUNDS} requests per arm and "
                f"endpoint, {WARM_ROUNDS} fresh interpreters per arm, arms "
                "interleaved",
                "spread": "median and IQR of per-request wall time (ms)",
            },
        })
    return record


# -- pytest entry point --------------------------------------------------------


def test_incremental_equivalence():
    """The correctness half only — timing gates stay out of tier-1."""
    for kernel in (PURE, BITSET):
        check_equivalence(kernel, seeds=1, edits=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer edits per point for the CI gate")
    parser.add_argument("--warm", action="store_true",
                        help="journal the warm-request series instead")
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="with --warm: also time this checkout (under 'before')")
    args = parser.parse_args(argv)
    if args.warm:
        run_warm_series(before=args.before)
        return 0
    try:
        return run_guard(smoke=args.smoke)
    except AssertionError as error:
        print(f"FAIL: {error}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
