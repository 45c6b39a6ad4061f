"""Incremental re-solving guard: a single-std edit must beat a cold solve.

The incremental engine's promise (see DESIGN.md §Incremental
re-solving) is that editing one std of an ``n``-std mapping re-solves
only that std: unchanged parts are reused, so the other ``n - 1`` stds'
compiled automata and memoized verdicts stay warm.  This guard measures a
cold ``IncrementalEngine.update`` against single-std-edit deltas over a
ladder of mapping sizes and journals the cold-vs-delta series into
``BENCH_incremental.json`` (full runs only).  Two gates run under
``--smoke`` (CI), which journals nothing:

* **speedup** — at the largest ladder size (20 stds) the mean delta
  must be at least :data:`SPEEDUP_BAR` times faster than a cold solve;
* **equivalence** — under random single-std edit sequences the
  incremental verdicts and lint diagnostics must be *identical* to a
  cold solve of the same revision, with each pattern engine (``pure``
  object engine, ``bitset`` compact engine) pinned in turn (the
  correctness half: reuse may never change an answer).

Both gates run once per budget arm of :data:`ARMS`: the library default
(no deadline) and the daemon's per-request deadline, which every
``/delta`` through ``repro serve`` runs under.

Run directly (no flags) for the full series with more edits per point.

``--warm`` journals the warm-request series instead: memo-served
``/check``, ``/lint`` and single-std ``/delta`` requests of a 20-std
revision through an ``EngineSession``, median and IQR over
:data:`WARM_SAMPLES` requests per endpoint and budget arm (the
``-deadline`` endpoints send the daemon's ``timeout``).  Each arm runs
in a fresh interpreter; ``--before CHECKOUT`` adds an arm for another
checkout (a ``git archive`` of the parent commit, say), interleaved
round by round with this one and journaled under ``before``::

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

from repro.engine import Budget, CompilationCache
from repro.incremental import IncrementalEngine
from repro.kernel import BITSET, PURE, force_kernel

#: Mean single-std-edit delta must be at least this many times faster
#: than a cold solve at the largest ladder size.
SPEEDUP_BAR = 10.0

#: Mapping sizes (std count) of the cold-vs-delta ladder.
LADDER = (5, 10, 20)

#: Budget arms, by name: the deadline in seconds each request runs under.
#: ``deadline`` is the daemon's ``ServiceServer.request_timeout``.
ARMS = {"default": None, "deadline": 30.0}

#: Requests per arm and endpoint of the warm-request series.
WARM_SAMPLES = 300
#: Fresh interpreters per arm; the arms alternate round by round.
WARM_ROUNDS = 3
#: Std count of the warm-request revision.
WARM_STDS = 20

#: One arm of the warm-request series, run by ``python -c`` with the
#: checkout under test on ``PYTHONPATH``.  stdin holds two revisions that
#: differ in one std and the budget arms (suffix, request fields); argv[1]
#: the requests per endpoint.  A delta, check and lint of each revision
#: under each budget warm the session, so every timed request is served
#: from the memo.  Prints per-request seconds as JSON.
_WARM_ARM = r"""
import json, sys, time
from repro.service.session import EngineSession

stdin = json.load(sys.stdin)
texts, arms = stdin["texts"], stdin["arms"]
samples = int(sys.argv[1])
session = EngineSession()
for suffix, fields in arms:
    for text in texts:
        session.delta({"name": "warm" + suffix, "mapping": text, **fields})
        session.check({"mappings": [text], **fields})
        session.lint({"mappings": [text], **fields})

def timed(call):
    seconds = []
    for index in range(samples):
        started = time.perf_counter()
        response = call(index)
        seconds.append(time.perf_counter() - started)
        assert response["ok"], response.get("error")
    return seconds

series = {}
for suffix, fields in arms:
    series["check" + suffix] = timed(
        lambda i: session.check({"mappings": [texts[0]], **fields})
    )
    series["lint" + suffix] = timed(
        lambda i: session.lint({"mappings": [texts[0]], **fields})
    )
    # the stream's last revision is texts[1]: each delta is a
    # single-std edit back and forth
    series["delta" + suffix] = timed(lambda i: session.delta(
        {"name": "warm" + suffix, "mapping": texts[i % 2], **fields}
    ))
print(json.dumps(series))
"""


def _budget(deadline: float | None) -> Budget:
    return Budget.default().with_(deadline_seconds=deadline)


def _arm_label(deadline: float | None) -> str:
    return "no deadline" if deadline is None else f"deadline {deadline:g}s"


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


def measure_ladder_point(n: int, edits: int, deadline: float | None = None) -> dict:
    """Cold-vs-delta timings for one mapping size under a budget arm's
    *deadline* (no assertion here)."""
    engine = IncrementalEngine(cache=CompilationCache(), budget=_budget(deadline))
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
        "deadline_seconds": deadline,
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
        f"[incremental] n={n:>3} ({_arm_label(deadline)}): cold "
        f"{cold_seconds:.4f}s vs delta {mean_delta:.4f}s (min {min(delta_seconds):.4f}s) -> "
        f"{record['speedup']:.1f}x over {edits} single-std edits "
        f"[ms/delta: {split}]"
    )
    return record


def check_equivalence(
    kernel: str, seeds: int, edits: int, deadline: float | None = None
) -> int:
    """Incremental verdicts and lint diagnostics, under a budget arm's
    *deadline*, must equal an unbounded cold solve's under *kernel*."""
    checked = 0
    with force_kernel(kernel):
        for seed in range(seeds):
            rng = random.Random(8200 + seed)
            n = rng.choice((3, 5))
            engine = IncrementalEngine(
                cache=CompilationCache(), budget=_budget(deadline)
            )
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
                assert incremental.lint.diagnostics == cold.lint.diagnostics, (
                    f"incremental lint != cold under {kernel} (seed {seed})"
                )
                checked += len(mine)
                index = rng.randrange(n)
                variants[index] = variants.get(index, 0) + 1
    print(
        f"[incremental] equivalence under {kernel} ({_arm_label(deadline)}): "
        f"{checked} verdicts and their lint agree"
    )
    return checked


def run_guard(smoke: bool = False, emit: bool = True, attempts: int = 3) -> int:
    edits = 5 if smoke else 10
    records: dict[str, dict[int, dict]] = {}
    speedups: dict[str, float] = {}
    for arm, deadline in ARMS.items():
        for attempt in range(attempts):
            records[arm] = {
                n: measure_ladder_point(n, edits, deadline) for n in LADDER
            }
            speedups[arm] = records[arm][max(LADDER)]["speedup"]
            print(
                f"[incremental] gate ({arm}): {speedups[arm]:.1f}x at "
                f"n={max(LADDER)} (bar {SPEEDUP_BAR:.0f}x, attempt "
                f"{attempt + 1}/{attempts})"
            )
            if speedups[arm] >= SPEEDUP_BAR:
                break
    for kernel in (PURE, BITSET):
        for deadline in ARMS.values():
            check_equivalence(kernel, seeds=2 if smoke else 4, edits=3,
                              deadline=deadline)
    if emit:
        for arm, ladder in records.items():
            suffix = "" if arm == "default" else f"-{arm}"
            for n, record in ladder.items():
                emit_json("incremental", f"delta-n{n}{suffix}", dict(
                    record,
                    claim="single-std edit re-solves one std, "
                    "unchanged parts are reused",
                ))
        emit_json("incremental", "aggregate", {
            "claim": f"single-std edits of a {max(LADDER)}-std mapping are "
            f">= {SPEEDUP_BAR:.0f}x faster than a cold solve, with and "
            "without the daemon's deadline",
            "speedup": speedups["default"],
            "speedup_deadline": speedups["deadline"],
            "speedup_bar": SPEEDUP_BAR,
            "ladder": list(LADDER),
            "arms": ARMS,
            "equivalence_kernels": [PURE, BITSET],
        })
    slow = {arm: speedup for arm, speedup in speedups.items() if speedup < SPEEDUP_BAR}
    assert not slow, (
        f"delta speedup at n={max(LADDER)} below the {SPEEDUP_BAR:.0f}x bar: "
        + ", ".join(f"{speedup:.1f}x ({arm})" for arm, speedup in slow.items())
    )
    return 0


def _warm_arm(src: Path, samples: int) -> dict[str, list[float]]:
    """Per-request seconds of one fresh-interpreter arm over *src*."""
    texts = [make_mapping(WARM_STDS), make_mapping(WARM_STDS, {0: 1})]
    arms = [
        ("" if deadline is None else f"-{arm}",
         {} if deadline is None else {"timeout": deadline})
        for arm, deadline in ARMS.items()
    ]
    completed = subprocess.run(
        [sys.executable, "-c", _WARM_ARM, str(samples)],
        input=json.dumps({"texts": texts, "arms": arms}),
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
        f"{WARM_STDS}-std revision costs a lookup, not a parse, with and "
        "without the daemon's deadline",
        "stds": WARM_STDS,
    }
    for arm, endpoints in seconds.items():
        record[arm] = {
            endpoint: _median_iqr_ms(series) for endpoint, series in endpoints.items()
        }
    for endpoint, row in record["after"].items():
        line = f"[incremental] warm {endpoint:<14}: {row['median_ms']:.3f} ms"
        if "before" in record:
            old = record["before"][endpoint]
            line = (
                f"[incremental] warm {endpoint:<14}: {old['median_ms']:.3f} ms "
                f"(IQR {old['iqr_ms']:.3f}) -> {row['median_ms']:.3f} ms"
            )
        print(f"{line} (IQR {row['iqr_ms']:.3f}, n={row['samples']})")
    if emit:
        emit_json("incremental", "warm-requests", record, meta={
            "warm-requests": {
                "cache": "warm: every timed request is a memo hit (a delta, "
                "check and lint of both revisions under both budgets ran "
                "first)",
                "budgets": "plain endpoints: the default budget; -deadline "
                "endpoints: the daemon's 30 s request timeout",
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
        for deadline in ARMS.values():
            check_equivalence(kernel, seeds=1, edits=2, deadline=deadline)


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
        # only a full run journals: smoke numbers (fewer edits) would
        # overwrite the committed ladder
        return run_guard(smoke=args.smoke, emit=not args.smoke)
    except AssertionError as error:
        print(f"FAIL: {error}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
