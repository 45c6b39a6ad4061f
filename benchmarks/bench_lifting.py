"""Tag lifting: pattern satisfiability with constants, k = 1..4.

``satisfying_tree`` decides a pattern with constants by searching a DTD
automaton x closure automaton product over letters ``(label, tags)``,
the tags drawn from the pattern's constants plus one fresh value, once
per tag assignment of the repeated variables.  The case:

* DTD ``t -> c*, d`` with ``c(w, z)`` and ``d(w, z, y)``;
* pattern ``t[c(0, 1), ..., c(2k-2, 2k-1), c(x, y), d(y, x, 98), d(1, 2, 99)]``
  (``unsat``: the single ``d`` cannot carry both 98 and 99, whatever
  ``x`` and ``y`` are), and the same without ``d(1, 2, 99)`` (``sat``).

The domain has ``2k + 3`` values for k >= 2, so the ``d`` letters
number ``(2k + 3)^3`` and the searches ``(2k + 3)^2`` (one per value of
``x`` and ``y``): the time grows steeply with k.  Every sample decides one case on a fresh compilation cache.
The samples of one round run in one fresh interpreter per arm, after an
untimed warm-up case, and the arms alternate within the round.
``--before CHECKOUT`` adds an arm for another checkout (a ``git
archive`` of the parent commit, say), journaled under ``before``::

    python benchmarks/bench_lifting.py --before /tmp/parent

Each entry of ``BENCH_lifting.json`` is the median and IQR in seconds
per k and variant, with the verdict, over ``ROUNDS`` samples each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    if str(_here) not in sys.path:
        sys.path.insert(0, str(_here))

from harness import REPO_ROOT, emit_json

ROUNDS = 7
MAX_K = 4

#: One round in a fresh interpreter: argv[1] is the JSON list of
#: (k, variant) cases; prints {case: [seconds, satisfiable]} as JSON.
_ROUND = r"""
import json, sys, time
from repro.engine import CompilationCache, ExecutionContext
from repro.patterns.parser import parse_pattern
from repro.patterns.satisfiability import satisfying_tree
from repro.xmlmodel.dtd import parse_dtd

DTD = parse_dtd("t -> c*, d\nc(w, z)\nd(w, z, y)")

def pattern(k, variant):
    items = [f"c({2 * i}, {2 * i + 1})" for i in range(k)]
    items += ["c(x, y)", "d(y, x, 98)"]
    if variant == "unsat":
        items.append("d(1, 2, 99)")
    return parse_pattern("t[" + ", ".join(items) + "]")

def decide(k, variant):
    context = ExecutionContext(cache=CompilationCache())
    started = time.perf_counter()
    witness = satisfying_tree(DTD, pattern(k, variant), context)
    return time.perf_counter() - started, witness is not None

decide(1, "sat")  # untimed: pays the lazy imports
print(json.dumps({
    f"k={k}/{variant}": decide(k, variant)
    for k, variant in json.loads(sys.argv[1])
}))
"""


def _round(src: Path, cases: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _ROUND, json.dumps(cases)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="also time this checkout (journaled under 'before')")
    args = parser.parse_args(argv)
    arms = {"after": REPO_ROOT / "src"}
    if args.before is not None:
        arms["before"] = args.before.resolve() / "src"
    cases = [
        (k, variant)
        for k in range(1, MAX_K + 1) for variant in ("unsat", "sat")
    ]
    samples: dict[str, dict[str, list]] = {arm: {} for arm in arms}
    order = list(arms)
    for round_index in range(ROUNDS):
        for arm in order if round_index % 2 == 0 else order[::-1]:
            for case, result in _round(arms[arm], cases).items():
                samples[arm].setdefault(case, []).append(result)
    for k, variant in cases:
        case = f"k={k}/{variant}"
        record = {}
        for arm in arms:
            seconds = [elapsed for elapsed, __ in samples[arm][case]]
            verdicts = {satisfiable for __, satisfiable in samples[arm][case]}
            if verdicts != {variant == "sat"}:
                raise RuntimeError(f"{arm} decided {case} as {verdicts}")
            quartiles = statistics.quantiles(seconds, n=4)
            record[arm] = {
                "median_s": statistics.median(seconds),
                "iqr_s": quartiles[2] - quartiles[0],
                "samples": len(seconds),
            }
        record["satisfiable"] = variant == "sat"
        line = f"[lifting] {case:<11}: "
        if "before" in record:
            old = record["before"]
            line += f"{old['median_s']:8.4f} s (IQR {old['iqr_s']:.4f}) -> "
        after = record["after"]
        print(f"{line}{after['median_s']:8.4f} s (IQR {after['iqr_s']:.4f})")
        emit_json("lifting", case, record)
    emit_json("lifting", None, None, meta={
        "case": "DTD t -> c*, d; c(w, z); d(w, z, y); pattern "
        "t[c(0, 1), ..., c(2k-2, 2k-1), c(x, y), d(y, x, 98), d(1, 2, 99)] "
        "(unsat) and without d(1, 2, 99) (sat)",
        "cache": "cold: every sample decides on a fresh CompilationCache",
        "arms": "after: this checkout, whose tag lifting runs on the bitset "
        "automata and builds the search's label order and reader table "
        "once per lifted DTD automaton; before: the checkout given with "
        "--before",
        "samples": f"{ROUNDS} per case and arm; one fresh interpreter "
        "per round and arm after an untimed warm-up case, the arm order "
        "alternating from round to round",
        "spread": "median and IQR of satisfying_tree wall time (s)",
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
