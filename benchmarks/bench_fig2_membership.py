"""Figure 2, membership in [[M]] — experiments F2.3 and F2.4.

==============================  ======================  =====================
cell                            paper                   measured here
==============================  ======================  =====================
mapping membership, data        DLOGSPACE-complete      near-linear (F2.3)
  the paper's university mapping                        ~2-3x per doubling
mapping membership, combined    Pi_2^p-complete         exp. in #vars (F2.4)
  fixed number of variables     PTIME                   polynomial (F2.4b)
==============================  ======================  =====================

Run directly for the **university ladder** (F2.3-university): the paper's
running-example mapping, order-preserving and basic, over
``6/12/24/48/96`` professors with 5 students each, timed cold (fresh
mapping copy, fresh pattern engines) as the median and IQR of
:data:`SAMPLES` runs, journaled into ``BENCH_fig2.json`` with the growth
per doubling against the ``<= 2.5x`` target.  The basic variant's target
drops one course, so its answer is Refuted.  ``--smoke`` runs the ladder
up to 48 professors without journaling and gates three things: the
verdicts equal the known answers, the per-obligation reference
(:func:`repro.verification.oracle.oracle_is_solution`) agrees at <= 12
professors, and the median growth from 24 to 48 professors is at most
:data:`SMOKE_GROWTH_BAR`.
"""

from __future__ import annotations

import argparse
import pickle
import statistics
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import emit_json, growth_ratios, print_table, sweep

from repro.mappings.membership import is_solution
from repro.patterns.matching import engine_for
from repro.verification.oracle import oracle_is_solution
from repro.workloads.families import (
    flat_document,
    membership_mapping,
    target_document,
)
from repro.workloads.university import (
    university_mapping,
    university_source_document,
    university_target_document,
)
from repro.xmlmodel.tree import TreeNode

#: Professors per rung of the university ladder (5 students each).
LADDER = (6, 12, 24, 48, 96)
SMOKE_LADDER = (6, 12, 24, 48)
#: Timed cold runs per rung (median and IQR are journaled).
SAMPLES = 5
#: ROADMAP's target for growth per doubling (reported, not gated).
GROWTH_TARGET = 2.5
#: The smoke gate: median growth from 24 to 48 professors.
SMOKE_GROWTH_BAR = 3.0
#: Rungs at or below this size are also checked against the reference.
REFERENCE_MAX_PROFESSORS = 12


def test_f23_membership_data(benchmark):
    """F2.3: fixed mapping, growing documents — low data complexity."""
    mapping = membership_mapping(2)
    def make(n):
        source, target = flat_document(n), target_document(n)
        return lambda: is_solution(mapping, source, target)

    rows = sweep([10, 20, 40, 80, 160], make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F2.3",
        "mapping membership, data complexity: DLOGSPACE-complete",
        rows,
        size_label="|T|",
        note="the mapping (2 variables) is fixed; only the documents grow",
    )
    benchmark(
        lambda: is_solution(mapping, flat_document(80), target_document(80))
    )


def test_f24_membership_combined_variables(benchmark):
    """F2.4: the number of variables drives the Pi_2^p blow-up."""
    def make(k):
        mapping = membership_mapping(k)
        source, target = flat_document(12), target_document(12)
        return lambda: is_solution(mapping, source, target)

    rows = sweep([1, 2, 3, 4], make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F2.4",
        "mapping membership, combined complexity: Pi_2^p-complete",
        rows,
        size_label="#vars",
        note="fixed documents (12 items); source matches grow like 12^k",
    )
    benchmark(
        lambda: is_solution(
            membership_mapping(3), flat_document(12), target_document(12)
        )
    )


def test_f24b_membership_fixed_arity(benchmark):
    """F2.4b: with the arity fixed, combined complexity is PTIME."""
    mapping = membership_mapping(2)

    def make(n):
        source, target = flat_document(n), target_document(n)
        return lambda: is_solution(mapping, source, target)

    rows = sweep([10, 20, 40, 80], make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F2.4b",
        "membership with fixed arity: PTIME (Theorem 4.3)",
        rows,
        size_label="|T|",
        note="2 variables fixed; documents grow — polynomial growth",
    )
    benchmark(
        lambda: is_solution(
            membership_mapping(2), flat_document(40), target_document(40)
        )
    )


# -- the university ladder ------------------------------------------------------


def university_case(order_preserving: bool, professors: int):
    """``(mapping, source, target, expected)`` for one rung of the ladder."""
    mapping = university_mapping(order_preserving)
    source = university_source_document(professors, 5, seed=2009 + professors)
    target = university_target_document(source)
    if not order_preserving:  # drop one course: a known violation
        target = TreeNode("r", (), target.children[1:])
    return mapping, source, target, order_preserving


def time_ladder(order_preserving: bool, rungs, samples: int) -> list[dict]:
    """Cold ``is_solution`` timings per rung: median and IQR in seconds.

    Samples are taken round-robin over the rungs, after one untimed run
    each, so a spell of host load slows every rung alike instead of
    bending one rung's median (the growth ratios are the point).
    """
    cases = {n: university_case(order_preserving, n) for n in rungs}
    seconds: dict[int, list[float]] = {n: [] for n in rungs}
    verdicts = {}
    for sample in range(samples + 1):
        for n, (mapping, source, target, expected) in cases.items():
            fresh = pickle.loads(pickle.dumps(mapping))  # sheds the std memos
            source._engine = target._engine = None
            started = time.perf_counter()
            verdicts[n] = is_solution(fresh, source, target)
            if sample:
                seconds[n].append(time.perf_counter() - started)
            if verdicts[n].is_proved != expected:
                raise AssertionError(
                    f"university(order={order_preserving}, profs={n}): "
                    f"{verdicts[n]!r}, expected {'Proved' if expected else 'Refuted'}"
                )
    points = []
    for n, (__, source, target, __) in cases.items():
        q1, median, q3 = statistics.quantiles(seconds[n], n=4, method="inclusive")
        points.append({
            "n": n,
            "nodes": source.size + target.size,
            "median_seconds": median,
            "iqr_seconds": q3 - q1,
            "samples": samples,
            "result": repr(verdicts[n]),
            "engine": type(engine_for(target)).__name__,
        })
    return points


def run_ladder(rungs, samples: int = SAMPLES) -> dict[str, dict]:
    records = {}
    for order_preserving in (True, False):
        name = "order-preserving" if order_preserving else "basic"
        points = time_ladder(order_preserving, rungs, samples)
        growth = growth_ratios([(p["n"], p["median_seconds"]) for p in points])
        records[name] = {"points": points, "growth_per_doubling": growth}
        rendered = ", ".join(
            f"{p['n']}: {1000 * p['median_seconds']:.1f} ms "
            f"(IQR {1000 * p['iqr_seconds']:.1f})"
            for p in points
        )
        print(f"[F2.3-university] {name}: {rendered}")
        print(f"[F2.3-university] {name} growth per doubling: "
              + ", ".join(f"{g:.2f}x" for g in growth)
              + f" (target <= {GROWTH_TARGET}x: "
              + ("met" if max(growth) <= GROWTH_TARGET else "not met") + ")")
    return records


def reference_disagreements(rungs) -> list[str]:
    """Rungs on which production membership and the reference differ."""
    errors = []
    for order_preserving in (True, False):
        for professors in (n for n in rungs if n <= REFERENCE_MAX_PROFESSORS):
            mapping, source, target, __ = university_case(order_preserving, professors)
            verdict = is_solution(mapping, source, target)
            member, failures = oracle_is_solution(mapping, source, target)
            label = f"university(order={order_preserving}, profs={professors})"
            if verdict.is_proved != member:
                errors.append(f"{label}: {verdict!r} but the reference says {member}")
            elif not member:
                shared = set(mapping.stds[0].shared_variables())
                expected = {
                    tuple(sorted((v.name, x) for v, x in valuation.items() if v in shared))
                    for __, valuation in failures
                }
                if verdict.certificate.valuation not in expected:
                    errors.append(f"{label}: witness is not a reference failure")
    return errors


def test_f23_university_ladder_agrees_with_reference():
    """The correctness half only: verdicts and the reference, no timing."""
    run_ladder((6, 12), samples=2)
    assert reference_disagreements((6, 12)) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="F2.3 university membership ladder")
    parser.add_argument("--smoke", action="store_true",
                        help="ladder up to 48 professors plus the gates (CI)")
    args = parser.parse_args(argv)
    try:
        if not args.smoke:
            records = run_ladder(LADDER)
            emit_json("fig2", "F2.3-university", {
                "claim": "mapping membership, data complexity: DLOGSPACE-complete",
                "note": "the paper's university mapping, 5 students per "
                "professor; the basic variant's target drops one course",
                "size_label": "professors",
                "growth_target": GROWTH_TARGET,
                "series": records,
                "_meta": {
                    "cache": "cold (fresh mapping copy and pattern engines "
                    "per sample; one untimed run per rung first)",
                    "pattern_engine": sorted({
                        p["engine"] for r in records.values() for p in r["points"]
                    }),
                    "samples": SAMPLES,
                    "spread": "IQR of the samples, next to each median; "
                    "samples taken round-robin over the rungs",
                },
            })
            return 0
        errors = reference_disagreements(SMOKE_LADDER)
        growth = 0.0
        for attempt in range(3):
            records = run_ladder(SMOKE_LADDER)
            growth = max(
                r["growth_per_doubling"][SMOKE_LADDER.index(48) - 1]
                for r in records.values()
            )
            print(f"[F2.3-university] gate: 24 -> 48 growth {growth:.2f}x "
                  f"(bar {SMOKE_GROWTH_BAR}x, attempt {attempt + 1}/3)")
            if growth <= SMOKE_GROWTH_BAR:
                break
        if growth > SMOKE_GROWTH_BAR:
            errors.append(f"24 -> 48 growth {growth:.2f}x above {SMOKE_GROWTH_BAR}x")
    except AssertionError as error:
        errors = [str(error)]
    for error in errors:
        print(f"FAIL: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
