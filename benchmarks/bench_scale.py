"""Document-scale kernel ladder — ``BENCH_scale.json``.

Three ladders plus the sweep that sets the pattern-engine cutover:

* **document ladder** — trees of 10^3..10^6 nodes, under **both**
  pattern-engine kernels (``pure`` and ``bitset``, pinned via
  :func:`repro.kernel.force_kernel` so the automatic size cutover does
  not blur the comparison); per size, one mapping-membership decision
  (``is_solution`` over flat documents) and one pattern-evaluation pass
  (fresh engine build + a selective ``find_matches`` + a
  sequence-existence query);
* **F1.1 ladder** — the trigger-set tables of the EXPTIME consistency
  family ``n = 1..6``, on both DTDs of each mapping: production
  ``achievable_sets`` (bitset automata, cold compilation cache) against
  ``achievable_sets_reference`` (the plain automata, uncached),
  journaling the production speedup at the top of the ladder
  (acceptance bar: >= 5x at ``n = 6``);
* **engine-size sweep** — ``PatternEngine`` vs ``CompactPatternEngine``,
  both built directly, on documents of 1..10^4 nodes; the smallest size
  from which the compact engine is faster is the pattern-engine cutover
  in :mod:`repro.kernel`, journaled under ``_meta.engine-cutover``.
  ``--cutover`` runs and journals only this sweep.

``--smoke`` runs a reduced ladder and doubles as the **kernel
equivalence gate**: membership verdicts and match relations must be
identical under both pattern-engine kernels, the production trigger-set
tables must have exactly the reference's trigger sets, and the F1.1
consistency witnesses must certify.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    for entry in (_here, _here.parent / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from harness import emit_json, print_table, series_payload, sweep

from repro.consistency import is_consistent_automata
from repro.consistency.cons_automata import _pattern_labels
from repro.engine import CompilationCache, ExecutionContext
from repro.engine.cache import achievable_sets
from repro.kernel import BITSET, PURE, force_kernel
from repro.mappings.membership import is_solution
from repro.patterns.compact import CompactPatternEngine
from repro.patterns.matching import PatternEngine, engine_for
from repro.patterns.parser import parse_pattern
from repro.verification.reachability import achievable_sets_reference
from repro.workloads.families import (
    cons_arbitrary_family,
    flat_document,
    membership_mapping,
    target_document,
)
from repro.xmlmodel.tree import TreeNode

KERNELS = (PURE, BITSET)

#: The F1.1 arms: the plain-automata reference and production.
REFERENCE = "reference"
F11_ARMS = (REFERENCE, BITSET)

#: Document ladder (node counts, approximate: + root / group framing).
FULL_SIZES = [1_000, 10_000, 100_000, 1_000_000]
SMOKE_SIZES = [1_000, 10_000]

#: F1.1 consistency ladder (number of disjunctive choices).
FULL_CHOICES = range(1, 7)
SMOKE_CHOICES = range(1, 4)

#: Acceptance bar for production over the reference at the F1.1 ladder top.
SPEEDUP_BAR = 5.0

#: Engine-size sweep: document sizes (nodes), interleaved samples per
#: engine and size, and the least wall time one sample spans (small
#: documents repeat the operation until it does).
CUTOVER_SIZES = [1, 2, 4, 8, 16, 64, 256, 1_024, 10_000]
CUTOVER_SAMPLES = 21
CUTOVER_SAMPLE_SECONDS = 0.005

#: Selective pattern (constant access path) and sequence-existence
#: pattern for the document ladder; see :func:`grouped_document`.
FIND_PATTERN = 'r//group(g)[item(g,"7")]'
EXISTS_PATTERN = "r//group(g)[item(g,x) -> item(g,y)]"

#: Full-enumeration pattern: one valuation per distinct (group, payload)
#: pair — the shape the vectorized ``find_matches`` materialization serves.
ENUM_PATTERN = "r//item(g, v)"


def grouped_document(n_nodes: int, fanout: int = 100) -> TreeNode:
    """A two-level document of about *n_nodes* nodes.

    ``r`` over ``n/fanout`` groups of *fanout* items; every item carries
    its group id plus a small cyclic payload, so patterns joining on the
    group id have work to do at every size.
    """
    n_groups = max(1, n_nodes // (fanout + 1))
    return TreeNode(
        "r",
        (),
        tuple(
            TreeNode(
                "group",
                (str(g),),
                tuple(
                    TreeNode("item", (str(g), str(i % 10)), ())
                    for i in range(fanout)
                ),
            )
            for g in range(n_groups)
        ),
    )


def pattern_eval_rows(sizes, kernel: str):
    """Fresh engine build + selective find + sequence existence, per size."""
    find_pattern = parse_pattern(FIND_PATTERN)
    exists_pattern = parse_pattern(EXISTS_PATTERN)

    def make(n):
        root = grouped_document(n)

        def action():
            root._engine = None  # fresh build: the index is part of the cost
            with force_kernel(kernel):
                engine = engine_for(root)
            matches = engine.find_matches(find_pattern)
            found = engine.exists_anywhere(exists_pattern)
            return (type(engine).__name__, len(matches), found)

        return action

    return sweep(sizes, make)


def membership_rows(sizes, kernel: str):
    """One mapping-membership decision per document size."""
    mapping = membership_mapping(1)

    def make(n):
        source, target = flat_document(n), target_document(n)

        def action():
            source._engine = None
            target._engine = None
            with force_kernel(kernel):
                return is_solution(mapping, source, target)

        return action

    return sweep(sizes, make)


def trigger_set_tables(mapping, arm: str) -> list[dict]:
    """The trigger-set tables cons-automata reads, one per DTD of *mapping*.

    The ``bitset`` arm is production ``achievable_sets`` on a cold
    compilation cache; the ``reference`` arm is the uncached plain-automata
    ``achievable_sets_reference``.  Both search over the labels of all the
    mapping's patterns, as cons-automata does.
    """
    extra = _pattern_labels(mapping)
    sides = (
        (mapping.source_dtd, [std.source for std in mapping.stds]),
        (mapping.target_dtd, [std.target for std in mapping.stds]),
    )
    if arm == REFERENCE:
        return [achievable_sets_reference(dtd, patterns, extra)
                for dtd, patterns in sides]
    context = ExecutionContext(cache=CompilationCache())
    return [achievable_sets(dtd, patterns, extra, context=context)
            for dtd, patterns in sides]


def trigger_set_rows(choices, arm: str):
    """The F1.1 family's trigger-set tables under *arm*, per size."""

    def make(n):
        mapping = cons_arbitrary_family(n)
        # the result is the table sizes: witnesses would bloat the journal
        return lambda: tuple(map(len, trigger_set_tables(mapping, arm)))

    return sweep(choices, make)


def materialization_record(sizes) -> dict:
    """Full-enumeration ``find_matches``: vectorized vs generic path.

    Both arms pay a fresh compact-engine build and the candidate scan;
    the vectorized arm materializes result dicts straight off the index
    arrays, the generic arm runs the frozenset relation algebra and
    converts per row.  The journaled delta is the per-size speedup of
    the shipped path over the pre-vectorization one.
    """
    pattern = parse_pattern(ENUM_PATTERN)
    points = []
    for n in sizes:
        root = grouped_document(n)
        arms: dict[str, float] = {}
        matches = 0
        for arm in ("vectorized", "generic"):
            best = float("inf")
            for __ in range(3):
                root._engine = None
                with force_kernel(BITSET):
                    engine = engine_for(root)
                started = time.perf_counter()
                if arm == "vectorized":
                    result = engine.find_matches(pattern)
                else:  # the pre-vectorization materialization
                    result = list(map(dict, engine.match_at(0, pattern)))
                best = min(best, time.perf_counter() - started)
            arms[arm] = best
            matches = len(result)
        speedup = arms["generic"] / arms["vectorized"] if arms["vectorized"] else 0.0
        points.append({
            "n": n,
            "matches": matches,
            "vectorized_seconds": arms["vectorized"],
            "generic_seconds": arms["generic"],
            "speedup": speedup,
        })
        print(
            f"[scale-materialize] n={n}: {matches} matches, "
            f"vectorized {arms['vectorized']:.4f}s vs generic "
            f"{arms['generic']:.4f}s ({speedup:.2f}x)"
        )
    return {
        "claim": "vectorized full-enumeration find_matches materialization",
        "note": "fresh compact engine per sample; generic arm = relation "
                "algebra + per-row dict conversion",
        "pattern": ENUM_PATTERN,
        "points": points,
    }


def engine_size_sweep(sizes=CUTOVER_SIZES, samples=CUTOVER_SAMPLES) -> dict:
    """Object vs compact pattern engine per document size.

    One operation builds an engine by direct construction over a source
    and a target document of *n* nodes each (the flat documents of
    ``membership_mapping``) and runs the ``membership_mapping(2)`` std
    patterns through ``exists_at_root`` and ``find_matches`` — the
    membership call pattern.  Samples alternate between the engines so
    drift hits both alike; each point journals the median and IQR of the
    per-operation time.  The compact engine *wins* a size when its median
    is lower by more than the larger IQR (a tie keeps the object engine);
    the crossover is the smallest size from which it wins at every size.
    """
    mapping = membership_mapping(2)
    queries = [
        (flat_document, [std.source for std in mapping.stds]),
        (target_document, [std.target for std in mapping.stds]),
    ]
    engines = {"object": PatternEngine, "compact": CompactPatternEngine}
    points = []
    for n in sizes:
        documents = [(make(n - 1), patterns) for make, patterns in queries]

        def operation(engine_class, documents=documents):
            for root, patterns in documents:
                engine = engine_class(root)
                for pattern in patterns:
                    engine.exists_at_root(pattern)
                    engine.find_matches(pattern)

        started = time.perf_counter()
        operation(PatternEngine)
        seconds = time.perf_counter() - started
        repeats = max(1, int(CUTOVER_SAMPLE_SECONDS / max(seconds, 1e-9)))
        times: dict[str, list[float]] = {name: [] for name in engines}
        for __ in range(samples):
            for name, engine_class in engines.items():
                started = time.perf_counter()
                for __ in range(repeats):
                    operation(engine_class)
                times[name].append((time.perf_counter() - started) / repeats)
        point: dict = {"n": n, "samples": samples, "repeats": repeats}
        for name, values in times.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            point[name] = {"median_us": median * 1e6, "iqr_us": (q3 - q1) * 1e6}
        slow, fast = point["object"], point["compact"]
        point["compact_speedup"] = slow["median_us"] / fast["median_us"]
        point["compact_wins"] = (
            slow["median_us"] - fast["median_us"] > max(slow["iqr_us"], fast["iqr_us"])
        )
        points.append(point)
        print(
            f"[scale-cutover] n={n:>6}: object {slow['median_us']:10.1f}us "
            f"compact {fast['median_us']:10.1f}us "
            f"({point['compact_speedup']:.2f}x, {samples} samples x {repeats})"
        )
    crossover = None
    for point in reversed(points):
        if not point["compact_wins"]:
            break
        crossover = point["n"]
    print(f"[scale-cutover] crossover: {crossover} nodes")
    return {
        "claim": "pattern-engine cutover: smallest size from which "
                 "CompactPatternEngine beats PatternEngine by more than "
                 "the larger IQR at every size",
        "operation": "direct engine build over a source and a target document "
                     "of n nodes + exists_at_root and find_matches of the "
                     "membership_mapping(2) std patterns",
        "statistic": "median and IQR of per-operation microseconds over "
                     "interleaved samples",
        "points": points,
        "crossover": crossover,
    }


def run_ladders(sizes, choices) -> tuple[dict, float]:
    """All ladders; returns (records, f11_speedup)."""
    records: dict[str, dict] = {}
    for kernel in KERNELS:
        rows = membership_rows(sizes, kernel)
        print_table(
            f"scale-membership[{kernel}]",
            "mapping membership at document scale (DLOGSPACE data complexity)",
            rows,
            size_label="|T|",
            note=f"kernel={kernel}; fresh pattern engines per sample",
        )
        records[f"membership/{kernel}"] = series_payload(
            rows,
            claim="mapping membership at document scale",
            note="fresh pattern engines per sample",
            kernel=kernel,
            size_label="|T|",
        )

        rows = pattern_eval_rows(sizes, kernel)
        print_table(
            f"scale-pattern[{kernel}]",
            "pattern evaluation at document scale (engine build + queries)",
            rows,
            size_label="nodes",
            note=f"kernel={kernel}; selective find_matches + sequence existence",
        )
        records[f"pattern-eval/{kernel}"] = series_payload(
            rows,
            claim="pattern evaluation at document scale",
            note="fresh engine build + selective find_matches + sequence existence",
            kernel=kernel,
            size_label="nodes",
        )

    records["find-matches-materialization"] = materialization_record(sizes)
    f11_records, speedup = f11_ladder(choices)
    records.update(f11_records)
    return records, speedup


def f11_ladder(choices) -> tuple[dict, float]:
    """The F1.1 trigger-set ladder per arm; returns (records, speedup)."""
    records: dict[str, dict] = {}
    f11_top: dict[str, float] = {}
    for arm in F11_ARMS:
        rows = trigger_set_rows(choices, arm)
        note = (
            "achievable_sets_reference: plain automata, uncached"
            if arm == REFERENCE
            else "achievable_sets: bitset automata, fresh compilation cache "
                 "per sample"
        )
        print_table(
            f"scale-F1.1[{arm}]",
            "CONS(⇓) arbitrary DTDs: trigger-set tables of both DTDs "
            "(EXPTIME-complete)",
            rows,
            size_label="choices",
            note=note,
        )
        records[f"F1.1/{arm}"] = series_payload(
            rows,
            claim="F1.1 trigger-set tables: production vs the plain reference",
            note=f"{note}; result = trigger sets per DTD",
            kernel=arm,
            size_label="choices",
        )
        f11_top[arm] = rows[-1].seconds

    reference, production = f11_top[REFERENCE], f11_top[BITSET]
    speedup = reference / production if production > 0 else float("inf")
    records["F1.1-speedup"] = {
        "claim": f"production achievable_sets >= {SPEEDUP_BAR}x faster than "
                 "achievable_sets_reference on the F1.1 ladder top",
        "n": max(choices),
        "reference_seconds": reference,
        "bitset_seconds": production,
        "speedup": speedup,
    }
    print()
    print(
        f"[scale-F1.1] speedup at n={max(choices)}: {speedup:.2f}x "
        f"(reference {reference:.3f}s / bitset {production:.3f}s)"
    )
    return records, speedup


def equivalence_gate(sizes, choices) -> list[str]:
    """Differential gate: each side must agree with the other; returns errors."""
    from repro.engine.certify import CertificationError, certify
    from repro.engine.problems import ConsistencyProblem

    errors: list[str] = []

    mapping = membership_mapping(1)
    for n in sizes:
        source, target = flat_document(n), target_document(n)
        verdicts = {}
        for kernel in KERNELS:
            source._engine = None
            target._engine = None
            with force_kernel(kernel):
                verdicts[kernel] = is_solution(mapping, source, target)
        if verdicts[PURE].is_proved != verdicts[BITSET].is_proved:
            errors.append(f"membership verdict mismatch at |T|={n}: {verdicts}")

    find_pattern = parse_pattern(FIND_PATTERN)
    exists_pattern = parse_pattern(EXISTS_PATTERN)
    for n in sizes:
        root = grouped_document(n)
        results = {}
        for kernel in KERNELS:
            root._engine = None
            with force_kernel(kernel):
                engine = engine_for(root)
            results[kernel] = (
                engine.relation_at_root(find_pattern),
                engine.exists_anywhere(exists_pattern),
            )
        if results[PURE] != results[BITSET]:
            errors.append(f"pattern evaluation mismatch at {n} nodes")

    enum_pattern = parse_pattern(ENUM_PATTERN)
    for n in sizes:
        root = grouped_document(n)
        matches = {}
        for kernel in KERNELS:
            root._engine = None
            with force_kernel(kernel):
                engine = engine_for(root)
            matches[kernel] = sorted(
                sorted((var.name, value) for var, value in match.items())
                for match in engine.find_matches(enum_pattern)
            )
        if matches[PURE] != matches[BITSET]:
            errors.append(
                f"full-enumeration find_matches mismatch at {n} nodes"
            )

    for n in choices:
        for consistent in (True, False):
            mapping = cons_arbitrary_family(n, consistent=consistent)
            tables = {arm: trigger_set_tables(mapping, arm) for arm in F11_ARMS}
            for side, reference, production in zip(
                ("source", "target"), tables[REFERENCE], tables[BITSET]
            ):
                if reference.keys() != production.keys():
                    errors.append(
                        f"F1.1 {side} trigger sets differ from the reference "
                        f"at n={n} consistent={consistent}"
                    )
            context = ExecutionContext(cache=CompilationCache())
            verdict = is_consistent_automata(mapping, context)
            if verdict.is_proved != consistent:
                errors.append(
                    f"F1.1 verdict wrong at n={n} consistent={consistent}"
                )
            if verdict.is_proved:
                try:
                    with force_kernel(PURE):  # re-check on the oracle path
                        certify(verdict, ConsistencyProblem(mapping))
                except CertificationError as exc:
                    errors.append(
                        f"F1.1 witness fails certification at n={n}: {exc}"
                    )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced ladder plus the kernel-equivalence gate (CI)",
    )
    parser.add_argument(
        "--cutover",
        action="store_true",
        help="run and journal only the engine-size sweep",
    )
    args = parser.parse_args(argv)

    if args.cutover:
        emit_json("scale", None, None, meta={
            "kernels": list(KERNELS), "engine-cutover": engine_size_sweep()
        })
        return 0

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    choices = SMOKE_CHOICES if args.smoke else FULL_CHOICES

    started = time.perf_counter()
    records, speedup = run_ladders(sizes, choices)
    if not args.smoke:  # smoke gates only — never clobber the full ladder
        meta = {"kernels": list(KERNELS), "engine-cutover": engine_size_sweep()}
        for experiment, payload in records.items():
            emit_json("scale", experiment, payload, meta=meta)
        print(f"\n[scale] journaled {len(records)} records to BENCH_scale.json "
              f"in {time.perf_counter() - started:.1f}s")

    if args.smoke:
        errors = equivalence_gate(sizes, choices)
        if errors:
            for error in errors:
                print(f"[scale] EQUIVALENCE FAILURE: {error}", file=sys.stderr)
            return 1
        print("[scale] kernel equivalence gate: OK")
    elif speedup < SPEEDUP_BAR:
        print(
            f"[scale] FAILURE: F1.1 production speedup {speedup:.2f}x "
            f"below the {SPEEDUP_BAR}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
