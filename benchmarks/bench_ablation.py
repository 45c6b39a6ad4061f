"""Ablations — experiments A1–A3 (design choices called out in DESIGN.md).

* A1: dead-state pruning in the automata reachability — with vs
  without ``conformance=``, both arms on the round-based reference
  ``reachable_states_naive`` (the production search requires
  ``conformance=``), so the gap is the pruning alone.
* A2: growth of the closure automaton's realized state space with the
  number of tracked patterns.
* A3: trigger-set reachability (one automaton pass) vs the naive
  2^|Sigma| subset enumeration for consistency.

The products are built from the plain automata of
``repro.verification.automata``, whose states are readable.
"""

import itertools

from harness import print_table, sweep

from repro.automata.duta import ProductAutomaton, reachable_states
from repro.consistency import is_consistent_automata
from repro.patterns.satisfiability import structural_witness
from repro.verification.automata import DTDAutomaton, PatternClosureAutomaton
from repro.verification.reachability import reachable_states_naive
from repro.workloads.families import cons_arbitrary_family


def _product(mapping):
    dtd = mapping.source_dtd
    patterns = [std.source for std in mapping.stds]
    extra = frozenset(
        label for pattern in patterns for label in pattern.labels_used()
    )
    closure = PatternClosureAutomaton(
        patterns, extra_labels=dtd.labels | extra, arity_of=dtd.arity
    )
    dtd_automaton = DTDAutomaton(dtd, extra_labels=extra)
    return dtd_automaton, ProductAutomaton([dtd_automaton, closure])


def test_a1_pruning_ablation(benchmark):
    """A1: dead-state pruning is what makes the EXPTIME algorithm usable."""

    def pruned(n: int) -> int:
        dtd_automaton, product = _product(cons_arbitrary_family(n))
        realized = reachable_states_naive(product, conformance=dtd_automaton)
        return len(realized)

    def unpruned(n: int) -> int:
        __, product = _product(cons_arbitrary_family(n))
        realized = reachable_states_naive(product)
        return len(realized)

    pruned_rows = sweep(range(1, 5), lambda n: lambda: pruned(n))
    print_table(
        "A1a",
        "reachability WITH conformance= (dead-state pruning)",
        pruned_rows,
        size_label="choices",
    )
    unpruned_rows = sweep([1], lambda n: lambda: unpruned(n))
    print_table(
        "A1b",
        "reachability WITHOUT pruning (same answers, far more states)",
        unpruned_rows,
        size_label="choices",
        note="n capped at 1: 91 states vs 6, ~600x slower than with pruning",
    )
    benchmark(lambda: pruned(3))


def test_a2_closure_automaton_growth(benchmark):
    """A2: realized closure-automaton states vs number of tracked patterns."""

    def measure(n: int) -> int:
        mapping = cons_arbitrary_family(n)
        dtd_automaton, product = _product(mapping)
        realized = reachable_states(product, conformance=dtd_automaton)
        return len(realized)

    rows = sweep(range(1, 6), lambda n: lambda: measure(n))
    print_table(
        "A2",
        "closure-automaton state growth (the EXPTIME lives here)",
        rows,
        size_label="choices",
        note="result column = realized (DTD x closure) states on the source side",
    )
    benchmark(lambda: measure(3))


def test_a3_triggersets_vs_subset_enumeration(benchmark):
    """A3: one automaton pass vs enumerating all 2^|Sigma| trigger subsets."""

    def subset_enumeration(mapping) -> bool:
        """The textbook algorithm: guess the triggered subset J."""
        stds = mapping.stds
        for bits in itertools.product((False, True), repeat=len(stds)):
            chosen = [std for std, bit in zip(stds, bits) if bit]
            skipped = [std for std, bit in zip(stds, bits) if not bit]
            # source side: some tree triggering at most J
            source_ok = _source_avoids(mapping, skipped)
            if not source_ok:
                continue
            if all(
                structural_witness(mapping.target_dtd, std.target.strip_values())
                is not None
                for std in chosen
            ):
                # joint satisfiability approximated by individual checks
                # (enough for this family's shape)
                return True
        return False

    def _source_avoids(mapping, skipped) -> bool:
        dtd_automaton, product = _product(mapping)
        closure = product.components[1]
        skipped_patterns = {std.source for std in skipped}
        realized = reachable_states(product, conformance=dtd_automaton)
        for state, __ in realized.items():
            if not dtd_automaton.is_accepting(state[0]):
                continue
            sat = state[1][0]
            if not (sat & skipped_patterns):
                return True
        return False

    fast_rows = sweep(
        range(1, 5),
        lambda n: lambda: is_consistent_automata(cons_arbitrary_family(n)),
    )
    print_table(
        "A3a",
        "trigger-set reachability (one pass, all subsets at once)",
        fast_rows,
        size_label="choices",
    )
    slow_rows = sweep(
        range(1, 4),
        lambda n: lambda: subset_enumeration(cons_arbitrary_family(n)),
    )
    print_table(
        "A3b",
        "naive 2^|Sigma| subset enumeration (2n stds -> 4^n subsets)",
        slow_rows,
        size_label="choices",
    )
    benchmark(lambda: is_consistent_automata(cons_arbitrary_family(3)))


def test_a4_engine_vs_naive_matcher(benchmark):
    """A4: indexed hash-join engine vs the original nested-loop matcher."""
    from repro.patterns.matching import engine_for, find_matches, matches_at_root
    from repro.patterns.parser import parse_pattern
    from repro.verification.oracle import naive_find_matches, naive_matches_at_root
    from repro.workloads.families import flat_document

    pattern = parse_pattern("r[a(x) ->* a(y), //a(z)]")
    sizes = [100, 200, 400]
    documents = {n: flat_document(n) for n in sizes}

    naive_rows = sweep(
        sizes, lambda n: lambda: len(naive_find_matches(pattern, documents[n]))
    )
    print_table("A4a", "naive matcher (nested-loop joins, no index)",
                naive_rows, size_label="|T|")

    def cold(n):
        def run():
            documents[n]._engine = None
            return len(find_matches(pattern, documents[n]))
        return run

    engine_rows = sweep(sizes, cold)
    print_table("A4b", "indexed engine (hash joins, rebuilt per call)",
                engine_rows, size_label="|T|")

    # counters from one cold evaluation at the largest size: join_pairs is
    # what the hash join actually merged, vs the |L|x|R| a nested loop scans
    document = documents[max(sizes)]
    document._engine = None
    find_matches(pattern, document)
    print(f"[A4] engine counters: {engine_for(document).stats}")

    # label pruning: a pattern over an absent label dies in the bitset test
    absent = parse_pattern("r[//zzz(x)]")
    stats = engine_for(document).stats
    stats.reset()
    assert not matches_at_root(absent, document)
    assert naive_matches_at_root(absent, document) is False
    print(f"[A4] absent-label counters: {stats} (no tree walk)")
    assert stats.index_prunes > 0

    benchmark(cold(200))
