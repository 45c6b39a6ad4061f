"""Figure 1, consistency with data comparisons — experiments F1.5–F1.7.

=========================  =================  ==============================
cell                       paper              measured here
=========================  =================  ==============================
CONS(⇓,∼), arbitrary       undecidable        semi-decision effort (F1.5)
CONS(⇓,∼), nested-rel.     NEXPTIME-complete  witness-guessing sweep (F1.6)
CONS(⇓,⇒,∼)                undecidable        semi-decision effort (F1.7)
=========================  =================  ==============================

Undecidability cannot be timed; what the table shows instead is the cost
curve of the *semi-decision procedure* (bounded witness search), which
grows without bound as the instances force larger witnesses — no
terminating algorithm can cap it (Theorem 5.4).
"""

from harness import print_table, sweep

from repro.consistency.bounded import (
    default_value_domain,
    is_consistent_bounded,
)
from repro.mappings.mapping import SchemaMapping
from repro.workloads.families import (
    distinct_values_family,
    equality_case_split_family,
)


def test_f15_semidecision_effort(benchmark):
    """F1.5: CONS(⇓,∼) — undecidable; bounded search effort explodes."""
    def make(n):
        mapping = distinct_values_family(n)
        return lambda: is_consistent_bounded(
            mapping, max_source_size=n + 1, max_target_size=2
        )

    rows = sweep(range(1, 5), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.5",
        "CONS(⇓,∼) arbitrary DTDs: undecidable (Thm 5.4); semi-decision only",
        rows,
        size_label="values",
        note="witnesses need n pairwise-distinct values; sources tried by "
        "equality type, each decided by its canonical solution",
    )
    benchmark(
        lambda: is_consistent_bounded(
            distinct_values_family(3), max_source_size=4, max_target_size=2
        )
    )


def test_f16_cons_data_nested(benchmark):
    """F1.6: CONS(⇓,∼) over nested-relational DTDs — NEXPTIME witness guessing."""
    def make(n):
        mapping = equality_case_split_family(n)
        return lambda: is_consistent_bounded(
            mapping, max_source_size=n + 1, max_target_size=n + 1
        )

    rows = sweep(range(1, 4), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.6",
        "CONS(⇓,∼) nested-relational DTDs: NEXPTIME-complete (Thm 5.5)",
        rows,
        size_label="splits",
        note="equality/inequality case splits; guess-and-check over source "
        "equality types, each decided by its canonical solution",
    )
    negative = is_consistent_bounded(
        equality_case_split_family(2, consistent=False), 3, 3
    )
    # the bounded search cannot prove inconsistency: Unknown, not Refuted
    assert negative.is_unknown
    benchmark(
        lambda: is_consistent_bounded(equality_case_split_family(2), 3, 3)
    )


def test_f17_full_class_semidecision(benchmark):
    """F1.7: CONS(⇓,⇒,∼) — undecidable; same story with horizontal axes."""

    def family(n: int) -> SchemaMapping:
        # distinct values demanded of an ordered chain of siblings
        source = "r -> " + ", ".join("a" for __ in range(n)) + "\na(v)"
        chain = " -> ".join(f"a(x{i})" for i in range(n))
        conditions = ", ".join(
            f"x{i} != x{j}" for i in range(n) for j in range(i + 1, n)
        )
        std = f"r[{chain}], {conditions} -> t[c(x0)]" if conditions else \
            f"r[{chain}] -> t[c(x0)]"
        return SchemaMapping.parse(source, "t -> c?\nc(w)", [std])

    def make(n):
        mapping = family(n)
        domain = default_value_domain(mapping)
        return lambda: is_consistent_bounded(
            mapping, max_source_size=n + 1, max_target_size=2,
            value_domain=domain,
        )

    rows = sweep(range(2, 5), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.7",
        "CONS(⇓,⇒,∼): undecidable (Thm 5.4); semi-decision only",
        rows,
        size_label="chain",
        note="next-sibling chain with pairwise-distinct values",
    )
    benchmark(
        lambda: is_consistent_bounded(family(3), 4, 2)
    )
