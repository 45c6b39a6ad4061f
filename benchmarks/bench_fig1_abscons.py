"""Figure 1, absolute consistency — experiments F1.8–F1.10.

============================  =========================  ======================
cell                          paper                      measured here
============================  =========================  ======================
ABSCONS(⇓), arbitrary         EXPSPACE / NEXPTIME-hard   SM° Pi_2^p sweep +
                                                         bounded refuter (F1.8)
ABSCONS(⇓), nested-rel. + fs  PTIME                      polynomial sweep (F1.9)
  + wildcard or descendant    NEXPTIME-hard              refuter blow-up (F1.10)
============================  =========================  ======================
"""

from harness import print_table, sweep

from repro.consistency.abscons import (
    abscons_counterexample,
    is_absolutely_consistent_ptime,
    is_absolutely_consistent_sm0,
)
from repro.workloads.families import (
    abscons_ptime_family,
    abscons_sm0_family,
    abscons_wildcard_family,
)


def test_f18_abscons_sm0(benchmark):
    """F1.8 (structural part): ABSCONS° is Pi_2^p — automata-set inclusion."""
    def make(n):
        mapping = abscons_sm0_family(n)
        return lambda: is_absolutely_consistent_sm0(mapping)

    rows = sweep(range(1, 7), make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.8a",
        "ABSCONS°(⇓): Pi_2^p-complete (Prop 6.1)",
        rows,
        size_label="stds",
        note="achievable trigger sets vs achievable satisfaction sets",
    )
    def make_negative(n):
        mapping = abscons_sm0_family(n, consistent=False)
        return lambda: is_absolutely_consistent_sm0(mapping)

    negative = sweep(range(1, 5), make_negative)
    assert all(result.is_refuted for result in (row[2] for row in negative))
    benchmark(lambda: is_absolutely_consistent_sm0(abscons_sm0_family(4)))


def test_f18_abscons_general_refuter(benchmark):
    """F1.8 (value part): the general case needs value counting.

    The paper's EXPSPACE procedure is substituted by a search over source
    trees up to a size bound, one per equality type, each decided exactly
    by its canonical solution (DESIGN.md, substitution 1); its cost is the
    point — counting occurrences of data values is what pushes the
    problem to EXPSPACE.
    """
    def make(n):
        mapping = abscons_ptime_family(n, consistent=False)
        return lambda: abscons_counterexample(mapping, max_source_size=4) is not None

    rows = sweep(range(1, 4), make)
    assert all(result is True for result in (row[2] for row in rows))
    print_table(
        "F1.8b",
        "ABSCONS(⇓) general: in EXPSPACE, NEXPTIME-hard (Thm 6.2)",
        rows,
        size_label="relations",
        note="counterexample search: source trees by equality type, "
        "each decided by its canonical solution (no target enumeration)",
    )
    benchmark(
        lambda: abscons_counterexample(abscons_ptime_family(2, consistent=False), 4)
    )


def test_f19_abscons_ptime(benchmark):
    """F1.9: nested-relational + fully-specified stds — PTIME (Thm 6.3)."""
    def make(n):
        mapping = abscons_ptime_family(n)
        return lambda: is_absolutely_consistent_ptime(mapping)

    rows = sweep([2, 4, 8, 16, 32, 64], make)
    assert all(result.is_proved for result in (row[2] for row in rows))
    print_table(
        "F1.9",
        "ABSCONS(⇓) nested-relational + fully-specified: PTIME (Thm 6.3)",
        rows,
        size_label="stds",
        note="rigidity analysis: union-find over rigid target positions",
    )
    negative = is_absolutely_consistent_ptime(
        abscons_ptime_family(8, consistent=False)
    )
    assert negative.is_refuted
    benchmark(lambda: is_absolutely_consistent_ptime(abscons_ptime_family(32)))


def test_f110_abscons_wildcard_hard(benchmark):
    """F1.10: adding the wildcard leaves the PTIME class (NEXPTIME-hard).

    The PTIME algorithm refuses; the exact *expansion* procedure
    (instantiate the wildcard over the DTD's labels, then run the rigidity
    analysis) takes over at worst-case exponential cost — the tractability
    frontier of Theorem 6.3 made visible with exact answers on both sides.
    """
    import pytest

    from repro.consistency.expansion import is_absolutely_consistent_expanded
    from repro.errors import SignatureError

    with pytest.raises(SignatureError):
        is_absolutely_consistent_ptime(abscons_wildcard_family(3))

    def make(n):
        mapping = abscons_wildcard_family(n, consistent=False)
        return lambda: is_absolutely_consistent_expanded(mapping)

    rows = sweep(range(2, 9), make)
    assert all(result.is_refuted for result in (row[2] for row in rows))
    print_table(
        "F1.10",
        "ABSCONS(⇓) + wildcard: NEXPTIME-hard (Thm 6.3)",
        rows,
        size_label="relations",
        note="exact via source expansion; instantiation count grows with the label set",
    )

    def make_positive(n):
        mapping = abscons_wildcard_family(n, consistent=True)
        return lambda: is_absolutely_consistent_expanded(mapping)

    positive = sweep(range(2, 7), make_positive)
    assert all(result.is_proved for result in (row[2] for row in positive))
    print_table(
        "F1.10b",
        "(consistent variant, same exact procedure)",
        positive,
        size_label="relations",
    )
    benchmark(
        lambda: is_absolutely_consistent_expanded(
            abscons_wildcard_family(4, consistent=False)
        )
    )
