"""Tests for consistency checking (Section 5), cross-validated against the
brute-force oracle and between the PTIME / EXPTIME algorithms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency import (
    consistency_witness,
    is_consistent,
    is_consistent_automata,
    is_consistent_bounded,
    is_consistent_nested,
    consistency_witness_automata,
    find_consistency_witness_bounded,
    nested_consistency_witness,
)
from repro.errors import SignatureError, UnknownVerdictError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.verification.oracle import oracle_is_consistent


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


class TestAutomataAlgorithm:
    def test_trivially_consistent(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_consistent_automata(m)

    def test_structural_mismatch_with_optional_trigger(self):
        # target pattern unsatisfiable, but a source with no a's avoids it
        m = mk("r -> a*\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_consistent_automata(m)
        source, target = consistency_witness_automata(m)
        assert source == m.source_dtd.minimal_tree()

    def test_forced_trigger_inconsistent(self):
        # paper's Introduction scenario made precise: at least one a forces
        # the std, whose target wants b as a child while D_t nests it deeper
        m = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert not is_consistent_automata(m)

    def test_deep_target_fixes_it(self):
        m = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[w[b(x)]]"])
        assert is_consistent_automata(m)

    def test_witness_is_a_solution(self):
        m = mk(
            "r -> a+, b?\na(x)\nb(y)",
            "t -> c+\nc(u) -> d*\nd(v)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[c(y)[d(y)]]"],
        )
        pair = consistency_witness_automata(m)
        assert pair is not None
        source, target = pair
        assert is_solution(m, source, target)

    def test_horizontal_axes(self):
        # source order b before a can never occur under r -> a, b
        m = mk("r -> a, b", "t -> c?", ["r[b ->* a] -> t[zzz]"])
        assert is_consistent_automata(m)
        # a before b always occurs; target impossible
        m2 = mk("r -> a, b", "t -> c?", ["r[a -> b] -> t[zzz]"])
        assert not is_consistent_automata(m2)

    def test_horizontal_target(self):
        # target needs two c's in order; DTD allows it
        m = mk("r -> a", "t -> c*\nc(u)", ["r[a] -> t[c(x) ->* c(y)]"])
        assert is_consistent_automata(m)
        m2 = mk("r -> a", "t -> c?\nc(u)", ["r[a] -> t[c(x) ->* c(y)]"])
        assert not is_consistent_automata(m2)

    def test_interaction_between_stds(self):
        # both stds always trigger; targets are individually satisfiable but
        # jointly impossible (b1 requires the single m-child to be b1-shaped,
        # b2 requires b2-shaped, and m -> b1 | b2 cannot be both)
        m = mk(
            "r -> a",
            "t -> m\nm -> b1 | b2",
            ["r[a] -> t[m[b1]]", "r[a] -> t[m[b2]]"],
        )
        assert not is_consistent_automata(m)

    def test_disjunction_exploited(self):
        m = mk(
            "r -> a | b",
            "t -> m\nm -> b1 | b2",
            ["r[a] -> t[m[b1]]", "r[b] -> t[m[b2]]"],
        )
        # source chooses a, target chooses b1
        assert is_consistent_automata(m)

    def test_unsatisfiable_source_dtd(self):
        m = mk("r -> a\na -> a", "t -> c?", ["r -> t"])
        assert not is_consistent_automata(m)

    def test_unsatisfiable_target_dtd(self):
        m = mk("r -> a?", "t -> c\nc -> c", ["r -> t"])
        assert not is_consistent_automata(m)

    def test_descendant_axes(self):
        m = mk("r -> a\na -> a | b", "t -> c?", ["r//b -> t[c]"])
        assert is_consistent_automata(m)

    def test_rejects_comparisons(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)], x != 1 -> t[b(x)]"])
        with pytest.raises(SignatureError):
            is_consistent_automata(m)

    def test_rejects_constants(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(5)] -> t[b(x)]"])
        with pytest.raises(SignatureError):
            is_consistent_automata(m)


class TestNestedPtimeAlgorithm:
    def test_simple_consistent(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_consistent_nested(m)

    def test_forced_trigger_inconsistent(self):
        m = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert not is_consistent_nested(m)

    def test_descendant_in_source_and_target(self):
        m = mk(
            "r -> a\na -> b?\nb(x)",
            "t -> c\nc -> d*\nd(u)",
            ["r//b(x) -> t//d(x)"],
        )
        assert is_consistent_nested(m)

    def test_witness_pair_is_solution(self):
        m = mk(
            "r -> a+, b\na(x)\nb(y)",
            "t -> c, d*\nc(u)\nd(v)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[d(y)]"],
        )
        pair = nested_consistency_witness(m)
        assert pair is not None
        source, target = pair
        assert is_solution(m, source, target)

    def test_rejects_horizontal(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x) -> a(y)] -> t[b(x)]"])
        with pytest.raises(SignatureError):
            is_consistent_nested(m)

    def test_rejects_non_nested_relational(self):
        m = mk("r -> a | b", "t -> c?", ["r[a] -> t[c]"])
        with pytest.raises(SignatureError):
            is_consistent_nested(m)


# a pool of small nested-relational mapping ingredients for agreement tests
NR_SOURCES = [
    "r -> a*, b?\na(x) -> c?\nb(y)\nc(z)",
    "r -> a+\na(x) -> b?\nb(y)",
    "r -> a?, b\na(x)\nb(y)",
]
NR_TARGETS = [
    "t -> d*, e?\nd(u) -> f?\ne(v)\nf(w)",
    "t -> d\nd(u) -> e*\ne(v)",
    "t -> d?\nd(u)",
]
NR_STDS = [
    "r[a(x)] -> t[d(x)]",
    "r[a(x)[c(z)]] -> t[d(x)[f(z)]]",
    "r[b(y)] -> t[e(y)]",
    "r[b(y)] -> t[d(y)]",
    "r//c(z) -> t//f(z)",
    "r[a(x)] -> t[d(x), e(x)]",
    "r[a(x), b(y)] -> t[d(x)[f(y)]]",
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(NR_SOURCES),
    st.sampled_from(NR_TARGETS),
    st.lists(st.sampled_from(NR_STDS), min_size=1, max_size=3, unique=True),
)
def test_nested_ptime_agrees_with_automata(source, target, stds):
    m = mk(source, target, stds)
    try:
        nested_answer = is_consistent_nested(m)
    except SignatureError:
        return
    assert nested_answer == is_consistent_automata(m)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(NR_SOURCES),
    st.sampled_from(NR_TARGETS),
    st.lists(st.sampled_from(NR_STDS), min_size=1, max_size=2, unique=True),
)
def test_automata_agrees_with_oracle(source, target, stds):
    m = mk(source, target, stds)
    automata_answer = is_consistent_automata(m)
    # single shared value suffices for mappings without comparisons
    oracle_answer = oracle_is_consistent(
        m, max_source_size=4, max_target_size=5, domain=(0,)
    )
    if oracle_answer:
        assert automata_answer
    if not automata_answer:
        assert not oracle_answer
    # for these small DTDs, minimal witnesses fit the bounds, so full agreement:
    assert automata_answer == oracle_answer


class TestBoundedSearchWithComparisons:
    def test_inequality_consistent(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x != y -> t[c(x)]"],
        )
        witness = find_consistency_witness_bounded(m, 3, 2)
        assert witness is not None
        source, target = witness
        assert is_solution(m, source, target)

    def test_case_split_inconsistent(self):
        # whatever the values, one of the two stds triggers; both targets
        # are unsatisfiable (label zzz does not exist under t)
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x = y -> t[zzz]", "r[a(x), b(y)], x != y -> t[zzz]"],
        )
        # the bounded search cannot prove inconsistency — it reports Unknown
        verdict = is_consistent_bounded(m, 3, 2)
        assert not verdict.is_proved
        assert verdict.is_unknown

    def test_equality_branch_satisfiable(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x = y -> t[c(x)]", "r[a(x), b(y)], x != y -> t[zzz]"],
        )
        # choose equal values: first std triggers, satisfiable
        witness = find_consistency_witness_bounded(m, 3, 2)
        assert witness is not None

    def test_constant_handling(self):
        m = mk(
            "r -> a\na(x)",
            "t -> c?\nc(u)",
            ["r[a(5)] -> t[zzz]"],
        )
        # pick a value other than 5: std never triggers
        assert is_consistent_bounded(m, 2, 1)

    def test_unknown_names_the_cell_of_the_dtds(self):
        # over nested-relational DTDs the cell is Theorem 5.5's decidable
        # one, even though only the bounded search answers it here
        from repro.workloads.families import distinct_values_family

        nested = is_consistent_bounded(distinct_values_family(2, consistent=False))
        assert nested.is_unknown
        assert "NEXPTIME-complete (Theorem 5.5)" in nested.reason
        assert "undecidable" not in nested.reason
        # the same case split over a source DTD that is not nested-relational
        arbitrary = mk(
            "r -> a, b, (a | c)*\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x = y -> t[zzz]", "r[a(x), b(y)], x != y -> t[zzz]"],
        )
        verdict = is_consistent_bounded(arbitrary, 3, 2)
        assert verdict.is_unknown
        assert "undecidable" in verdict.reason
        assert "Theorem 5.5)" not in verdict.reason


class TestDispatcher:
    def test_uses_exact_algorithms(self):
        m = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert not is_consistent(m)

    def test_witness_from_dispatcher(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        source, target = consistency_witness(m)
        assert is_solution(m, source, target)

    def test_bounded_is_unknown_when_inconclusive(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x = y -> t[zzz]", "r[a(x), b(y)], x != y -> t[zzz]"],
        )
        # bound exhaustion never escapes as an exception any more: the
        # dispatcher answers Unknown with bound_exhausted set
        verdict = is_consistent(m)
        assert verdict.is_unknown
        assert verdict.bound_exhausted
        with pytest.raises(UnknownVerdictError):
            bool(verdict)

    def test_bounded_succeeds_on_witness(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c?\nc(u)",
            ["r[a(x), b(y)], x != y -> t[c(x)]"],
        )
        assert is_consistent(m)


class TestVerifiedWitness:
    def test_witness_survives_engine_recheck(self):
        m = mk(
            "r -> a+, b?\na(x)\nb(y)",
            "t -> c+\nc(u) -> d*\nd(v)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[c(y)[d(y)]]"],
        )
        # verify=True re-checks the pair through the pattern engine's
        # Boolean membership mode and raises on disagreement
        pair = consistency_witness_automata(m, verify=True)
        assert pair is not None

    def test_verified_inconsistent_still_none(self):
        m = mk("r -> a+\na(x)", "t -> w\nw -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert consistency_witness_automata(m, verify=True) is None
