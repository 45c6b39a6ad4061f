"""Tests for absolute consistency (Section 6), including the paper's
value-counting example and oracle cross-validation of the PTIME algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.abscons import (
    abscons_counterexample,
    is_absolutely_consistent,
    is_absolutely_consistent_ptime,
    is_absolutely_consistent_sm0,
    sm0_counterexample,
)
from repro.errors import SignatureError, UnknownVerdictError
from repro.mappings.mapping import SchemaMapping
from repro.verification.oracle import (
    oracle_has_solution,
    oracle_is_absolutely_consistent,
)


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


class TestPaperExample:
    """Section 6's motivating example: r -> a* vs r -> a with std r/a(x) -> r/a(x)."""

    def setup_method(self):
        self.mapping = mk("r -> a*\na(x)", "r2 -> a2\na2(x)", ["r/a(x) -> r2/a2(x)"])

    def test_not_absolutely_consistent(self):
        assert not is_absolutely_consistent_ptime(self.mapping)

    def test_stripped_version_is_absolutely_consistent(self):
        assert is_absolutely_consistent_sm0(self.mapping.strip_values())

    def test_counterexample_has_two_values(self):
        counterexample = abscons_counterexample(self.mapping, 3)
        assert counterexample is not None
        assert len(counterexample.adom()) >= 2
        assert not oracle_has_solution(self.mapping, counterexample, 3, (0, 1, "#n"))

    def test_consistent_but_not_absolutely(self):
        from repro.consistency import is_consistent_automata

        assert is_consistent_automata(self.mapping)


class TestSm0Algorithm:
    def test_trivial(self):
        m = mk("r -> a*", "t -> b?", ["r[a] -> t[b]"]).strip_values()
        assert is_absolutely_consistent_sm0(m)

    def test_structural_failure(self):
        # a+ forces the trigger; target label missing
        m = mk("r -> a+", "t -> b?", ["r[a] -> t[zzz]"]).strip_values()
        assert not is_absolutely_consistent_sm0(m)
        counterexample = sm0_counterexample(m)
        assert counterexample is not None
        assert m.source_dtd.conforms(counterexample)

    def test_optional_trigger_still_fails_absolutely(self):
        # consistent (empty source), but a source WITH an a has no solution
        m = mk("r -> a*", "t -> b?", ["r[a] -> t[zzz]"]).strip_values()
        assert not is_absolutely_consistent_sm0(m)

    def test_joint_target_interaction(self):
        # both triggers can fire in one source; targets clash under m -> b1 | b2
        m = mk(
            "r -> a?, b?",
            "t -> m\nm -> b1 | b2",
            ["r[a] -> t[m[b1]]", "r[b] -> t[m[b2]]"],
        ).strip_values()
        assert not is_absolutely_consistent_sm0(m)
        counterexample = sm0_counterexample(m)
        assert counterexample is not None
        assert {c.label for c in counterexample.children} == {"a", "b"}

    def test_horizontal_axes_supported(self):
        m = mk("r -> a, b", "t -> c, d", ["r[a -> b] -> t[c -> d]"]).strip_values()
        assert is_absolutely_consistent_sm0(m)
        m2 = mk("r -> a, b", "t -> c, d", ["r[a -> b] -> t[d -> c]"]).strip_values()
        assert not is_absolutely_consistent_sm0(m2)

    def test_rejects_values(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        with pytest.raises(SignatureError):
            is_absolutely_consistent_sm0(m)


class TestPtimeAlgorithm:
    def test_flexible_target_is_safe(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_rigid_target_from_repeatable_source(self):
        m = mk("r -> a*\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert not is_absolutely_consistent_ptime(m)

    def test_rigid_target_from_rigid_source(self):
        # exactly one a in every source: its value is unique per tree
        m = mk("r -> a\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_optional_rigid_source(self):
        # at most one a: still at most one exported value per tree
        m = mk("r -> a?\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_cross_std_conflict_on_rigid_target(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c\nc(u)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[c(y)]"],
        )
        assert not is_absolutely_consistent_ptime(m)

    def test_cross_std_same_rigid_source_cell_is_safe(self):
        m = mk(
            "r -> a\na(x)",
            "t -> c, d\nc(u)\nd(v)",
            ["r[a(x)] -> t[c(x)]", "r[a(y)] -> t[d(y)]"],
        )
        assert is_absolutely_consistent_ptime(m)

    def test_existential_on_rigid_target_is_safe(self):
        m = mk("r -> a*\na(x)", "t -> b\nb(u, v)", ["r[a(x)] -> t[b(z, z2)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_existential_chain_links_rigid_cells(self):
        # z occupies both rigid cells: consistent (set both equal), safe
        m = mk("r -> a\na(x)", "t -> b, c\nb(u)\nc(v)", ["r[a(x)] -> t[b(z), c(z)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_existential_chain_conflict(self):
        # z = x at one rigid cell and z at another rigid cell written by y too
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c, d\nc(u)\nd(v)",
            ["r[a(x)] -> t[c(x), d(z)]", "r[b(y)] -> t[d(y)]"],
        )
        # d rigid: written by z (free) and by y -- z absorbs, y pins: safe
        assert is_absolutely_consistent_ptime(m)
        m2 = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c\nc(u)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[c(y)]"],
        )
        assert not is_absolutely_consistent_ptime(m2)

    def test_unsatisfiable_triggerable_std(self):
        m = mk("r -> a+\na(x)", "t -> b?\nb(u)", ["r[a(x)] -> t[zzz(x)]"])
        assert not is_absolutely_consistent_ptime(m)

    def test_untriggerable_std_is_ignored(self):
        m = mk("r -> a\na(x)", "t -> b?\nb(u)", ["r[zzz(x)] -> t[impossible(x)]"])
        assert is_absolutely_consistent_ptime(m)

    def test_deep_rigidity(self):
        # path r/m/b: both steps rigid; source a starred
        m = mk(
            "r -> a*\na(x)",
            "t -> m\nm -> b\nb(u)",
            ["r[a(x)] -> t[m[b(x)]]"],
        )
        assert not is_absolutely_consistent_ptime(m)

    def test_star_above_makes_deep_target_flexible(self):
        m = mk(
            "r -> a*\na(x)",
            "t -> m*\nm -> b\nb(u)",
            ["r[a(x)] -> t[m[b(x)]]"],
        )
        assert is_absolutely_consistent_ptime(m)

    def test_rejects_descendant(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r//a(x) -> t[b(x)]"])
        with pytest.raises(SignatureError):
            is_absolutely_consistent_ptime(m)


# -- oracle cross-validation --------------------------------------------------

FS_SOURCES = [
    "r -> a?, b?\na(x)\nb(y)",
    "r -> a*, b?\na(x)\nb(y)",
    "r -> a, b\na(x)\nb(y)",
]
FS_TARGETS = [
    "t -> c?, d*\nc(u)\nd(v)",
    "t -> c, d\nc(u)\nd(v)",
    "t -> c*\nc(u) -> e?\ne(w)",
]
FS_STDS = [
    "r[a(x)] -> t[c(x)]",
    "r[a(x)] -> t[d(x)]",
    "r[b(y)] -> t[c(y)]",
    "r[b(y)] -> t[d(y)]",
    "r[a(x), b(y)] -> t[c(x), d(y)]",
    "r[a(x)] -> t[c(z)]",
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FS_SOURCES),
    st.sampled_from(FS_TARGETS),
    st.lists(st.sampled_from(FS_STDS), min_size=1, max_size=2, unique=True),
)
def test_ptime_abscons_agrees_with_oracle(source, target, stds):
    m = mk(source, target, stds)
    try:
        answer = is_absolutely_consistent_ptime(m)
    except SignatureError:
        return
    # source bound 4 covers the smallest two-distinct-values counterexamples
    # (e.g. r[a,a,b]); target bound 5 fits the matching minimal solutions
    oracle = oracle_is_absolutely_consistent(
        m,
        max_source_size=4,
        max_target_size=5,
        source_domain=(0, 1),
        extra_target_values=2,
    )
    assert answer == oracle


class TestDispatcher:
    def test_sm0_route(self):
        m = mk("r -> a+", "t -> b?", ["r[a] -> t[zzz]"]).strip_values()
        assert not is_absolutely_consistent(m)

    def test_ptime_route(self):
        m = mk("r -> a*\na(x)", "t -> b\nb(u)", ["r[a(x)] -> t[b(x)]"])
        assert not is_absolutely_consistent(m)

    def test_expansion_route_refutes(self):
        # descendant is outside the PTIME class, but source expansion
        # (repro.consistency.expansion) decides it exactly
        m = mk("r -> a*\na(x)", "t -> b\nb(u)", ["r//a(x) -> t[b(x)]"])
        assert not is_absolutely_consistent(m)

    def test_expansion_route_confirms(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r//a(x) -> t[b(x)]"])
        assert is_absolutely_consistent(m, max_source_size=3)

    def test_bounded_inconclusive_is_unknown(self):
        # a wildcard *target* defeats both exact routes; the bounded refuter
        # finds nothing on this absolutely-consistent mapping, so the
        # dispatcher must refuse to guess — Unknown, never a raised bound
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[_(x)]"])
        verdict = is_absolutely_consistent(m, max_source_size=3)
        assert verdict.is_unknown
        assert verdict.bound_exhausted
        with pytest.raises(UnknownVerdictError):
            bool(verdict)
