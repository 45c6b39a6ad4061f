"""Tests for canonical target construction (repro.exchange), cross-validated
against the brute-force solution oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureError
from repro.exchange import canonical_solution
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.values import Null
from repro.verification.enumeration import enumerate_trees
from repro.verification.oracle import oracle_has_solution
from repro.xmlmodel.parser import parse_tree


def mk(source, target, stds):
    return SchemaMapping.parse(source, target, stds)


class TestCanonicalSolution:
    def test_simple_copy(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(x)]"])
        solution = canonical_solution(m, parse_tree("r[a(1), a(2)]"))
        assert solution is not None
        assert m.target_dtd.conforms(solution)
        assert is_solution(m, parse_tree("r[a(1), a(2)]"), solution)
        assert {c.attrs[0] for c in solution.children} == {1, 2}

    def test_existential_values_are_nulls(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u, w)", ["r[a(x)] -> t[b(x, z)]"])
        solution = canonical_solution(m, parse_tree("r[a(1)]"))
        (b,) = solution.children
        assert b.attrs[0] == 1
        assert isinstance(b.attrs[1], Null)

    def test_same_export_same_null(self):
        # the same (std, exported tuple) fires once -> one requirement
        m = mk("r -> a*\na(x)", "t -> b*\nb(u, w)", ["r[a(x)] -> t[b(x, z)]"])
        solution = canonical_solution(m, parse_tree("r[a(1), a(1)]"))
        assert len(solution.children) == 1

    def test_rigid_merge_unifies_values(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c\nc(u, v)",
            ["r[a(x)] -> t[c(x, z)]", "r[b(y)] -> t[c(w, y)]"],
        )
        solution = canonical_solution(m, parse_tree("r[a(1), b(2)]"))
        (c,) = solution.children
        assert c.attrs == (1, 2)
        assert is_solution(m, parse_tree("r[a(1), b(2)]"), solution)

    def test_rigid_conflict_returns_none(self):
        m = mk(
            "r -> a, b\na(x)\nb(y)",
            "t -> c\nc(u)",
            ["r[a(x)] -> t[c(x)]", "r[b(y)] -> t[c(y)]"],
        )
        assert canonical_solution(m, parse_tree("r[a(1), b(2)]")) is None
        assert canonical_solution(m, parse_tree("r[a(1), b(1)]")) is not None

    def test_required_structure_filled(self):
        m = mk("r -> a?\na(x)", "t -> c, d+\nc(u)\nd(v)", [])
        solution = canonical_solution(m, parse_tree("r"))
        assert solution is not None
        assert m.target_dtd.conforms(solution)
        assert [c.label for c in solution.children] == ["c", "d"]

    def test_deep_target_patterns(self):
        m = mk(
            "r -> a*\na(x)",
            "t -> grp*\ngrp(g) -> item*\nitem(v)",
            ["r[a(x)] -> t[grp(x)[item(x)]]"],
        )
        source = parse_tree("r[a(1), a(2)]")
        solution = canonical_solution(m, source)
        assert is_solution(m, source, solution)
        assert len(solution.children) == 2

    def test_untriggerable_root_mismatch(self):
        m = mk("r -> a\na(x)", "t -> c?\nc(u)", ["r[a(x)] -> wrong[c(x)]"])
        assert canonical_solution(m, parse_tree("r[a(1)]")) is None

    def test_rejects_descendant(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r//a(x) -> t[b(x)]"])
        with pytest.raises(SignatureError):
            canonical_solution(m, parse_tree("r"))

    def test_rejects_conditions(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)] -> t[b(y)], y != x"])
        with pytest.raises(SignatureError):
            canonical_solution(m, parse_tree("r"))

    def test_source_conditions_choose_the_obligations(self):
        m = mk("r -> a*\na(x)", "t -> b*\nb(u)", ["r[a(x)], x != 1 -> t[b(x)]"])
        solution = canonical_solution(m, parse_tree("r[a(1), a(2)]"))
        assert solution == parse_tree("t[b(2)]")

    def test_rejects_non_nested_relational_target(self):
        m = mk("r -> a*\na(x)", "t -> b | c", ["r[a(x)] -> t[b]"])
        with pytest.raises(SignatureError):
            canonical_solution(m, parse_tree("r"))


FS_SOURCES = ["r -> a*, b?\na(x)\nb(y)", "r -> a, b\na(x)\nb(y)"]
FS_TARGETS = ["t -> c?, d*\nc(u)\nd(v)", "t -> c\nc(u) -> e*\ne(w)"]
FS_STDS = [
    "r[a(x)] -> t[c(x)]",
    "r[a(x)] -> t[d(x)]",
    "r[b(y)] -> t[c(y)]",
    "r[a(x)] -> t[c(z)]",
    "r[a(x)] -> t[c(x)[e(x)]]",
    "r[a(x), b(y)] -> t[c(x)[e(y)]]",
]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(FS_SOURCES),
    st.sampled_from(FS_TARGETS),
    st.lists(st.sampled_from(FS_STDS), min_size=1, max_size=2, unique=True),
    st.integers(min_value=0, max_value=30),
)
def test_canonical_agrees_with_oracle(source_text, target_text, stds, seed):
    m = mk(source_text, target_text, stds)
    compatible = all(
        std.target.label == m.target_dtd.root
        and all(
            sub.label in m.target_dtd.labels or sub.vars is None
            for sub in std.target.subpatterns()
        )
        for std in m.stds
    )
    sources = list(enumerate_trees(m.source_dtd, 3, (0, 1)))
    source = sources[seed % len(sources)]
    try:
        solution = canonical_solution(m, source)
    except SignatureError:
        return
    oracle = oracle_has_solution(
        m, source, max_target_size=5, domain=(0, 1, "#n1", "#n2")
    )
    if solution is not None:
        assert m.target_dtd.conforms(solution)
        assert is_solution(m, source, solution)
    # completeness: the canonical construction finds a solution iff one exists
    assert (solution is not None) == oracle


class TestSkolemCanonical:
    def test_composed_mapping_solves_directly(self):
        """Canonical solutions work on Theorem 8.2 outputs."""
        from repro.composition.compose import compose
        from repro.mappings.skolem import SkolemMapping, is_skolem_solution

        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u, w)", "t -> c*\nc(v, q)", ["m[b(u, w)] -> t[c(u, w)]"]
        )
        m13 = compose(m12, m23)
        source = parse_tree("r[a(1), a(2)]")
        solution = canonical_solution(m13, source)
        assert solution is not None
        assert m13.target_dtd.conforms(solution)
        assert is_skolem_solution(m13, source, solution)
        # the invented middle value appears as the same null per source value
        rows = {c.attrs for c in solution.children}
        firsts = {attrs[0] for attrs in rows}
        assert firsts == {1, 2}

    def test_same_arguments_same_null(self):
        from repro.mappings.skolem import SkolemMapping, is_skolem_solution

        m = SkolemMapping.parse(
            "r -> a*\na(x)",
            "t -> c*, d*\nc(u, v)\nd(u, v)",
            ["r[a(x)] -> t[c(x, f(x)), d(x, f(x))]"],
        )
        source = parse_tree("r[a(1)]")
        solution = canonical_solution(m, source)
        assert solution is not None
        (c, d) = solution.children
        assert c.attrs[1] == d.attrs[1]  # f(1) is one value
        assert is_skolem_solution(m, source, solution)

    def test_skolem_null_collapses_onto_constant(self):
        from repro.mappings.skolem import SkolemMapping, is_skolem_solution

        # f(x) lands on a rigid node also written by the plain value x:
        # the null must collapse onto it
        m = SkolemMapping.parse(
            "r -> a\na(x)",
            "t -> c\nc(u)",
            ["r[a(x)] -> t[c(f(x))]", "r[a(y)] -> t[c(y)]"],
        )
        source = parse_tree("r[a(7)]")
        solution = canonical_solution(m, source)
        assert solution is not None
        assert solution.children[0].attrs == (7,)
        assert is_skolem_solution(m, source, solution)
