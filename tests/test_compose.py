"""Tests for syntactic composition (Theorem 8.2): [[M13]] = [[M12]] o [[M23]],
verified semantically by exhaustive enumeration on small instances."""

import pytest

from repro.composition.compose import compose, skolemize
from repro.composition.semantics import composition_contains
from repro.errors import NotInClassError
from repro.mappings.skolem import SkolemMapping, is_skolem_solution
from repro.values import SkolemTerm, Var
from repro.verification.enumeration import enumerate_trees
from repro.xmlmodel.parser import parse_tree


def assert_equivalent(
    m12: SkolemMapping,
    m23: SkolemMapping,
    max_source_size: int = 3,
    max_final_size: int = 3,
    domain=(0, 1),
    max_mid_size: int = 5,
    extra_fresh: int = 2,
):
    """Check [[compose(M12,M23)]] == [[M12]] o [[M23]] on all bounded pairs."""
    m13 = compose(m12, m23)
    assert m13.source_dtd is m12.source_dtd
    assert m13.target_dtd is m23.target_dtd
    pairs_checked = 0
    for source in enumerate_trees(m12.source_dtd, max_source_size, domain):
        for final in enumerate_trees(m23.target_dtd, max_final_size, domain):
            direct = is_skolem_solution(m13, source, final, check_conformance=False)
            via_middle = composition_contains(
                m12, m23, source, final,
                max_mid_size=max_mid_size, extra_fresh=extra_fresh,
            )
            # the semantic search returns Unknown (not Refuted) past its
            # middle-tree bound, so compare proved-ness, not raw verdicts
            assert direct.is_proved == via_middle.is_proved, (
                f"disagree on ({source!r}, {final!r}): "
                f"composed={direct}, semantic={via_middle}"
            )
            pairs_checked += 1
    assert pairs_checked > 0
    return m13


class TestSkolemize:
    def test_existentials_become_terms(self):
        m = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
        )
        (std,) = skolemize(m, set())
        assert std.existential_variables() == ()
        terms = list(std.target.terms())
        assert any(isinstance(t, SkolemTerm) for t in terms)
        (skolem,) = [t for t in terms if isinstance(t, SkolemTerm)]
        assert skolem.args == (Var("x"),)

    def test_fresh_names_avoid_taken(self):
        m = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(z)]"]
        )
        (std,) = skolemize(m, {"sk0_z"})
        (term,) = [t for t in std.target.terms() if isinstance(t, SkolemTerm)]
        assert term.function != "sk0_z"


class TestComposeSimpleChains:
    def test_copy_chain(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        m13 = assert_equivalent(m12, m23, max_mid_size=4, extra_fresh=1)
        # the composed mapping behaves like the direct copy std
        assert is_skolem_solution(m13, parse_tree("r[a(1)]"), parse_tree("t[c(1)]"))
        assert not is_skolem_solution(m13, parse_tree("r[a(1)]"), parse_tree("t"))

    def test_existential_middle_value(self):
        # the middle invents a value, which M23 then exports: the composed
        # target carries a Skolem term
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u, w)", "t -> c*\nc(v, q)", ["m[b(u, w)] -> t[c(u, w)]"]
        )
        m13 = assert_equivalent(
            m12, m23, max_source_size=2, max_final_size=2,
            max_mid_size=2, extra_fresh=1,
        )
        assert any(
            std.skolem_functions() for std in m13.stds
        ), "composition must introduce Skolem terms for middle existentials"

    def test_projection_drops_middle_value(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u, w)", ["r[a(x)] -> m[b(x, z)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u, w)", "t -> c*\nc(v)", ["m[b(u, w)] -> t[c(u)]"]
        )
        assert_equivalent(
            m12, m23, max_source_size=2, max_final_size=3,
            max_mid_size=2, extra_fresh=1,
        )

    def test_join_in_the_middle(self):
        # M23 joins two middle relations; the composed source joins two
        # copies of M12 sources via an equality condition
        m12 = SkolemMapping.parse(
            "r -> a*, p*\na(x)\np(y)",
            "m -> b*, d*\nb(u)\nd(w)",
            ["r[a(x)] -> m[b(x)]", "r[p(y)] -> m[d(y)]"],
        )
        m23 = SkolemMapping.parse(
            "m -> b*, d*\nb(u)\nd(w)",
            "t -> c*\nc(v)",
            ["m[b(u), d(u)] -> t[c(u)]"],
        )
        m13 = assert_equivalent(
            m12, m23, max_source_size=3, max_final_size=2,
            max_mid_size=3, extra_fresh=1,
        )
        # must include an std joining a-values with p-values
        assert any(len(std.source_conditions) > 0 or
                   std.source.has_repeated_variables() for std in m13.stds)

    def test_middle_never_triggers(self):
        m12 = SkolemMapping.parse("r -> a*\na(x)", "m -> b*\nb(u)", [])
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        m13 = assert_equivalent(
            m12, m23, max_source_size=3, max_final_size=2,
            max_mid_size=2, extra_fresh=1,
        )
        # no requirement ever creates a b, so no composed std should force c's
        for source in enumerate_trees(m12.source_dtd, 3, (0, 1)):
            assert is_skolem_solution(m13, source, parse_tree("t"))

    def test_fanout_two_targets(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)",
            "t -> c*, e*\nc(v)\ne(q)",
            ["m[b(u)] -> t[c(u), e(u)]"],
        )
        assert_equivalent(
            m12, m23, max_source_size=2, max_final_size=3,
            max_mid_size=2, extra_fresh=1,
        )


class TestComposeRigidMiddle:
    def test_optional_rigid_node_support(self):
        # the middle's hdr is optional; M23's pattern needs it to exist,
        # which only happens when M12 actually fired
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> hdr?\nhdr -> b*\nb(u)", ["r[a(x)] -> m[hdr[b(x)]]"]
        )
        m23 = SkolemMapping.parse(
            "m -> hdr?\nhdr -> b*\nb(u)", "t -> c*\nc(v)", ["m[hdr[b(u)]] -> t[c(u)]"]
        )
        assert_equivalent(
            m12, m23, max_source_size=2, max_final_size=2,
            max_mid_size=3, extra_fresh=1,
        )

    def test_rigid_only_pattern_fires_conditionally(self):
        # M23 asks only for the rigid hdr node (no values)
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> hdr?\nhdr -> b*\nb(u)", ["r[a(x)] -> m[hdr]"]
        )
        m23 = SkolemMapping.parse(
            "m -> hdr?\nhdr -> b*\nb(u)", "t -> c*\nc(v)", ["m[hdr] -> t[c(z)]"]
        )
        assert_equivalent(
            m12, m23, max_source_size=2, max_final_size=2,
            max_mid_size=2, extra_fresh=1,
        )

    def test_mandatory_rigid_node_always_supported(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> hdr\nhdr -> b*\nb(u)", ["r[a(x)] -> m[hdr[b(x)]]"]
        )
        m23 = SkolemMapping.parse(
            "m -> hdr\nhdr -> b*\nb(u)", "t -> c*\nc(v)", ["m[hdr] -> t[c(z)]"]
        )
        m13 = assert_equivalent(
            m12, m23, max_source_size=3, max_final_size=2,
            max_mid_size=4, extra_fresh=1,
        )
        # hdr always exists: the composed std must fire on EVERY source
        assert not is_skolem_solution(m13, parse_tree("r"), parse_tree("t"))
        assert is_skolem_solution(m13, parse_tree("r"), parse_tree("t[c(9)]"))


class TestComposeClassChecks:
    def test_rejects_plus_in_middle(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b+\nb(u)", ["r[a(x)] -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b+\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        with pytest.raises(NotInClassError, match=r"\+"):
            compose(m12, m23)

    def test_rejects_outside_class(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r//a(x) -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        with pytest.raises(NotInClassError):
            compose(m12, m23)

    def test_composed_mapping_stays_in_class(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        m13 = compose(m12, m23)
        m13.check_composable_class()

    def test_iterated_composition(self):
        m12 = SkolemMapping.parse(
            "r -> a*\na(x)", "m -> b*\nb(u)", ["r[a(x)] -> m[b(x)]"]
        )
        m23 = SkolemMapping.parse(
            "m -> b*\nb(u)", "t -> c*\nc(v)", ["m[b(u)] -> t[c(u)]"]
        )
        m34 = SkolemMapping.parse(
            "t -> c*\nc(v)", "w -> d*\nd(q)", ["t[c(v)] -> w[d(v)]"]
        )
        m14 = compose(compose(m12, m23), m34)
        m14.check_composable_class()
        assert is_skolem_solution(m14, parse_tree("r[a(1)]"), parse_tree("w[d(1)]"))
        assert not is_skolem_solution(m14, parse_tree("r[a(1)]"), parse_tree("w"))
