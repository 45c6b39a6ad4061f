"""Tests for pattern separation (the paper's Section 9 problem) and DTD
language operations, cross-validated against exhaustive enumeration.

DTD inclusion, equivalence and disjointness have no module in the
library: the tests decide them over two reference DTD automata, where
determinism makes the complement of the second DTD a negated acceptance
predicate.  That checks the reference automata against enumeration on
products no library search builds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.bitset import decorate
from repro.automata.duta import ProductAutomaton, find_accepted
from repro.patterns.matching import matches_at_root
from repro.patterns.parser import parse_pattern
from repro.patterns.separation import (
    find_separating_tree,
    pattern_contained,
    patterns_equivalent,
)
from repro.verification.automata import DTDAutomaton
from repro.verification.enumeration import enumerate_label_trees, enumerate_trees
from repro.xmlmodel.dtd import parse_dtd


def _product_witness(first, second, accept_second):
    """A tree conforming to *first* whose *second*-automaton state passes
    *accept_second*, decorated per *first*; None if there is none."""
    conformance = DTDAutomaton(first)
    other = DTDAutomaton(second, first.labels)
    product = ProductAutomaton(
        [conformance, other],
        predicate=lambda state: conformance.is_accepting(state[0])
        and accept_second(other, state[1]),
    )
    found = find_accepted(product, conformance=conformance)
    return None if found is None else decorate(first, found[1])


def _arity_compatible(first, second) -> bool:
    return all(
        first.arity(label) == second.arity(label)
        for label in first.labels & second.labels
    )


def dtd_inclusion_counterexample(smaller, larger):
    """A tree conforming to *smaller* but not *larger*, or None.  A shared
    label of another arity makes any tree using it a counterexample."""
    arity_ok = _arity_compatible(smaller, larger)
    return _product_witness(
        smaller, larger,
        lambda other, state: not (arity_ok and other.is_accepting(state)),
    )


def dtd_included(smaller, larger) -> bool:
    return dtd_inclusion_counterexample(smaller, larger) is None


def dtd_equivalent(first, second) -> bool:
    return dtd_included(first, second) and dtd_included(second, first)


def dtd_common_tree(first, second):
    """A tree conforming to both DTDs, or None if they are disjoint."""
    if not _arity_compatible(first, second):
        return None
    return _product_witness(
        first, second, lambda other, state: other.is_accepting(state)
    )


class TestSeparation:
    def test_basic_separation(self):
        dtd = parse_dtd("r -> a?, b?")
        witness = find_separating_tree(
            dtd, [parse_pattern("r[a]")], [parse_pattern("r[b]")]
        )
        assert witness is not None
        assert dtd.conforms(witness)
        assert matches_at_root(parse_pattern("r[a]"), witness)
        assert not matches_at_root(parse_pattern("r[b]"), witness)

    def test_unseparable(self):
        # every tree with an a also has... a; a implies //a
        dtd = parse_dtd("r -> a*\na -> b?")
        assert find_separating_tree(
            dtd, [parse_pattern("r[a[b]]")], [parse_pattern("r//b")]
        ) is None

    def test_negatives_only(self):
        dtd = parse_dtd("r -> a+, b?")
        witness = find_separating_tree(dtd, [], [parse_pattern("r[b]")])
        assert witness is not None
        assert not matches_at_root(parse_pattern("r[b]"), witness)

    def test_forced_negative_unseparable(self):
        dtd = parse_dtd("r -> a+")
        assert find_separating_tree(dtd, [], [parse_pattern("r[a]")]) is None

    def test_horizontal_separation(self):
        dtd = parse_dtd("r -> (a | b)*")
        witness = find_separating_tree(
            dtd, [parse_pattern("r[a ->* b]")], [parse_pattern("r[b ->* a]")]
        )
        assert witness is not None
        labels = [c.label for c in witness.children]
        assert "a" in labels and "b" in labels
        assert labels.index("a") < labels.index("b")

    def test_containment(self):
        dtd = parse_dtd("r -> a*\na -> b?")
        assert pattern_contained(dtd, parse_pattern("r[a[b]]"), parse_pattern("r[a]"))
        assert not pattern_contained(dtd, parse_pattern("r[a]"), parse_pattern("r[a[b]]"))

    def test_containment_uses_dtd(self):
        # under this DTD every a-child has a b below, so r[a] ⊆ r//b
        dtd = parse_dtd("r -> a?\na -> b")
        assert pattern_contained(dtd, parse_pattern("r[a]"), parse_pattern("r//b"))
        # relax the DTD and containment breaks
        loose = parse_dtd("r -> a?\na -> b?")
        assert not pattern_contained(loose, parse_pattern("r[a]"), parse_pattern("r//b"))

    def test_equivalence(self):
        dtd = parse_dtd("r -> a\na -> b")
        assert patterns_equivalent(dtd, parse_pattern("r[a]"), parse_pattern("r//b"))
        assert not patterns_equivalent(
            parse_dtd("r -> a\na -> b?"), parse_pattern("r[a]"), parse_pattern("r//b")
        )


POOL = ["r", "r[a]", "r[b]", "r[a, b]", "r//c", "r[a[c]]", "r[_[c]]", "r[a ->* b]"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(POOL), max_size=2),
    st.lists(st.sampled_from(POOL), max_size=2),
)
def test_separation_agrees_with_enumeration(positive_texts, negative_texts):
    dtd = parse_dtd("r -> a*, b?\na -> c?\nb -> c?")
    positives = [parse_pattern(t) for t in positive_texts]
    negatives = [parse_pattern(t) for t in negative_texts]
    witness = find_separating_tree(dtd, positives, negatives)
    expected = None
    for tree in enumerate_label_trees(dtd, 5):
        if all(matches_at_root(p, tree) for p in positives) and not any(
            matches_at_root(n, tree) for n in negatives
        ):
            expected = tree
            break
    if expected is not None:
        assert witness is not None
        assert all(matches_at_root(p, witness) for p in positives)
        assert not any(matches_at_root(n, witness) for n in negatives)
    # witness found but enumeration empty can only mean the bound was short;
    # these patterns have witnesses of <= 5 nodes, so demand agreement
    assert (witness is None) == (expected is None)


class TestDtdOps:
    def test_inclusion(self):
        old = parse_dtd("r -> a, b")
        new = parse_dtd("r -> a, b?, c*")
        assert dtd_included(old, new)
        assert not dtd_included(new, old)

    def test_counterexample(self):
        old = parse_dtd("r -> a?")
        new = parse_dtd("r -> a")
        witness = dtd_inclusion_counterexample(old, new)
        assert witness is not None
        assert old.conforms(witness) and not new.conforms(witness)

    def test_equivalence(self):
        assert dtd_equivalent(parse_dtd("r -> a, a*"), parse_dtd("r -> a+"))
        assert not dtd_equivalent(parse_dtd("r -> a*"), parse_dtd("r -> a+"))

    def test_arity_mismatch_detected(self):
        one = parse_dtd("r -> a\na(x)")
        two = parse_dtd("r -> a\na(x, y)")
        assert not dtd_included(one, two)
        witness = dtd_inclusion_counterexample(one, two)
        assert one.conforms(witness)
        assert not two.conforms(witness)

    def test_common_tree(self):
        first = parse_dtd("r -> a+, b?")
        second = parse_dtd("r -> a, b")
        common = dtd_common_tree(first, second)
        assert common is not None
        assert first.conforms(common) and second.conforms(common)

    def test_disjoint(self):
        assert dtd_common_tree(parse_dtd("r -> a"), parse_dtd("r -> b")) is None

    def test_disjoint_by_arity(self):
        one = parse_dtd("r -> a\na(x)")
        two = parse_dtd("r -> a\na(x, y)")
        assert dtd_common_tree(one, two) is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["r -> a*", "r -> a+", "r -> a, a?", "r -> a | (a, a)", "r -> eps"]),
        st.sampled_from(["r -> a*", "r -> a+", "r -> a, a?", "r -> a | (a, a)", "r -> eps"]),
    )
    def test_inclusion_agrees_with_enumeration(self, text_a, text_b):
        first, second = parse_dtd(text_a), parse_dtd(text_b)
        included = all(
            second.conforms(tree) for tree in enumerate_label_trees(first, 4)
        )
        # these languages are either included or have a counterexample <= 4
        assert dtd_included(first, second) == included
