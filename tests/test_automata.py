"""Tests for tree automata: products, the conforming-product search of
repro.automata.duta, and the plain DTD and pattern closure automata of
repro.verification.automata (the reference the bitset encoding is held
to), with runs and the generic search of repro.verification."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.bitset import decorate
from repro.automata.duta import ProductAutomaton, find_accepted, reachable_states
from repro.errors import XsmError
from repro.patterns.ast import Descendant, Pattern, Sequence, node
from repro.patterns.matching import matches_at_root
from repro.patterns.parser import parse_pattern
from repro.verification.automata import (
    DTDAutomaton,
    PatternClosureAutomaton,
    accepts,
    language_is_empty,
    run,
)
from repro.verification.reachability import reachable_states_naive
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.parser import parse_tree
from repro.xmlmodel.tree import tree


class TestDTDAutomaton:
    def test_accepts_conforming(self):
        dtd = parse_dtd("r -> a*, b")
        automaton = DTDAutomaton(dtd)
        assert accepts(automaton, parse_tree("r[a, a, b]"))
        assert accepts(automaton, parse_tree("r[b]"))

    def test_rejects_nonconforming(self):
        dtd = parse_dtd("r -> a*, b")
        automaton = DTDAutomaton(dtd)
        assert not accepts(automaton, parse_tree("r[b, a]"))
        assert not accepts(automaton, parse_tree("r"))
        assert not accepts(automaton, parse_tree("a"))

    def test_rejects_unknown_label(self):
        dtd = parse_dtd("r -> a?")
        automaton = DTDAutomaton(dtd, extra_labels={"z"})
        assert not accepts(automaton, parse_tree("r[z]"))

    def test_nested_error_propagates_up(self):
        dtd = parse_dtd("r -> a\na -> b, b")
        automaton = DTDAutomaton(dtd)
        assert accepts(automaton, parse_tree("r[a[b, b]]"))
        assert not accepts(automaton, parse_tree("r[a[b]]"))

    def test_ignores_attribute_values(self):
        dtd = parse_dtd("r -> a\na(x)")
        automaton = DTDAutomaton(dtd)
        # automaton sees structure only: missing values do not matter
        assert accepts(automaton, parse_tree("r[a]"))
        assert accepts(automaton, parse_tree("r[a(7)]"))

    def test_decorate(self):
        dtd = parse_dtd("r -> a\na(x, y)")
        decorated = decorate(dtd, parse_tree("r[a]"))
        assert decorated.children[0].attrs == (0, 0)
        named = decorate(dtd, parse_tree("r[a]"), lambda l, a: f"{l}.{a}")
        assert named.children[0].attrs == ("a.x", "a.y")

    @settings(max_examples=80, deadline=None)
    @given(
        st.recursive(
            st.builds(tree, st.sampled_from(["r", "a", "b"])),
            lambda ch: st.builds(
                tree,
                st.sampled_from(["r", "a", "b"]),
                st.just(()),
                st.lists(ch, max_size=3),
            ),
            max_leaves=6,
        )
    )
    def test_agrees_with_conformance(self, t):
        dtd = parse_dtd("r -> a*, b?\na -> b*\nb -> eps")
        if "r" in {n.label for n in t.descendants()}:
            return  # DTD forbids the root symbol below the root by construction
        assert accepts(DTDAutomaton(dtd), t) == dtd.conforms(t)


class TestReachability:
    def test_unsatisfiable_dtd_empty_language(self):
        dtd = parse_dtd("r -> a\na -> a")
        assert language_is_empty(DTDAutomaton(dtd))

    def test_witness_is_conforming(self):
        dtd = parse_dtd("r -> a+, b\na -> c?")
        product = conforming(DTDAutomaton(dtd))
        found = find_accepted(product, conformance=product.components[0])
        assert found is not None
        __, witness = found
        assert dtd.conforms(witness)

    def test_reachable_states_all_witnessed(self):
        dtd = parse_dtd("r -> a | b")
        automaton = conforming(DTDAutomaton(dtd))
        realized = reachable_states(
            automaton, conformance=automaton.components[0]
        )
        assert {state[0][0] for state in realized} == {"r", "a", "b"}
        for state, witness in realized.items():
            assert run(automaton, witness) == state

    def test_max_states_guard(self):
        dtd = parse_dtd("r -> a | b")
        with pytest.raises(RuntimeError):
            reachable_states_naive(DTDAutomaton(dtd), max_states=1)


def conforming(conformance: DTDAutomaton) -> ProductAutomaton:
    """*conformance* alone, as a product the production search accepts:
    the second component, a closure automaton of no patterns, has one
    state and accepts every tree."""
    return ProductAutomaton([conformance, PatternClosureAutomaton([])])


class TestReachabilityHooks:
    """Direct contracts of the worklist ``reachable_states`` hooks, and
    of the generic knobs only the reference ``reachable_states_naive``
    keeps."""

    DTD = "r -> a, b\na -> c?\nb -> c*"

    def automaton(self):
        return conforming(DTDAutomaton(parse_dtd(self.DTD)))

    def search(self, automaton, **hooks):
        return reachable_states(
            automaton, conformance=automaton.components[0], **hooks
        )

    def test_stop_early_exit_includes_state_with_valid_witness(self):
        automaton = self.automaton()
        realized = self.search(automaton, stop=lambda s: s[0][0] == "b")
        hits = [s for s in realized if s[0][0] == "b"]
        assert len(hits) == 1
        # the early exit must not skip recording the stop state's witness
        witness = realized[hits[0]]
        assert run(automaton, witness) == hits[0]
        # and the search genuinely stopped: a full run realizes more
        assert len(realized) < len(self.search(automaton))

    def test_stop_on_accepting_state_yields_conforming_witness(self):
        automaton = self.automaton()
        realized = self.search(automaton, stop=automaton.is_accepting)
        accepted = [s for s in realized if automaton.is_accepting(s)]
        assert len(accepted) == 1
        witness = realized[accepted[0]]
        assert run(automaton, witness) == accepted[0]
        assert parse_dtd(self.DTD).conforms(witness)

    def test_stop_never_hit_returns_full_set(self):
        automaton = self.automaton()
        full = self.search(automaton)
        stopped = self.search(automaton, stop=lambda s: False)
        assert stopped.keys() == full.keys()

    def test_prune_removes_state_and_everything_built_on_it(self):
        automaton = DTDAutomaton(parse_dtd(self.DTD))
        full = reachable_states_naive(automaton)
        # pruning every c-subtree state removes c, and with it any a/b
        # state whose witness needed a c child — but a (c?) and b (c*)
        # still realize through the empty word
        pruned = reachable_states_naive(
            automaton, prune=lambda state: state[0] == "c"
        )
        assert all(state[0] != "c" for state in pruned)
        assert set(pruned) < set(full)
        for state, witness in pruned.items():
            assert run(automaton, witness) == state
            assert all(
                node.label != "c" for node in _iter_nodes(witness)
            )

    def test_conformance_prunes_and_steps_only_readable_children(self):
        conformance = DTDAutomaton(parse_dtd(self.DTD), extra_labels={"x"})
        steps = []

        class Recording(ProductAutomaton):
            def step_horizontal(self, label, hstate, child_state):
                steps.append((label, child_state[0][0]))
                return super().step_horizontal(label, hstate, child_state)

        product = Recording([conformance, DTDAutomaton(parse_dtd("r -> a*"))])
        realized = reachable_states(product, conformance=conformance)
        # only conforming subtrees survive; "x" has no production at all
        assert all(state[0][1] for state in realized)
        assert {state[0][0] for state in realized} == {"r", "a", "b", "c"}
        for state, witness in realized.items():
            assert run(product, witness) == state
        # every step reads a child its parent's content model mentions
        assert steps
        assert all(
            child in conformance.child_labels(label) for label, child in steps
        )
        assert conformance.child_labels("r") == ("a", "b")
        assert conformance.child_labels("c") == ()
        assert conformance.child_labels("x") == ()

    def test_conformance_must_be_component_zero(self):
        conformance = DTDAutomaton(parse_dtd(self.DTD))
        product = ProductAutomaton([DTDAutomaton(parse_dtd(self.DTD)), conformance])
        with pytest.raises(ValueError):
            reachable_states(product, conformance=conformance)
        with pytest.raises(ValueError):
            reachable_states(conformance, conformance=conformance)

    def test_charge_called_once_per_realized_state(self):
        automaton = self.automaton()
        calls = []
        realized = self.search(automaton, charge=lambda: calls.append(1))
        assert len(calls) == len(realized)

    def test_charge_can_abort(self):
        class Budget(Exception):
            pass

        def charge():
            raise Budget

        with pytest.raises(Budget):
            self.search(self.automaton(), charge=charge)

    def test_max_states_boundary_allows_exact_count(self):
        automaton = DTDAutomaton(parse_dtd(self.DTD))
        full = reachable_states_naive(automaton)
        assert reachable_states_naive(automaton, max_states=len(full)).keys() == (
            full.keys()
        )
        with pytest.raises(RuntimeError):
            reachable_states_naive(automaton, max_states=len(full) - 1)

    def test_worklist_agrees_with_naive_saturation(self):
        automaton = self.automaton()
        conformance = automaton.components[0]
        fast = self.search(automaton)
        slow = reachable_states_naive(automaton, conformance=conformance)
        assert fast.keys() == slow.keys()
        for state, witness in fast.items():
            assert run(automaton, witness) == state


def _iter_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


class TestProduct:
    def test_intersection_default(self):
        d1 = parse_dtd("r -> a*")
        d2 = parse_dtd("r -> a, a*")  # at least one a
        product = ProductAutomaton([DTDAutomaton(d1), DTDAutomaton(d2)])
        assert accepts(product, parse_tree("r[a]"))
        assert not accepts(product, parse_tree("r"))

    def test_predicate_overrides(self):
        d1 = parse_dtd("r -> a*")
        d2 = parse_dtd("r -> a, a*")
        a1, a2 = DTDAutomaton(d1), DTDAutomaton(d2)
        # difference: conforms to d1 but NOT d2 (complement via negation)
        product = ProductAutomaton(
            [a1, a2],
            predicate=lambda s: a1.is_accepting(s[0]) and not a2.is_accepting(s[1]),
        )
        found = find_accepted(product, conformance=a1)
        assert found is not None
        __, witness = found
        assert witness == parse_tree("r")

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            ProductAutomaton([])


def closure_state(patterns, t):
    automaton = PatternClosureAutomaton(patterns, extra_labels=t.labels())
    return automaton, run(automaton, t)


class TestPatternClosureAutomaton:
    def test_simple_child(self):
        p = parse_pattern("r[a]")
        automaton, state = closure_state([p], parse_tree("r[a]"))
        assert automaton.satisfies(state, p)

    def test_requires_variable_free_without_arity(self):
        with pytest.raises(XsmError):
            PatternClosureAutomaton([parse_pattern("r[a(x)]")])

    def test_arity_aware(self):
        dtd = parse_dtd("r -> a\na(u, v)")
        p1 = parse_pattern("r[a(x)]")  # wrong arity: a has 2 attributes
        p2 = parse_pattern("r[a(x, y)]")
        automaton = PatternClosureAutomaton(
            [p1, p2], extra_labels=dtd.labels, arity_of=dtd.arity
        )
        state = run(automaton, parse_tree("r[a]"))
        assert not automaton.satisfies(state, p1)
        assert automaton.satisfies(state, p2)

    def test_trigger_set(self):
        patterns = [parse_pattern("r[a]"), parse_pattern("r[b]"), parse_pattern("r[c]")]
        automaton, state = closure_state(patterns, parse_tree("r[a, c]"))
        assert automaton.trigger_set(state) == frozenset({0, 2})

    @pytest.mark.parametrize(
        "pattern_text,tree_text,expected",
        [
            ("r//a", "r[b[c[a]]]", True),
            ("r//a", "r[b[c]]", False),
            ("r[//r]", "r[a]", False),  # descendant is strict
            ("r[a -> b]", "r[a, b]", True),
            ("r[a -> b]", "r[a, c, b]", False),
            ("r[a ->* b]", "r[a, c, b]", True),
            ("r[a ->* b]", "r[b, c, a]", False),
            ("r[a -> a ->* b]", "r[a, a, c, b]", True),
            ("r[a -> a ->* b]", "r[a, c, a, b]", False),  # the two a's are not adjacent
            ("r[a -> a ->* b]", "r[c, a, a, c, b]", True),
            ("r[a -> a ->* b]", "r[a, b]", False),
            ("_[a]", "z[a]", True),
            ("r[a[b], c]", "r[a[b], c]", True),
            ("r[a[b], c]", "r[a, c[b]]", False),
            ("r[//a[b -> c]]", "r[x[a[b, c]]]", True),
            ("r[//a[b -> c]]", "r[x[a[c, b]]]", False),
        ],
    )
    def test_against_matcher(self, pattern_text, tree_text, expected):
        p = parse_pattern(pattern_text)
        t = parse_tree(tree_text)
        automaton, state = closure_state([p], t)
        assert automaton.satisfies(state, p) is expected
        assert matches_at_root(p, t) is expected


# -- hypothesis cross-validation: closure automaton vs direct matching ------

labels_st = st.sampled_from(["a", "b"])


def label_trees():
    return st.recursive(
        st.builds(tree, labels_st),
        lambda ch: st.builds(tree, labels_st, st.just(()), st.lists(ch, max_size=3)),
        max_leaves=7,
    )


def structural_patterns():
    leaf = st.builds(lambda l: Pattern(l, None), st.sampled_from(["a", "b", "_"]))
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda l, items: Pattern(l, None, tuple(items)),
            st.sampled_from(["a", "b", "_"]),
            st.lists(
                st.one_of(
                    st.builds(Descendant, inner),
                    st.builds(lambda e: Sequence((e,)), inner),
                    st.builds(
                        lambda e1, e2, c: Sequence((e1, e2), (c,)),
                        inner,
                        inner,
                        st.sampled_from(["next", "following"]),
                    ),
                    st.builds(
                        lambda e1, e2, e3, c1, c2: Sequence((e1, e2, e3), (c1, c2)),
                        inner,
                        inner,
                        inner,
                        st.sampled_from(["next", "following"]),
                        st.sampled_from(["next", "following"]),
                    ),
                ),
                min_size=1,
                max_size=2,
            ),
        ),
        max_leaves=5,
    )


@settings(max_examples=200, deadline=None)
@given(label_trees(), structural_patterns())
def test_closure_automaton_agrees_with_matcher(t, p):
    automaton = PatternClosureAutomaton([p], extra_labels={"a", "b"})
    state = run(automaton, t)
    assert automaton.satisfies(state, p) == matches_at_root(p, t)
