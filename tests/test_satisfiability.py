"""Tests for pattern satisfiability wrt a DTD (repro.patterns.satisfiability,
Lemma 4.1), cross-validated against exhaustive enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns import is_satisfiable, satisfying_tree, structural_witness
from repro.patterns.ast import Descendant, Pattern, Sequence
from repro.patterns.matching import matches_at_root
from repro.patterns.parser import parse_pattern
from repro.verification.enumeration import enumerate_trees
from repro.xmlmodel.dtd import parse_dtd


class TestStructural:
    def test_satisfiable_simple(self):
        dtd = parse_dtd("r -> a*")
        assert is_satisfiable(dtd, parse_pattern("r[a, a]"))

    def test_unsatisfiable_label(self):
        dtd = parse_dtd("r -> a*")
        assert not is_satisfiable(dtd, parse_pattern("r[b]"))

    def test_paper_inconsistency_example(self):
        # D2': courses must be grandchildren of the root, pattern wants children
        dtd = parse_dtd("r -> courses, students\ncourses -> course*\nstudents -> student*")
        assert not is_satisfiable(dtd, parse_pattern("r[course]"))
        assert is_satisfiable(dtd, parse_pattern("r[courses[course]]"))
        assert is_satisfiable(dtd, parse_pattern("r//course"))

    def test_horizontal_order(self):
        dtd = parse_dtd("r -> a, b")
        assert is_satisfiable(dtd, parse_pattern("r[a -> b]"))
        assert not is_satisfiable(dtd, parse_pattern("r[b -> a]"))
        assert not is_satisfiable(dtd, parse_pattern("r[b ->* a]"))

    def test_next_sibling_with_star(self):
        dtd = parse_dtd("r -> a*")
        assert is_satisfiable(dtd, parse_pattern("r[a -> a -> a]"))

    def test_descendant_through_recursion(self):
        dtd = parse_dtd("r -> a\na -> a | b")
        assert is_satisfiable(dtd, parse_pattern("r//b"))
        assert not is_satisfiable(dtd, parse_pattern("r[b]"))

    def test_wildcard(self):
        dtd = parse_dtd("r -> a | b")
        assert is_satisfiable(dtd, parse_pattern("r[_]"))

    def test_arity_mismatch_unsatisfiable(self):
        dtd = parse_dtd("r -> a\na(u, v)")
        assert not is_satisfiable(dtd, parse_pattern("r[a(x)]"))
        assert is_satisfiable(dtd, parse_pattern("r[a(x, y)]"))

    def test_wildcard_with_arity_picks_matching_label(self):
        dtd = parse_dtd("r -> a | b\na(u)\nb(u, v)")
        assert is_satisfiable(dtd, parse_pattern("r[_(x, y)]"))
        assert is_satisfiable(dtd, parse_pattern("r[_(x)]"))
        assert not is_satisfiable(dtd, parse_pattern("r[_(x, y, z)]"))

    def test_unsatisfiable_dtd(self):
        dtd = parse_dtd("r -> a\na -> a")
        assert not is_satisfiable(dtd, parse_pattern("r"))

    def test_structural_witness_none_when_unsat(self):
        dtd = parse_dtd("r -> a")
        assert structural_witness(dtd, parse_pattern("r[b]")) is None

    def test_witness_conforms_and_matches(self):
        dtd = parse_dtd("r -> a*, b?\na(x) -> c?")
        p = parse_pattern("r[a(u)[c] ->* a(v), b]")
        witness = satisfying_tree(dtd, p)
        assert witness is not None
        assert dtd.conforms(witness)
        assert matches_at_root(p, witness)

    def test_repeated_variables_satisfied_by_equal_values(self):
        dtd = parse_dtd("r -> a, b\na(x)\nb(y)")
        witness = satisfying_tree(dtd, parse_pattern("r[a(x), b(x)]"))
        assert witness is not None
        assert matches_at_root(parse_pattern("r[a(x), b(x)]"), witness)


class TestWithConstants:
    def test_constants_can_conflict_on_forced_merge(self):
        # r -> a: a single a child cannot carry both 3 and 5
        dtd = parse_dtd("r -> a\na(x)")
        assert not is_satisfiable(dtd, parse_pattern("r[a(3), a(5)]"))

    def test_constants_separate_under_star(self):
        dtd = parse_dtd("r -> a*\na(x)")
        witness = satisfying_tree(dtd, parse_pattern("r[a(3), a(5)]"))
        assert witness is not None
        assert matches_at_root(parse_pattern("r[a(3), a(5)]"), witness)

    def test_constant_and_variable(self):
        dtd = parse_dtd("r -> a\na(x)")
        assert is_satisfiable(dtd, parse_pattern("r[a(3), a(y)]"))

    def test_constant_conflict_with_repeated_variable(self):
        # x must equal both 3 (via a) and 5 (via b): unsatisfiable
        dtd = parse_dtd("r -> a, b\na(x)\nb(y)")
        assert not is_satisfiable(dtd, parse_pattern("r[a(3), a(x), b(5), b(x)]"))
        assert is_satisfiable(dtd, parse_pattern("r[a(3), a(x), b(5), b(y)]"))

    def test_repeated_variable_with_constant_through_merge(self):
        dtd = parse_dtd("r -> a, b\na(x)\nb(y)")
        # x carried from a to b: fine with equal values
        assert is_satisfiable(dtd, parse_pattern("r[a(x), b(x)]"))

    def test_constant_unsat_is_exact_not_bounded(self):
        # deep conflict: the only c node must carry both constants
        dtd = parse_dtd("r -> a\na -> c\nc(v)")
        assert not is_satisfiable(dtd, parse_pattern("r[a[c(1)], a[c(2)]]"))

    def test_horizontal_with_constants(self):
        dtd = parse_dtd("r -> a, a\na(x)")
        assert is_satisfiable(dtd, parse_pattern("r[a(1) -> a(2)]"))
        assert not is_satisfiable(dtd, parse_pattern("r[a(1) -> a(2) -> a(3)]"))

    def test_tag_lifting_charges_the_budget(self):
        # the lifted search realizes states of its own: a budget that only
        # covers the structural search must run out before the lifted one
        from repro.engine import Budget, CompilationCache, ExecutionContext, solve
        from repro.engine.problems import SatisfiabilityProblem

        dtd = parse_dtd("r -> a, b*\na(x)\nb(y)")
        pattern = parse_pattern("r[a(1), b(2)]")
        structural = ExecutionContext(cache=CompilationCache())
        assert structural_witness(dtd, pattern, structural) is not None
        budget = Budget.default().with_(max_expansions=structural.expansions)
        verdict = solve(
            SatisfiabilityProblem(dtd, pattern),
            ExecutionContext(budget, cache=CompilationCache()),
        )
        assert verdict.is_unknown
        assert solve(SatisfiabilityProblem(dtd, pattern)).report.expansions > (
            structural.expansions
        )

    def test_lifted_witness_deeper_than_the_recursion_limit(self):
        import sys

        from repro.xmlmodel.dtd import DTD

        n = sys.getrecursionlimit() + 500
        productions = {f"l{i}": f"l{i + 1}" for i in range(n - 1)}
        productions[f"l{n - 1}"] = "eps"
        dtd = DTD("l0", productions, {f"l{n - 1}": ("a",)})
        witness = satisfying_tree(dtd, parse_pattern(f"l0[//l{n - 1}(5)]"))
        assert witness is not None and witness.height == n
        assert list(witness.leaves())[0].attrs == (5,)


# -- cross-validation against exhaustive enumeration -------------------------

DTD_POOL = [
    "r -> a?, b?\na(x) -> b?\nb(y)",
    "r -> a, a?\na(x)",
    "r -> a | b\na(x)\nb(y)",
]

labels_st = st.sampled_from(["a", "b", "_"])


def patterns_st():
    leaf = st.builds(
        lambda l, v: Pattern(l, v),
        labels_st,
        st.one_of(st.none(), st.just(())),
    )
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda items: Pattern("r", None, tuple(items)),
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
                ),
                min_size=1,
                max_size=2,
            ),
        ),
        max_leaves=4,
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DTD_POOL), patterns_st())
def test_satisfiability_agrees_with_enumeration(dtd_text, pattern):
    """For these non-recursive DTDs all trees have <= 4 nodes, so bounded
    enumeration is a complete oracle."""
    dtd = parse_dtd(dtd_text)
    # patterns from the strategy use vars=None or vars=() only; () requires
    # arity 0, which the structural automaton checks via arity_of
    expected = any(
        matches_at_root(pattern, t) for t in enumerate_trees(dtd, 4, domain=(0,))
    )
    assert is_satisfiable(dtd, pattern) == expected


# ---------------------------------------------------------------------------
# the conforming-product search against a prune-only reference
# ---------------------------------------------------------------------------


def _prune_only_witness(dtd, pattern):
    """The plain product search: prune non-conforming states, index nothing.

    The reference the conformance-routed :func:`structural_witness` is
    differential-tested against: the plain (uncached) automata that the
    production bitset automata re-encode, no label index, no dead-row
    pruning.
    """
    from repro.automata.duta import ProductAutomaton
    from repro.verification.automata import DTDAutomaton, PatternClosureAutomaton
    from repro.verification.reachability import reachable_states_naive

    extra = frozenset(pattern.labels_used())
    closure = PatternClosureAutomaton(
        [pattern], extra_labels=dtd.labels | extra, arity_of=dtd.arity
    )
    conformance = DTDAutomaton(dtd, extra - dtd.labels)
    product = ProductAutomaton(
        [conformance, closure],
        predicate=lambda state: (
            conformance.is_accepting(state[0])
            and closure.satisfies(state[1], pattern)
        ),
    )
    realized = reachable_states_naive(
        product,
        stop=product.is_accepting,
        prune=lambda state: not conformance.state_ok(state[0]),
    )
    for state, witness in realized.items():
        if product.is_accepting(state):
            return witness
    return None


def _random_dtd(rng, recursive: bool):
    """A random DTD over r, n1..n4; *recursive* lets productions loop."""
    from repro.workloads.random_instances import (
        random_arbitrary_dtd,
        random_production,
    )
    from repro.xmlmodel.dtd import DTD

    if not recursive:
        return random_arbitrary_dtd(rng, n_labels=5, max_arity=1)
    labels = ["r", "n1", "n2", "n3", "n4"]
    productions = {
        label: random_production(rng, labels[1:]) for label in labels
    }
    attributes = {label: ("at0",) for label in labels[1:] if rng.random() < 0.4}
    return DTD("r", productions, attributes)


def _random_pairs(seed: int, count: int):
    """Seeded (DTD, pattern) pairs, about half of them unsatisfiable.

    Patterns are abstracted from random trees, either of the DTD itself
    (satisfiable by construction) or of an unrelated DTD over the same
    labels (often not).
    """
    import random

    from repro.workloads.random_instances import (
        abstract_pattern_from_tree,
        random_tree_from_dtd,
    )

    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        dtd = _random_dtd(rng, recursive=rng.random() < 0.5)
        donor = dtd if rng.random() < 0.5 else _random_dtd(rng, recursive=False)
        if not donor.is_satisfiable():
            continue
        tree = random_tree_from_dtd(donor, rng, max_nodes=8)
        pairs.append((dtd, abstract_pattern_from_tree(rng, tree)))
    return pairs


@pytest.mark.parametrize("kernel", ["pure", "bitset"])
def test_structural_witness_agrees_with_prune_only_search(kernel):
    """The automata have one encoding; *kernel* pins the pattern engine
    that checks each decorated witness against its pattern."""
    from repro.automata.bitset import decorate
    from repro.engine import CompilationCache
    from repro.engine.budget import ExecutionContext
    from repro.kernel import force_kernel

    found = empty = 0
    with force_kernel(kernel):
        for dtd, pattern in _random_pairs(seed=1500, count=120):
            context = ExecutionContext(cache=CompilationCache())
            witness = structural_witness(dtd, pattern, context)
            reference = _prune_only_witness(dtd, pattern)
            assert (witness is None) == (reference is None), (dtd, pattern)
            if witness is None:
                empty += 1
                continue
            found += 1
            decorated = decorate(dtd, witness)
            assert dtd.conforms(decorated), (dtd, pattern, witness)
            assert matches_at_root(pattern, decorated), (dtd, pattern, witness)
    # the seeded pairs exercise both answers
    assert found >= 20 and empty >= 20, (found, empty)


# ---------------------------------------------------------------------------
# tag lifting against enumeration and the plain-automata lifting
# ---------------------------------------------------------------------------

#: Non-recursive DTDs without ``*``/``+``: every tree has at most 4 nodes,
#: so enumeration up to 4 nodes over the pattern's constants plus one
#: fresh value is a complete oracle (values outside the constants can be
#: collapsed to one without losing a match).
LIFTING_DTDS = [
    "r -> a, b?\na(x) -> b?\nb(y)",
    "r -> a | (b, b)\na(x, y)\nb(x)",
    "r -> c, c?, d\nc(w, z)\nd(w, z)",
]


def _valued_pattern(rng, dtd):
    """A random pattern with constants and (mostly) repeated variables.

    The items of three patterns abstracted from three trees of *dtd*,
    every attribute term redrawn from two constants and one variable.
    Each part matches its tree; together they often need two pattern
    nodes on one tree node, where only the values decide.
    """
    from repro.values import Const, Var
    from repro.workloads.random_instances import (
        abstract_pattern_from_tree,
        random_tree_from_dtd,
    )

    terms = [Const(0), Const(1), Var("x")]

    def redraw(node: Pattern) -> Pattern:
        if node.vars is None:
            return node
        values = tuple(rng.choice(terms) for __ in node.vars)
        return Pattern(node.label, values, node.items)

    while True:
        parts = [
            abstract_pattern_from_tree(
                rng, random_tree_from_dtd(dtd, rng, max_nodes=8)
            ).map_patterns(redraw)
            for __ in range(3)
        ]
        pattern = Pattern(dtd.root, None, sum((p.items for p in parts), ()))
        if any(isinstance(term, Const) for term in pattern.terms()):
            return pattern


def test_tag_lifting_agrees_with_enumeration_and_reference():
    """Patterns with constants and repeated variables: the bitset tag
    lifting, the plain-automata lifting and enumeration agree."""
    import random

    from repro.values import Const, Null
    from repro.verification.reachability import satisfying_tree_reference

    rng = random.Random(2900)
    answers = {True: 0, False: 0}
    refuted_by_values = 0
    for index in range(90):
        dtd = parse_dtd(LIFTING_DTDS[index % len(LIFTING_DTDS)])
        pattern = _valued_pattern(rng, dtd)
        constants = {t.value for t in pattern.terms() if isinstance(t, Const)}
        domain = sorted(constants) + [Null("oracle-fresh")]
        expected = any(
            matches_at_root(pattern, tree)
            for tree in enumerate_trees(dtd, 4, domain=domain)
        )
        witness = satisfying_tree(dtd, pattern)
        assert (witness is not None) == expected, (dtd, pattern)
        reference = satisfying_tree_reference(dtd, pattern)
        assert (reference is not None) == expected, (dtd, pattern)
        if witness is not None:
            assert dtd.conforms(witness) and matches_at_root(pattern, witness)
        elif structural_witness(dtd, pattern) is not None:
            refuted_by_values += 1
        answers[expected] += 1
    # the seeded patterns exercise both answers, and tag lifting refutes
    # patterns whose structure alone is satisfiable
    assert answers[True] >= 30 and answers[False] >= 15, answers
    assert refuted_by_values >= 8, refuted_by_values
