"""Algebraic laws of the tree-automata layer, checked on random trees.

Determinism makes boolean structure trivial *by construction*; these tests
confirm the construction: a product accepts iff all components do, a
negated predicate accepts the complement, and `run` is consistent with
the witnesses of the production `reachable_states`.  The laws are stated
over the plain reference automata of `repro.verification.automata`, the
replay over the production bitset automata.
"""

import random

import pytest

from repro.automata.bitset import BitsetClosureAutomaton, BitsetDTDAutomaton
from repro.automata.duta import ProductAutomaton, reachable_states
from repro.patterns.matching import matches_at_root
from repro.verification.automata import DTDAutomaton, accepts, run
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_arbitrary_dtd,
    random_tree_from_dtd,
)


def setup_case(seed: int):
    rng = random.Random(seed)
    dtd_a = random_arbitrary_dtd(rng, n_labels=4, max_arity=0, root="r",
                                 label_prefix="s")
    dtd_b = random_arbitrary_dtd(rng, n_labels=4, max_arity=0, root="r",
                                 label_prefix="s")
    trees = [random_tree_from_dtd(dtd_a, rng, max_nodes=8) for __ in range(3)]
    trees += [random_tree_from_dtd(dtd_b, rng, max_nodes=8) for __ in range(3)]
    return rng, dtd_a, dtd_b, trees


@pytest.mark.parametrize("seed", range(15))
def test_product_is_conjunction(seed):
    __, dtd_a, dtd_b, trees = setup_case(seed)
    labels = dtd_a.labels | dtd_b.labels
    automaton_a = DTDAutomaton(dtd_a, extra_labels=labels)
    automaton_b = DTDAutomaton(dtd_b, extra_labels=labels)
    product = ProductAutomaton([automaton_a, automaton_b])
    for tree in trees:
        expected = accepts(automaton_a, tree) and accepts(automaton_b, tree)
        assert accepts(product, tree) == expected


@pytest.mark.parametrize("seed", range(15))
def test_negated_predicate_is_complement(seed):
    __, dtd_a, dtd_b, trees = setup_case(seed)
    labels = dtd_a.labels | dtd_b.labels
    automaton_a = DTDAutomaton(dtd_a, extra_labels=labels)
    automaton_b = DTDAutomaton(dtd_b, extra_labels=labels)
    difference = ProductAutomaton(
        [automaton_a, automaton_b],
        predicate=lambda state: automaton_a.is_accepting(state[0])
        and not automaton_b.is_accepting(state[1]),
    )
    for tree in trees:
        expected = accepts(automaton_a, tree) and not accepts(automaton_b, tree)
        assert accepts(difference, tree) == expected


@pytest.mark.parametrize("seed", range(15))
def test_reachability_witnesses_replay(seed):
    """Every witness tree produced by reachability must replay to its state."""
    rng, dtd_a, __, ___ = setup_case(seed)
    tree = random_tree_from_dtd(dtd_a, rng, max_nodes=6)
    pattern = abstract_pattern_from_tree(rng, tree).strip_values()
    conformance = BitsetDTDAutomaton(dtd_a)
    closure = BitsetClosureAutomaton([pattern], dtd_a.labels)
    product = ProductAutomaton([conformance, closure])
    realized = reachable_states(product, conformance=conformance)
    assert any(closure.satisfies(state[1], pattern) for state in realized)
    for state, witness in realized.items():
        assert run(product, witness) == state
        # and the closure component's verdict matches the direct matcher
        assert closure.satisfies(state[1], pattern) == matches_at_root(
            pattern, witness
        )
