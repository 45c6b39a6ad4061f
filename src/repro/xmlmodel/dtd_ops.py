"""Language operations on DTDs: inclusion, equivalence, disjointness.

Useful for schema evolution: "does every document of the old schema still
conform to the new one?" is DTD language inclusion, decided exactly by the
tree-automata layer (product of one DTD automaton with the negation of the
other — free, because the automata are deterministic).  Attribute values
are not part of tree languages; arity differences *are* detected (a tree
cannot conform to both DTDs if a shared label's arity differs, since its
attribute tuple has one length).
"""

from __future__ import annotations

from repro.automata.dtd_automaton import DTDAutomaton, decorate
from repro.automata.duta import ProductAutomaton, find_accepted
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def _arity_compatible(first: DTD, second: DTD) -> bool:
    return all(
        first.arity(label) == second.arity(label)
        for label in first.labels & second.labels
    )


def dtd_inclusion_counterexample(smaller: DTD, larger: DTD) -> TreeNode | None:
    """A tree conforming to *smaller* but not *larger*, or None if included.

    Structure only (labels and shape); when the DTDs disagree on a shared
    label's arity, any smaller-tree using that label is a counterexample,
    and the returned witness is decorated per *smaller*.
    """
    labels = smaller.labels | larger.labels
    automaton_small = DTDAutomaton(smaller, extra_labels=labels)
    automaton_large = DTDAutomaton(larger, extra_labels=labels)
    arity_ok = _arity_compatible(smaller, larger)

    def witness_state(state) -> bool:
        if not automaton_small.is_accepting(state[0]):
            return False
        if not automaton_large.is_accepting(state[1]):
            return True
        return not arity_ok  # structurally fine, but attribute tuples differ

    product = ProductAutomaton(
        [automaton_small, automaton_large], predicate=witness_state
    )
    found = find_accepted(product, conformance=automaton_small)
    if found is None:
        return None
    return decorate(smaller, found[1])


def dtd_included(smaller: DTD, larger: DTD) -> bool:
    """Does every tree conforming to *smaller* conform to *larger*?"""
    return dtd_inclusion_counterexample(smaller, larger) is None


def dtd_equivalent(first: DTD, second: DTD) -> bool:
    """Do the two DTDs accept exactly the same trees?"""
    return dtd_included(first, second) and dtd_included(second, first)


def dtd_common_tree(first: DTD, second: DTD) -> TreeNode | None:
    """A tree conforming to both DTDs, or None if their languages are disjoint."""
    if not _arity_compatible(first, second):
        return None
    labels = first.labels | second.labels
    automaton_a = DTDAutomaton(first, extra_labels=labels)
    automaton_b = DTDAutomaton(second, extra_labels=labels)
    product = ProductAutomaton([automaton_a, automaton_b])
    found = find_accepted(
        product,
        conformance=automaton_a,
        # a subtree failing either DTD can never sit inside a common tree
        prune=lambda state: not state[1][1],
    )
    if found is None:
        return None
    return decorate(first, found[1])
