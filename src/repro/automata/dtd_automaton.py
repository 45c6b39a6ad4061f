"""DTD conformance as a deterministic bottom-up tree automaton.

The vertical state of a node is ``(label, ok)`` where ``ok`` records
whether the subtree conforms to the DTD's productions; the horizontal
state is a subset of the production NFA's states plus the conjunction of
the children's ``ok`` flags.  Acceptance: the root is labelled with the
DTD's root symbol and ``ok`` holds.

The automaton ignores attribute values (structure only); a witness tree
extracted from it can be decorated with values afterwards using
:meth:`decorate`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.automata.duta import TreeAutomaton
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


class DTDAutomaton(TreeAutomaton):
    """Accepts exactly the label-trees conforming to *dtd* (values ignored)."""

    def __init__(self, dtd: DTD, extra_labels: Iterable[str] = ()):
        self.dtd = dtd
        self._labels = frozenset(dtd.labels) | frozenset(extra_labels)
        self._child_labels: dict[str, tuple[str, ...]] | None = None

    def labels(self) -> Iterable[str]:
        return self._labels

    def child_labels(self, label: str) -> tuple[str, ...]:
        """The labels a child of a conforming *label* node may carry.

        The production's alphabet within the automaton's labels; ``()``
        for labels without a production.  Stepping a *label* row with a
        child of any other label lands in a dead row, which is what lets
        :func:`~repro.automata.duta.reachable_states` skip those steps.
        """
        if self._child_labels is None:
            self._child_labels = {
                parent: tuple(
                    sorted(self.dtd.production_nfa(parent).alphabet() & self._labels)
                )
                for parent in self.dtd.productions
            }
        return self._child_labels.get(label, ())

    def initial_horizontal(self, label: str):
        if label not in self.dtd.productions:
            return None  # unknown label: sink
        return (self.dtd.production_nfa(label).initial, True)

    def step_horizontal(self, label: str, hstate, child_state):
        if hstate is None:
            return None
        subset, children_ok = hstate
        child_label, child_ok = child_state
        subset = self.dtd.production_nfa(label).step(subset, child_label)
        return (subset, children_ok and child_ok)

    def horizontal_dead(self, hstate) -> bool:
        """No extension of this child sequence can yield a conforming node."""
        if hstate is None:
            return True
        subset, children_ok = hstate
        return not subset or not children_ok

    def finish(self, label: str, hstate):
        if hstate is None:
            return (label, False)
        subset, children_ok = hstate
        ok = children_ok and self.dtd.production_nfa(label).is_accepting_set(subset)
        return (label, ok)

    def is_accepting(self, state) -> bool:
        label, ok = state
        return ok and label == self.dtd.root

    def state_ok(self, state) -> bool:
        """Does the vertical *state* record a conforming subtree?

        Kernel-polymorphic accessor: prune hooks use it instead of
        destructuring, so they work on bitset-encoded states too.
        """
        return state[1]

    def decorate(
        self, witness: TreeNode, value_factory: Callable[[str, str], object] | None = None
    ) -> TreeNode:
        """Attach attribute values to a bare witness tree, per the DTD's arities.

        ``value_factory(label, attribute_name)`` defaults to the constant 0
        (all data values equal).
        """
        if value_factory is None:
            value_factory = lambda label, attribute: 0

        def build(node: TreeNode) -> TreeNode:
            attrs = tuple(
                value_factory(node.label, attribute)
                for attribute in self.dtd.attributes.get(node.label, ())
            )
            return TreeNode(node.label, attrs, tuple(build(c) for c in node.children))

        return build(witness)
