"""The plain tree automata: the reference the bitset encoding re-encodes.

:mod:`repro.automata.bitset` is the one production encoding.  The
automata here compute exactly the same functions over readable states,
and the differential tests hold the bitset ones to them:

* :class:`DTDAutomaton` — DTD conformance.  Vertical state
  ``(label, ok)``, where ``ok`` records whether the subtree conforms;
  horizontal state: a subset of the production NFA's states plus the
  conjunction of the children's ``ok`` flags.  Acceptance: the root
  carries the DTD's root symbol and ``ok`` holds.  Attribute values are
  ignored.
* :class:`PatternClosureAutomaton` — the closure automaton of a set of
  patterns.  At a node ``v`` its state is the pair ``sat(v)`` (the
  subpatterns satisfied at ``v``, *structurally*: labels, arities and
  axes, any values) and ``below(v)`` (those satisfied at ``v`` or a
  proper descendant).  A horizontal sequence (``->`` / ``->*``) of
  ``k`` elements runs a ``k+1``-state NFA in subset mode: state ``i``
  advances on a child satisfying element ``i``, with self-loops at 0,
  at ``k`` and after each ``->*`` connector.
* :func:`run`, :func:`accepts` and :func:`language_is_empty` — one
  automaton over a given tree, and emptiness without a DTD component
  (:func:`~repro.verification.reachability.reachable_states_naive`).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.automata.duta import State, TreeAutomaton
from repro.errors import XsmError
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def run(automaton: TreeAutomaton, node: TreeNode) -> State:
    """The unique state the automaton assigns to the subtree *node*.

    Attribute values are ignored: tree automata see only labels and shape.
    Iterative (explicit stack), so deep trees cannot overflow the Python
    recursion limit.
    """
    result: dict[int, State] = {}
    stack: list[tuple[TreeNode, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded:
            hstate = automaton.initial_horizontal(current.label)
            for child in current.children:
                hstate = automaton.step_horizontal(
                    current.label, hstate, result[id(child)]
                )
            result[id(current)] = automaton.finish(current.label, hstate)
        else:
            stack.append((current, True))
            for child in reversed(current.children):
                stack.append((child, False))
    return result[id(node)]


def accepts(automaton: TreeAutomaton, node: TreeNode) -> bool:
    """True iff the automaton accepts the tree rooted at *node*."""
    return automaton.is_accepting(run(automaton, node))


def language_is_empty(automaton: TreeAutomaton) -> bool:
    """True iff the automaton accepts no tree at all."""
    from repro.verification.reachability import reachable_states_naive

    realized = reachable_states_naive(automaton, stop=automaton.is_accepting)
    return not any(map(automaton.is_accepting, realized))


class DTDAutomaton(TreeAutomaton):
    """Accepts exactly the label-trees conforming to *dtd* (values ignored)."""

    def __init__(self, dtd: DTD, extra_labels: Iterable[str] = ()):
        self.dtd = dtd
        self._labels = frozenset(dtd.labels) | frozenset(extra_labels)
        self._child_labels = {
            parent: tuple(
                sorted(dtd.production_nfa(parent).alphabet() & self._labels)
            )
            for parent in dtd.productions
        }

    def labels(self) -> Iterable[str]:
        return self._labels

    def child_labels(self, label: str) -> tuple[str, ...]:
        """The labels a child of a conforming *label* node may carry."""
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
        """Does the vertical *state* record a conforming subtree?"""
        return state[1]


class PatternClosureAutomaton(TreeAutomaton):
    """Deterministic automaton tracking structural satisfaction of subpatterns."""

    def __init__(
        self,
        patterns: Iterable[Pattern],
        extra_labels: Iterable[str] = (),
        arity_of: Callable[[str], int] | None = None,
    ):
        self.patterns = tuple(patterns)
        self.arity_of = arity_of
        subpatterns: dict[Pattern, None] = {}
        for pattern in self.patterns:
            for sub in pattern.subpatterns():
                if sub.vars is not None and arity_of is None:
                    raise XsmError(
                        "patterns constrain attributes but no arity function was "
                        "given; strip_values() them or pass arity_of=dtd.arity"
                    )
                subpatterns.setdefault(sub, None)
        self.subpatterns: tuple[Pattern, ...] = tuple(subpatterns)
        sequences: dict[Sequence, None] = {}
        for sub in self.subpatterns:
            for item in sub.items:
                if isinstance(item, Sequence):
                    sequences.setdefault(item, None)
        self.sequences: tuple[Sequence, ...] = tuple(sequences)
        labels: set[str] = set(extra_labels)
        for pattern in self.patterns:
            labels.update(pattern.labels_used())
        self._labels = frozenset(labels)

    # -- DUTA interface -----------------------------------------------------

    def labels(self) -> Iterable[str]:
        return self._labels

    def initial_horizontal(self, label: str):
        return (
            tuple(frozenset([0]) for __ in self.sequences),
            frozenset(),
        )

    def step_horizontal(self, label: str, hstate, child_state):
        subsets, below_union = hstate
        child_sat, child_below = child_state
        new_subsets = tuple(
            self._step_sequence(sequence, subset, child_sat)
            for sequence, subset in zip(self.sequences, subsets)
        )
        return (new_subsets, below_union | child_below)

    @staticmethod
    def _step_sequence(
        sequence: Sequence, subset: frozenset, child_sat: frozenset
    ) -> frozenset:
        k = len(sequence.elements)
        successors: set[int] = set()
        for i in subset:
            if i == 0 or i == k or sequence.connectors[i - 1] == "following":
                successors.add(i)
            if i < k and sequence.elements[i] in child_sat:
                successors.add(i + 1)
        return frozenset(successors)

    def _node_formula_ok(self, sub: Pattern, label: str) -> bool:
        if sub.label != WILDCARD and sub.label != label:
            return False
        if sub.vars is not None:
            assert self.arity_of is not None
            if len(sub.vars) != self.arity_of(label):
                return False
        return True

    def finish(self, label: str, hstate):
        subsets, below_union = hstate
        sequence_ok = {
            sequence: (len(sequence.elements) in subset)
            for sequence, subset in zip(self.sequences, subsets)
        }
        sat: set[Pattern] = set()
        for sub in self.subpatterns:
            if not self._node_formula_ok(sub, label):
                continue
            satisfied = True
            for item in sub.items:
                if isinstance(item, Descendant):
                    if item.pattern not in below_union:
                        satisfied = False
                        break
                elif not sequence_ok[item]:
                    satisfied = False
                    break
            if satisfied:
                sat.add(sub)
        sat_frozen = frozenset(sat)
        return (sat_frozen, sat_frozen | below_union)

    def is_accepting(self, state) -> bool:
        """Default acceptance: every input pattern holds at the root."""
        sat, __ = state
        return all(pattern in sat for pattern in self.patterns)

    # -- state inspection -----------------------------------------------------

    @staticmethod
    def satisfies(state, pattern: Pattern) -> bool:
        """Does the tree assigned *state* satisfy *pattern* at its root?"""
        sat, __ = state
        return pattern in sat

    def trigger_set(self, state) -> frozenset[int]:
        """Indices of input patterns satisfied at the root under *state*."""
        sat, __ = state
        return frozenset(
            index for index, pattern in enumerate(self.patterns) if pattern in sat
        )
