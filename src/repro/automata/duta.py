"""Deterministic bottom-up unranked tree automata (DUTAs).

A DUTA assigns every (label-only) tree exactly one *vertical* state,
computed bottom-up.  Processing the children of a node is itself a
deterministic left-to-right scan through *horizontal* states:

    h0 = initial_horizontal(label)
    hi = step_horizontal(label, h(i-1), state_of_child_i)
    state = finish(label, hk)

Both state spaces must be finite (and hashable) for the reachability
algorithm to terminate; they are finite for every automaton in this
library (subsets of NFA states, sets of subpatterns, and tuples thereof).

:func:`reachable_states` computes the set of vertical states realized by
*some* tree, together with a witness tree per state — this is emptiness
testing with counterexample extraction, the engine behind the consistency
algorithms of Section 5.  Most of those searches run over a product whose
first component is a DTD automaton; passed as ``conformance=``, it lets the
worklist prune non-conforming states and step a child only under parents
whose content model can read its label.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.xmlmodel.tree import TreeNode

if TYPE_CHECKING:
    from repro.automata.dtd_automaton import DTDAutomaton

State = Hashable
HState = Hashable


class TreeAutomaton:
    """Interface for deterministic bottom-up unranked tree automata."""

    def labels(self) -> Iterable[str]:
        """The finite label alphabet the automaton runs over."""
        raise NotImplementedError

    def initial_horizontal(self, label: str) -> HState:
        """Horizontal state before reading any child of a *label* node."""
        raise NotImplementedError

    def step_horizontal(self, label: str, hstate: HState, child_state: State) -> HState:
        """Horizontal state after reading one more child (in sibling order)."""
        raise NotImplementedError

    def finish(self, label: str, hstate: HState) -> State:
        """Vertical state of a *label* node whose children produced *hstate*."""
        raise NotImplementedError

    def is_accepting(self, state: State) -> bool:
        """Acceptance predicate on the root state."""
        raise NotImplementedError


def run(automaton: TreeAutomaton, node: TreeNode) -> State:
    """The unique state the automaton assigns to the subtree *node*.

    Attribute values are ignored: tree automata see only labels and shape.
    Implemented iteratively (explicit stack) so deep trees cannot overflow
    the Python recursion limit.
    """
    # post-order evaluation with an explicit stack
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


class ProductAutomaton(TreeAutomaton):
    """Synchronous product of several DUTAs; states are tuples.

    Acceptance defaults to "all components accept"; pass *predicate* to
    decide acceptance from the whole state tuple (this is how complements
    and boolean combinations are expressed — determinism makes negation
    free).
    """

    def __init__(
        self,
        components: Iterable[TreeAutomaton],
        predicate: Callable[[tuple], bool] | None = None,
    ):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("product of zero automata")
        self._predicate = predicate

    def labels(self) -> Iterable[str]:
        alphabet: set[str] = set()
        for component in self.components:
            alphabet.update(component.labels())
        return alphabet

    def initial_horizontal(self, label: str) -> tuple:
        return tuple(c.initial_horizontal(label) for c in self.components)

    def step_horizontal(self, label: str, hstate: tuple, child_state: tuple) -> tuple:
        return tuple(
            component.step_horizontal(label, h, s)
            for component, h, s in zip(self.components, hstate, child_state)
        )

    def finish(self, label: str, hstate: tuple) -> tuple:
        return tuple(
            component.finish(label, h)
            for component, h in zip(self.components, hstate)
        )

    def is_accepting(self, state: tuple) -> bool:
        if self._predicate is not None:
            return self._predicate(state)
        return all(
            component.is_accepting(s)
            for component, s in zip(self.components, state)
        )


class _Stop(Exception):
    """Internal: raised to unwind the worklist once *stop* fires."""


def _conformance_hooks(
    automaton: TreeAutomaton,
    prune: Callable[[State], bool] | None,
    conformance: "DTDAutomaton",
) -> tuple[Callable[[State], bool], Callable[[HState], bool]]:
    """The vertical and horizontal prune tests a *conformance* component implies.

    Checks the contract (component 0 of a :class:`ProductAutomaton`) and
    folds the caller's own *prune*, if any, into the vertical test.
    """
    components = getattr(automaton, "components", ())
    if not components or components[0] is not conformance:
        raise ValueError(
            "conformance= must be component 0 of the product being searched"
        )
    state_ok = conformance.state_ok
    dead = conformance.horizontal_dead
    if prune is None:
        vertical = lambda state: not state_ok(state[0])
    else:
        vertical = lambda state: not state_ok(state[0]) or prune(state)
    return vertical, lambda hstate: dead(hstate[0])


def reachable_states(
    automaton: TreeAutomaton,
    stop: Callable[[State], bool] | None = None,
    max_states: int | None = None,
    prune: Callable[[State], bool] | None = None,
    conformance: "DTDAutomaton | None" = None,
    charge: Callable[[], None] | None = None,
) -> dict[State, TreeNode]:
    """All vertical states realized by some tree, with a witness tree each.

    On-the-fly emptiness: the product state space is never materialized.
    A worklist interleaves two kinds of increments — a newly discovered
    *horizontal* state of some label is extended by every already-realized
    child state, and a newly realized *vertical* state is offered to every
    already-known horizontal state — so each ``step_horizontal`` edge
    ``(label, hstate, child)`` is explored once, not once per saturation
    round.  Every horizontal state remembers the child states that led to
    it, so ``finish`` results come with a witness tree plugging the child
    witnesses under the label.  Terminates because the state spaces are
    finite.

    *stop* aborts the search as soon as a state satisfying it is found
    (the state is included in the result).  *max_states* caps the number
    of realized states, guarding callers against runaway products.

    *prune* discards useless states: a state satisfying it is neither
    recorded nor offered as a child later.  Sound whenever pruned states
    can never occur inside an accepted tree.

    *conformance* is the DTD automaton (either encoding) that is component 0
    of the :class:`ProductAutomaton` *automaton*; it makes the search a
    conforming-product search.  States whose DTD component records a
    non-conforming subtree are pruned, and so are horizontal states whose
    DTD row is dead (no extension of the child sequence can recover).
    Realized states are indexed by the label they were finished under,
    and a horizontal state of label ``L`` is stepped only with children
    whose label is in ``conformance.child_labels(L)`` — every other step
    lands in a dead DTD row.  The skipped steps are exactly the ones the
    pruning would discard, so the realized states, their discovery order
    and their witnesses are those of the unindexed search with the same
    pruning.

    *charge* is called once per newly realized state — the engine layer's
    budget accounting hook (it may raise to abort the saturation).
    """
    labels = sorted(automaton.labels(), key=repr)
    dead = None
    if conformance is not None:
        prune, dead = _conformance_hooks(automaton, prune, conformance)
    realized: dict[State, TreeNode] = {}
    pruned: set[State] = set()
    #: per label: hstate -> children used to reach it
    paths: dict[str, dict[HState, tuple[State, ...]]] = {}
    #: per child label: the labels of the parents that may read it
    if conformance is None:
        readers = dict.fromkeys(labels, labels)
    else:
        readers = {label: [] for label in labels}
        for parent in labels:
            for child in conformance.child_labels(parent):
                readers[child].append(parent)
    #: per parent label: the realized states it may read, in discovery order
    children_of: dict[str, list[State]] = {label: [] for label in labels}
    #: ("h", label, hstate) — a new horizontal state to extend and finish;
    #: ("s", state, label) — a new vertical state to offer to the known
    #: hstates of the labels that may read it
    worklist: deque[tuple] = deque()

    def add_horizontal(label: str, hstate: HState, children: tuple[State, ...]) -> None:
        label_paths = paths[label]
        if hstate in label_paths:
            return
        if dead is not None and dead(hstate):
            return
        label_paths[hstate] = children
        worklist.append(("h", label, hstate))

    def add_state(state: State, label: str, children: tuple[State, ...]) -> None:
        if state in realized or state in pruned:
            return
        if prune is not None and prune(state):
            pruned.add(state)
            return
        if charge is not None:
            charge()
        realized[state] = TreeNode(label, (), tuple(realized[c] for c in children))
        for parent in readers[label]:
            children_of[parent].append(state)
        worklist.append(("s", state, label))
        if stop is not None and stop(state):
            raise _Stop
        if max_states is not None and len(realized) > max_states:
            raise RuntimeError(f"reachability exceeded {max_states} states")

    step = automaton.step_horizontal
    try:
        for label in labels:
            paths[label] = {}
            add_horizontal(label, automaton.initial_horizontal(label), ())
        while worklist:
            task = worklist.popleft()
            if task[0] == "h":
                __, label, hstate = task
                children = paths[label][hstate]
                # finish first: leaves realize states before any child
                # sequence of positive length is explored
                add_state(automaton.finish(label, hstate), label, children)
                for child in children_of[label]:
                    add_horizontal(
                        label, step(label, hstate, child), children + (child,)
                    )
            else:
                __, child, child_label = task
                for label in readers[child_label]:
                    for hstate, children in list(paths[label].items()):
                        add_horizontal(
                            label, step(label, hstate, child), children + (child,)
                        )
    except _Stop:
        pass
    return realized


def find_accepted(
    automaton: TreeAutomaton,
    predicate: Callable[[State], bool] | None = None,
    prune: Callable[[State], bool] | None = None,
    conformance: "DTDAutomaton | None" = None,
    charge: Callable[[], None] | None = None,
) -> tuple[State, TreeNode] | None:
    """Find some tree whose root state satisfies *predicate* (default: accepting).

    Returns ``(state, witness_tree)`` or None when no tree qualifies —
    i.e., emptiness testing with counterexample extraction.  *prune*,
    *conformance* and *charge* are passed on to :func:`reachable_states`.
    """
    if predicate is None:
        predicate = automaton.is_accepting
    realized = reachable_states(
        automaton,
        stop=predicate,
        prune=prune,
        conformance=conformance,
        charge=charge,
    )
    for state, witness in realized.items():
        if predicate(state):
            return state, witness
    return None


def language_is_empty(automaton: TreeAutomaton) -> bool:
    """True iff the automaton accepts no tree at all."""
    return find_accepted(automaton) is None
