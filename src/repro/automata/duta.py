"""Deterministic bottom-up unranked tree automata (DUTAs).

A DUTA assigns every (label-only) tree exactly one *vertical* state,
computed bottom-up.  Processing the children of a node is itself a
deterministic left-to-right scan through *horizontal* states:

    h0 = initial_horizontal(label)
    hi = step_horizontal(label, h(i-1), state_of_child_i)
    state = finish(label, hk)

Both state spaces must be finite (and hashable) for the reachability
algorithm to terminate; they are finite for every automaton in this
library (bit-packed DFA states and subpattern sets, and pairs of them).

:func:`reachable_states` computes the set of vertical states realized by
*some* conforming tree, with a witness tree per state built when read —
emptiness testing with counterexample extraction, the engine behind the
consistency algorithms of Section 5.  Every search runs over a product
whose first component is the DTD automaton; passed as ``conformance=``,
it lets the worklist drop non-conforming states and step a child only
under parents whose content model can read its label.  Running one
automaton over a given tree (``run``) is the tests' business and lives
in :mod:`repro.verification.automata`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from repro.obs.spans import current_span
from repro.xmlmodel.tree import TreeNode

if TYPE_CHECKING:
    from repro.automata.bitset import BitsetDTDAutomaton

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


class ProductAutomaton(TreeAutomaton):
    """Synchronous product of two DUTAs; states are pairs.

    Acceptance defaults to "both components accept"; pass *predicate* to
    decide acceptance from the whole state pair (this is how complements
    and boolean combinations are expressed — determinism makes negation
    free).  Every search in the library pairs a DTD automaton with one
    other automaton, so the product is written out for exactly two
    components; nest products for more.
    """

    def __init__(
        self,
        components: Iterable[TreeAutomaton],
        predicate: Callable[[tuple], bool] | None = None,
    ):
        self.components = tuple(components)
        if len(self.components) != 2:
            raise ValueError(
                f"a product has two components, got {len(self.components)}"
            )
        self._first, self._second = self.components
        self._step_first = self._first.step_horizontal
        self._step_second = self._second.step_horizontal
        self._predicate = predicate

    def labels(self) -> Iterable[str]:
        return set(self._first.labels()) | set(self._second.labels())

    def initial_horizontal(self, label: str) -> tuple:
        return (
            self._first.initial_horizontal(label),
            self._second.initial_horizontal(label),
        )

    def step_horizontal(self, label: str, hstate: tuple, child_state: tuple) -> tuple:
        return (
            self._step_first(label, hstate[0], child_state[0]),
            self._step_second(label, hstate[1], child_state[1]),
        )

    def finish(self, label: str, hstate: tuple) -> tuple:
        return (
            self._first.finish(label, hstate[0]),
            self._second.finish(label, hstate[1]),
        )

    def is_accepting(self, state: tuple) -> bool:
        if self._predicate is not None:
            return self._predicate(state)
        return self._first.is_accepting(state[0]) and self._second.is_accepting(
            state[1]
        )


def _search_tables(conformance: "BitsetDTDAutomaton") -> tuple[list, dict]:
    """The label order (by ``repr``) and reader table (per child label,
    the parents whose content model may read it) of every search that
    *conformance* conforms: built once per automaton and kept on it, so
    tag lifting's one search per tag assignment reuses them."""
    tables = conformance.__dict__.get("_search_tables")
    if tables is None:
        labels = sorted(conformance.labels(), key=repr)
        readers: dict = {label: [] for label in labels}
        for parent in labels:
            for child in conformance.child_labels(parent):
                readers[child].append(parent)
        tables = conformance.__dict__["_search_tables"] = (labels, readers)
    return tables


class _Stop(Exception):
    """Internal: raised to unwind the worklist once *stop* fires."""


class Witnesses(Mapping):
    """The states a search realized, each with a witness tree built when read.

    The search keeps back-pointers, not trees: a realized state points to
    its label and the horizontal state it was finished from, a horizontal
    state to the one it was stepped from and the child it read.
    ``witnesses[state]`` follows them children first with an explicit
    stack, so a tree of any height builds without recursion, and keeps
    the subtrees it builds.  Iteration follows discovery order.
    """

    __slots__ = ("_origins", "_paths", "_built")

    def __init__(self, origins: dict, paths: dict[str, dict]):
        self._origins = origins
        self._paths = paths
        self._built: dict[State, TreeNode] = {}

    def __len__(self) -> int:
        return len(self._origins)

    def __iter__(self) -> Iterator[State]:
        return iter(self._origins)

    def __contains__(self, state: object) -> bool:
        return state in self._origins

    def __getitem__(self, state: State) -> TreeNode:
        built = self._built
        stack = [state]
        while stack:
            current = stack[-1]
            if current in built:
                stack.pop()
                continue
            label, hstate = self._origins[current]
            label_paths = self._paths[label]
            children = []  # last child first
            link = label_paths[hstate]
            while link is not None:
                hstate, child = link
                children.append(child)
                link = label_paths[hstate]
            unbuilt = [child for child in children if child not in built]
            if unbuilt:  # realized before *current*, so no cycle
                stack += unbuilt
                continue
            stack.pop()
            built[current] = TreeNode(
                label, (), tuple([built[child] for child in reversed(children)])
            )
        return built[state]


def reachable_states(
    automaton: ProductAutomaton,
    *,
    conformance: "BitsetDTDAutomaton",
    stop: Callable[[State], bool] | None = None,
    charge: Callable[[], None] | None = None,
) -> Witnesses:
    """All conforming vertical states realized by some tree, with a witness each.

    On-the-fly emptiness: the product state space is never materialized.
    A worklist interleaves two kinds of increments — a newly discovered
    *horizontal* state of some label is extended by every already-realized
    child state, and a newly realized *vertical* state is offered to every
    already-known horizontal state — so each ``step_horizontal`` edge
    ``(label, hstate, child)`` is explored once, not once per saturation
    round.  Back-pointers record how each state was reached, and the
    returned :class:`Witnesses` builds a state's witness tree only when
    it is read.  Terminates because the state spaces are finite.

    *conformance* is the DTD automaton that is component 0 of the
    :class:`ProductAutomaton` *automaton*.  States whose DTD component
    records a non-conforming subtree are dropped, and so are horizontal
    states whose DTD row is dead (no extension of the child sequence can
    recover): neither can occur inside a conforming tree.  Realized
    states are indexed by the label they were finished under, and a
    horizontal state of label ``L`` is stepped only with children whose
    label is in ``conformance.child_labels(L)`` — every other step lands
    in a dead DTD row.  A label without a production starts in a dead
    row, so the search never realizes it, nor any label outside the
    conformance automaton's alphabet, whose label order and reader
    table are built once per automaton.
    :func:`repro.verification.reachability.reachable_states_naive` is
    the unindexed round-based reference it is tested against.

    *stop* aborts the search as soon as a state satisfying it is found
    (the state is included in the result).  *charge* is called once per
    newly realized state — the engine layer's budget accounting hook (it
    may raise to abort the saturation).

    The current span is annotated with the number of ``realized`` states
    and of ``horizontal`` states discovered, aborted searches included.
    """
    components = getattr(automaton, "components", ())
    if not components or components[0] is not conformance:
        raise ValueError(
            "conformance= must be component 0 of the product being searched"
        )
    state_ok = conformance.state_ok
    dead = conformance.horizontal_dead
    labels, readers = _search_tables(conformance)
    #: realized state -> (label it was finished under, its hstate)
    origins: dict[State, tuple[str, HState]] = {}
    #: per label: hstate -> (previous hstate, child read), None at the start
    paths: dict[str, dict[HState, tuple[HState, State] | None]] = {
        label: {} for label in labels
    }
    #: per parent label: the realized states it may read, in discovery order
    children_of: dict[str, list[State]] = {label: [] for label in labels}
    #: ("h", label, hstate) — a new horizontal state to extend and finish;
    #: ("s", state, label) — a new vertical state to offer to the known
    #: hstates of the labels that may read it
    worklist: deque[tuple] = deque()

    def extend(
        label: str, hstates: Iterable[HState], children: Iterable[State]
    ) -> None:
        """Step each of *hstates* with each of *children*; record new hstates."""
        label_paths = paths[label]
        for hstate in hstates:
            for child in children:
                successor = step(label, hstate, child)
                if successor in label_paths or dead(successor[0]):
                    continue
                label_paths[successor] = (hstate, child)
                worklist.append(("h", label, successor))

    def add_state(state: State, label: str, hstate: HState) -> None:
        if state in origins or not state_ok(state[0]):
            return
        if charge is not None:
            charge()
        origins[state] = (label, hstate)
        for parent in readers[label]:
            children_of[parent].append(state)
        worklist.append(("s", state, label))
        if stop is not None and stop(state):
            raise _Stop

    step = automaton.step_horizontal
    try:
        for label in labels:
            initial = automaton.initial_horizontal(label)
            if not dead(initial[0]):
                paths[label][initial] = None
                worklist.append(("h", label, initial))
        while worklist:
            task = worklist.popleft()
            if task[0] == "h":
                __, label, hstate = task
                # finish first: leaves realize states before any child
                # sequence of positive length is explored
                add_state(automaton.finish(label, hstate), label, hstate)
                extend(label, (hstate,), children_of[label])
            else:
                __, child, child_label = task
                for label in readers[child_label]:
                    # a snapshot: hstates found while extending are queued
                    # and meet this child through children_of instead
                    extend(label, list(paths[label]), (child,))
    except _Stop:
        pass
    finally:
        current_span().annotate(
            realized=len(origins),
            horizontal=sum(len(label_paths) for label_paths in paths.values()),
        )
    return Witnesses(origins, paths)


def find_accepted(
    automaton: ProductAutomaton,
    predicate: Callable[[State], bool] | None = None,
    *,
    conformance: "BitsetDTDAutomaton",
    charge: Callable[[], None] | None = None,
) -> tuple[State, TreeNode] | None:
    """Find some conforming tree whose root state satisfies *predicate*.

    *predicate* defaults to the product's acceptance.  Returns
    ``(state, witness_tree)`` or None when no tree qualifies — i.e.,
    emptiness testing with counterexample extraction.  *conformance* and
    *charge* are passed on to :func:`reachable_states`.
    """
    if predicate is None:
        predicate = automaton.is_accepting
    realized = reachable_states(
        automaton, conformance=conformance, stop=predicate, charge=charge
    )
    for state in realized:
        if predicate(state):
            return state, realized[state]
    return None
