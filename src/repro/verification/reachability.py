"""The round-based reachability saturation, kept as a differential oracle.

:func:`repro.automata.duta.reachable_states` replaced it: the worklist
there steps each horizontal state only with newly realized children,
and only under parents whose content model can read the child's label.
The tests check the realized state set and the label index against
this version, which re-runs every label's horizontal BFS each round.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.automata.duta import (
    HState,
    State,
    TreeAutomaton,
    _conformance_hooks,
)
from repro.xmlmodel.tree import TreeNode

if TYPE_CHECKING:
    from repro.automata.dtd_automaton import DTDAutomaton


def reachable_states_naive(
    automaton: TreeAutomaton,
    stop: Callable[[State], bool] | None = None,
    max_states: int | None = None,
    prune: Callable[[State], bool] | None = None,
    conformance: "DTDAutomaton | None" = None,
    charge: Callable[[], None] | None = None,
) -> dict[State, TreeNode]:
    """The original round-based saturation; kept as the differential oracle.

    Semantically identical to
    :func:`~repro.automata.duta.reachable_states` (same realized set,
    same hook contract) but re-runs the full horizontal BFS of every label
    each round, so it is quadratically slower on large products.
    *conformance* only prunes here (non-conforming states, dead DTD rows):
    every horizontal state is still stepped with every realized child, so
    the tests can check the label index against it.
    """
    labels = sorted(automaton.labels(), key=repr)
    dead = None
    if conformance is not None:
        prune, dead = _conformance_hooks(automaton, prune, conformance)
    realized: dict[State, TreeNode] = {}
    pruned: set[State] = set()
    changed = True
    while changed:
        changed = False
        known = list(realized)
        for label in labels:
            initial = automaton.initial_horizontal(label)
            if dead is not None and dead(initial):
                continue
            # BFS over horizontal states; remember the children used
            paths: dict[HState, tuple[State, ...]] = {initial: ()}
            queue: deque[HState] = deque([initial])
            while queue:
                hstate = queue.popleft()
                for child_state in known:
                    successor = automaton.step_horizontal(label, hstate, child_state)
                    if successor in paths:
                        continue
                    if dead is not None and dead(successor):
                        continue
                    paths[successor] = paths[hstate] + (child_state,)
                    queue.append(successor)
            for hstate, children in paths.items():
                state = automaton.finish(label, hstate)
                if state in realized or state in pruned:
                    continue
                if prune is not None and prune(state):
                    pruned.add(state)
                    continue
                if charge is not None:
                    charge()
                realized[state] = TreeNode(
                    label, (), tuple(realized[c] for c in children)
                )
                changed = True
                if stop is not None and stop(state):
                    return realized
                if max_states is not None and len(realized) > max_states:
                    raise RuntimeError(
                        f"reachability exceeded {max_states} states"
                    )
    return realized
