"""Reference reachability procedures, kept as differential oracles.

* :func:`reachable_states_naive` — the round-based saturation that
  :func:`repro.automata.duta.reachable_states` replaced: the worklist
  there steps each horizontal state only with newly realized children,
  and only under parents whose content model can read the child's label.
  The tests check the realized state set and the label index against
  this version, which re-runs every label's horizontal BFS each round.
  It keeps the generic search: any automaton, an optional
  ``conformance=`` component, and the *prune* and *max_states* knobs.
* :func:`achievable_sets_reference` and :func:`satisfying_tree_reference`
  — :func:`repro.engine.cache.achievable_sets` and
  :func:`repro.patterns.satisfiability.satisfying_tree`'s tag lifting,
  computed uncached over the plain automata of
  :mod:`repro.verification.automata` that the production bitset
  automata re-encode.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.automata.duta import (
    HState,
    ProductAutomaton,
    State,
    TreeAutomaton,
    reachable_states,
)
from repro.patterns.ast import WILDCARD, Pattern
from repro.values import Const
from repro.verification.automata import DTDAutomaton, PatternClosureAutomaton
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def reachable_states_naive(
    automaton: TreeAutomaton,
    stop: Callable[[State], bool] | None = None,
    max_states: int | None = None,
    prune: Callable[[State], bool] | None = None,
    conformance: DTDAutomaton | None = None,
    charge: Callable[[], None] | None = None,
) -> dict[State, TreeNode]:
    """The original round-based saturation; kept as the differential oracle.

    With *conformance* it realizes the same set as
    :func:`~repro.automata.duta.reachable_states`, but it re-runs the
    full horizontal BFS of every label each round, so it is quadratically
    slower on large products.  *conformance* only prunes here
    (non-conforming states, dead DTD rows): every horizontal state is
    still stepped with every realized child, so the tests can check the
    label index against it.  Without it, the search runs any automaton.
    *prune* discards states that satisfy it (sound when they can never
    occur inside an accepted tree); *max_states* caps the realized states.
    """
    labels = sorted(automaton.labels(), key=repr)
    dead = None
    if conformance is not None:
        components = getattr(automaton, "components", ())
        if not components or components[0] is not conformance:
            raise ValueError(
                "conformance= must be component 0 of the product being searched"
            )
        own_prune = prune
        prune = lambda state: not conformance.state_ok(state[0]) or (
            own_prune is not None and own_prune(state)
        )
        dead = lambda hstate: conformance.horizontal_dead(hstate[0])
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


def achievable_sets_reference(
    dtd: DTD,
    patterns: Iterable[Pattern],
    extra_labels: frozenset[str] = frozenset(),
    with_arity: bool = True,
) -> dict[frozenset[int], TreeNode]:
    """:func:`~repro.engine.cache.achievable_sets` over the plain automata.

    Builds an uncached :class:`DTDAutomaton` x
    :class:`PatternClosureAutomaton` conforming product and reads the
    same ``{trigger set: witness}`` table off its accepting states.  The
    trigger sets must equal the production table's; the witnesses may
    differ, since the two encodings order their states differently.
    """
    patterns = tuple(patterns)
    closure = PatternClosureAutomaton(
        patterns,
        extra_labels=dtd.labels | frozenset(extra_labels),
        arity_of=dtd.arity if with_arity else None,
    )
    conformance = DTDAutomaton(dtd, frozenset(extra_labels) - dtd.labels)
    realized = reachable_states(
        ProductAutomaton([conformance, closure]), conformance=conformance
    )
    sets: dict[frozenset[int], TreeNode] = {}
    for state in realized:
        if conformance.is_accepting(state[0]):
            triggered = closure.trigger_set(state[1])
            if triggered not in sets:
                sets[triggered] = realized[state]
    return sets


class _LiftedClosureReference(PatternClosureAutomaton):
    """The plain closure automaton over ``(label, tags)`` letters."""

    def __init__(self, patterns, letters, arity_of):
        super().__init__(patterns, arity_of=arity_of)
        self._labels = frozenset(letters)

    def _node_formula_ok(self, sub: Pattern, letter) -> bool:
        base_label, tags = letter
        if sub.label != WILDCARD and sub.label != base_label:
            return False
        if sub.vars is None:
            return True
        if len(sub.vars) != len(tags):
            return False
        for term, tag in zip(sub.vars, tags):
            if isinstance(term, Const) and term.value != tag:
                return False
        return True


def satisfying_tree_reference(dtd: DTD, pattern: Pattern) -> TreeNode | None:
    """:func:`~repro.patterns.satisfiability.satisfying_tree`'s tag lifting
    over the plain automata: a valued witness for *pattern*, or None.

    The same letters, tag assignments and lifted DTD wrapper as
    production, over an uncached :class:`DTDAutomaton` and a lifted
    :class:`PatternClosureAutomaton`.  The answer must equal production's;
    the witnesses may differ.
    """
    from repro.patterns.satisfiability import lifted_witness

    return lifted_witness(
        dtd, pattern, DTDAutomaton(dtd), _LiftedClosureReference
    )
