"""Unranked tree automata.

All automata here are *deterministic bottom-up* unranked tree automata
(DUTAs), phrased against the lazy interface of
:class:`~repro.automata.duta.TreeAutomaton`: every tree is assigned exactly
one state, horizontal languages are processed left-to-right through
horizontal states, and acceptance is a predicate on the root state.

Working with deterministic automata makes complementation free (negate the
acceptance predicate) and products trivial (tuples of states), which is how
the consistency algorithms of Section 5 avoid explicit automaton
complementation: the exponential cost lives in the state spaces themselves,
exactly as the paper's EXPTIME bounds predict.

* :mod:`repro.automata.duta` — the interface, tree runs, products, and
  reachability with witness-tree extraction (emptiness testing).
* :mod:`repro.automata.dtd_automaton` — conformance to a DTD as a DUTA.
* :mod:`repro.automata.pattern_automaton` — the *closure automaton* of a
  set of variable-free patterns: its state at a node records which
  subpatterns are satisfied at / strictly below the node.
* :mod:`repro.automata.bitset` — integer-encoded twins of the two
  automata above (the fast path :mod:`repro.kernel` selects for
  problems of size 16 or more), backed by the interning tables of
  :mod:`repro.automata.interning`.
"""

from repro.automata.duta import (
    ProductAutomaton,
    TreeAutomaton,
    find_accepted,
    reachable_states,
    run,
)
from repro.automata.dtd_automaton import DTDAutomaton
from repro.automata.pattern_automaton import PatternClosureAutomaton
from repro.automata.bitset import BitsetClosureAutomaton, BitsetDTDAutomaton
from repro.automata.interning import Interner, LabelTable

__all__ = [
    "TreeAutomaton",
    "ProductAutomaton",
    "run",
    "reachable_states",
    "find_accepted",
    "DTDAutomaton",
    "PatternClosureAutomaton",
    "BitsetDTDAutomaton",
    "BitsetClosureAutomaton",
    "Interner",
    "LabelTable",
]
