"""Unranked tree automata.

All automata here are *deterministic bottom-up* unranked tree automata
(DUTAs), phrased against the lazy interface of
:class:`~repro.automata.duta.TreeAutomaton`: every tree is assigned exactly
one state, horizontal languages are processed left-to-right through
horizontal states, and acceptance is a predicate on the root state.

Working with deterministic automata makes complementation free (negate the
acceptance predicate) and products trivial (pairs of states), which is how
the consistency algorithms of Section 5 avoid explicit automaton
complementation: the exponential cost lives in the state spaces themselves,
exactly as the paper's EXPTIME bounds predict.

* :mod:`repro.automata.duta` — the interface, products, and the
  conforming-product reachability with witness-tree extraction
  (emptiness testing).
* :mod:`repro.automata.bitset` — the one production encoding: conformance
  to a DTD and the *closure automaton* of a set of patterns (its state at
  a node records which subpatterns are satisfied at / strictly below the
  node), every state one integer, backed by the interning tables of
  :mod:`repro.automata.interning`; and :func:`~repro.automata.bitset.decorate`,
  which gives a bare witness its attribute values.

The plain automata the bitset ones re-encode are the differential
reference, in :mod:`repro.verification.automata`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".duta": (
        "ProductAutomaton", "TreeAutomaton", "find_accepted",
        "reachable_states",
    ),
    ".bitset": ("BitsetClosureAutomaton", "BitsetDTDAutomaton", "decorate"),
    ".interning": ("LabelTable",),
})
