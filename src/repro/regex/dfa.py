"""Deterministic finite automata over dense integer symbols.

:class:`BitsetDFA` is what :meth:`repro.regex.nfa.BitsetNFA.determinize`
produces: the production DFAs the bitset DTD automaton of
:mod:`repro.automata.bitset` steps through.
"""

from __future__ import annotations

from array import array
from typing import Sequence


class BitsetDFA:
    """A total DFA over dense integer symbols, for the bitset kernel.

    States are dense ids; the transition function is one flat row of
    symbol-indexed successors per state, so a step is a single indexed
    load.  By construction state ``0`` is the dead state (the empty
    subset of the source NFA), which lets callers test deadness without
    knowing which DFA a state id belongs to.  Produced by
    :meth:`repro.regex.nfa.BitsetNFA.determinize`; symbols are the ids of
    the :class:`~repro.automata.interning.LabelTable` the NFA was encoded
    against.
    """

    __slots__ = ("n_states", "n_symbols", "initial", "accepting_mask", "rows")

    #: id of the dead (empty-subset) state in every BitsetDFA
    DEAD = 0

    def __init__(
        self,
        n_states: int,
        n_symbols: int,
        initial: int,
        accepting_mask: int,
        rows: "list[array]",
    ):
        self.n_states = n_states
        self.n_symbols = n_symbols
        self.initial = initial
        #: bit *s* set iff state *s* is accepting (state 0 never is)
        self.accepting_mask = accepting_mask
        #: ``rows[state][symbol_id]`` — the successor state id
        self.rows = rows

    def step(self, state: int, symbol_id: int) -> int:
        return self.rows[state][symbol_id]

    def is_accepting(self, state: int) -> bool:
        return bool((self.accepting_mask >> state) & 1)

    def accepts(self, word: Sequence[int]) -> bool:
        state = self.initial
        for symbol_id in word:
            state = self.rows[state][symbol_id]
        return bool((self.accepting_mask >> state) & 1)

    # rows are array('q') objects — compact and directly picklable, so
    # compiled bitset artifacts ship to the disk cache unchanged
