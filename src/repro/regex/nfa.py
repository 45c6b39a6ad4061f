"""Epsilon-free NFAs via the Glushkov (position) construction.

The Glushkov automaton of a regex has one state per symbol occurrence plus a
fresh initial state, and no epsilon transitions, which keeps every later
construction (products, subset simulation inside tree automata) simple.

States are opaque hashable objects; the horizontal languages of tree automata
reuse this class with tree-automaton states as the alphabet.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.regex.ast import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)


class NFA:
    """A nondeterministic finite automaton without epsilon transitions.

    Attributes
    ----------
    states:
        Frozen set of states.
    initial:
        Frozen set of initial states.
    transitions:
        ``{state: {symbol: frozenset(successors)}}``; missing entries mean
        no transition.
    accepting:
        Frozen set of accepting states.
    """

    __slots__ = ("states", "initial", "transitions", "accepting")

    def __init__(
        self,
        states: Iterable[Hashable],
        initial: Iterable[Hashable],
        transitions: dict,
        accepting: Iterable[Hashable],
    ):
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.transitions = {
            state: {symbol: frozenset(targets) for symbol, targets in by_symbol.items()}
            for state, by_symbol in transitions.items()
        }
        self.accepting = frozenset(accepting)

    # -- core semantics ---------------------------------------------------

    def alphabet(self) -> frozenset:
        """All symbols labelling at least one transition."""
        symbols: set = set()
        for by_symbol in self.transitions.values():
            symbols.update(by_symbol)
        return frozenset(symbols)

    def step(
        self,
        states: frozenset,
        letter: Hashable,
        matches: Callable[[Hashable, Hashable], bool] | None = None,
    ) -> frozenset:
        """One parallel step on *letter* from the state set *states*.

        With *matches*, a transition labelled ``symbol`` fires on *letter*
        iff ``matches(symbol, letter)`` — this is how tree automata run
        horizontal NFAs over sets of child states.
        """
        successors: set = set()
        for state in states:
            by_symbol = self.transitions.get(state)
            if not by_symbol:
                continue
            if matches is None:
                targets = by_symbol.get(letter)
                if targets:
                    successors.update(targets)
            else:
                for symbol, targets in by_symbol.items():
                    if matches(symbol, letter):
                        successors.update(targets)
        return frozenset(successors)

    def accepts(self, word: Sequence[Hashable]) -> bool:
        """Subset simulation, each ``(state set, letter)`` step taken once per call."""
        current = self.initial
        steps: dict = {}
        for letter in word:
            if not current:
                return False
            key = (current, letter)
            successors = steps.get(key)
            if successors is None:
                successors = steps[key] = self.step(current, letter)
            current = successors
        return bool(current & self.accepting)

    def is_accepting_set(self, states: frozenset) -> bool:
        return bool(states & self.accepting)

    # -- language queries ----------------------------------------------------

    def is_empty(self) -> bool:
        """True iff no word is accepted (graph reachability)."""
        return self.shortest_word() is None

    def shortest_word(self) -> tuple | None:
        """A shortest accepted word, or None if the language is empty."""
        queue: deque[Hashable] = deque(self.initial)
        backlink: dict[Hashable, tuple[Hashable, Hashable] | None] = {
            state: None for state in self.initial
        }
        target = None
        for state in self.initial:
            if state in self.accepting:
                target = state
                break
        while target is None and queue:
            state = queue.popleft()
            for symbol, successors in self.transitions.get(state, {}).items():
                for successor in successors:
                    if successor in backlink:
                        continue
                    backlink[successor] = (state, symbol)
                    if successor in self.accepting:
                        target = successor
                        queue.clear()
                        break
                    queue.append(successor)
                if target is not None:
                    break
        if target is None:
            return None
        word: list[Hashable] = []
        state = target
        while backlink[state] is not None:
            state, symbol = backlink[state]
            word.append(symbol)
        word.reverse()
        return tuple(word)

    def words(self, max_length: int) -> Iterator[tuple]:
        """Yield all accepted words of length at most *max_length*.

        Breadth-first by length; intended for small horizontal languages
        (brute-force oracles and tests).
        """
        alphabet = sorted(self.alphabet(), key=repr)
        frontier: list[tuple[tuple, frozenset]] = [((), self.initial)]
        for __ in range(max_length + 1):
            next_frontier: list[tuple[tuple, frozenset]] = []
            for word, states in frontier:
                if states & self.accepting:
                    yield word
                for letter in alphabet:
                    successors = self.step(states, letter)
                    if successors:
                        next_frontier.append((word + (letter,), successors))
            frontier = next_frontier
            if not frontier:
                return

    # -- constructions ---------------------------------------------------------

    def product(self, other: "NFA") -> "NFA":
        """Intersection product (only pairs reachable from initial are kept)."""
        initial = {(a, b) for a in self.initial for b in other.initial}
        states = set(initial)
        transitions: dict = {}
        worklist = deque(initial)
        while worklist:
            a, b = worklist.popleft()
            by_symbol_a = self.transitions.get(a, {})
            by_symbol_b = other.transitions.get(b, {})
            joint: dict = {}
            for symbol in set(by_symbol_a) & set(by_symbol_b):
                targets = {
                    (ta, tb)
                    for ta in by_symbol_a[symbol]
                    for tb in by_symbol_b[symbol]
                }
                joint[symbol] = frozenset(targets)
                for target in targets:
                    if target not in states:
                        states.add(target)
                        worklist.append(target)
            if joint:
                transitions[(a, b)] = joint
        accepting = {
            (a, b) for (a, b) in states if a in self.accepting and b in other.accepting
        }
        return NFA(states, initial, transitions, accepting)

    def union_nfa(self, other: "NFA") -> "NFA":
        """Disjoint union (accepts the union of the two languages)."""
        def tag(which: int, state: Hashable) -> tuple:
            return (which, state)

        states = {tag(0, s) for s in self.states} | {tag(1, s) for s in other.states}
        initial = {tag(0, s) for s in self.initial} | {tag(1, s) for s in other.initial}
        accepting = {tag(0, s) for s in self.accepting} | {
            tag(1, s) for s in other.accepting
        }
        transitions: dict = {}
        for which, nfa in ((0, self), (1, other)):
            for state, by_symbol in nfa.transitions.items():
                transitions[tag(which, state)] = {
                    symbol: frozenset(tag(which, t) for t in targets)
                    for symbol, targets in by_symbol.items()
                }
        return NFA(states, initial, transitions, accepting)

    def to_bitset(
        self,
        symbol_ids: "dict | Callable[[Hashable], int | None]",
        n_symbols: int | None = None,
    ) -> "BitsetNFA":
        """Encode this NFA over dense symbol ids as a :class:`BitsetNFA`.

        *symbol_ids* maps alphabet symbols to dense ids (a dict or a
        ``LabelTable.id_of``-style callable); symbols mapping to None are
        dropped — they cannot occur in the encoded input.  *n_symbols*
        widens the symbol range beyond the NFA's own alphabet (symbols
        the NFA never mentions get all-dead rows), so the resulting
        automaton is total over a shared label table.  NFA states are
        assigned dense ids in sorted order, so the encoding depends only
        on the NFA's content.
        """
        id_of = symbol_ids.get if isinstance(symbol_ids, dict) else symbol_ids
        states = sorted(self.states, key=repr)
        state_id = {state: index for index, state in enumerate(states)}
        if n_symbols is None:
            n_symbols = 1 + max(
                (
                    ident
                    for ident in map(id_of, self.alphabet())
                    if ident is not None
                ),
                default=-1,
            )
        rows: dict[int, list[int]] = {}
        for state, by_symbol in self.transitions.items():
            source = state_id[state]
            for symbol, targets in by_symbol.items():
                ident = id_of(symbol)
                if ident is None:
                    continue
                mask = 0
                for target in targets:
                    mask |= 1 << state_id[target]
                rows.setdefault(ident, [0] * len(states))[source] |= mask
        initial = 0
        for state in self.initial:
            initial |= 1 << state_id[state]
        accepting = 0
        for state in self.accepting:
            accepting |= 1 << state_id[state]
        return BitsetNFA(len(states), n_symbols, initial, accepting, rows)

    @staticmethod
    def from_regex(expr: Regex) -> "NFA":
        """Glushkov (position) construction; epsilon-free, n+1 states."""
        positions: list[Hashable] = []

        def linearize(e: Regex) -> "_Lin":
            if isinstance(e, Empty):
                return _Lin(False, frozenset(), frozenset(), frozenset(), empty=True)
            if isinstance(e, Epsilon):
                return _Lin(True, frozenset(), frozenset(), frozenset())
            if isinstance(e, Symbol):
                position = len(positions) + 1
                positions.append(e.symbol)
                single = frozenset([position])
                return _Lin(False, single, single, frozenset())
            if isinstance(e, Concat):
                result = linearize(e.parts[0])
                for part in e.parts[1:]:
                    result = result.concat(linearize(part))
                return result
            if isinstance(e, Union):
                result = linearize(e.parts[0])
                for part in e.parts[1:]:
                    result = result.union(linearize(part))
                return result
            if isinstance(e, Star):
                return linearize(e.inner).star()
            if isinstance(e, Plus):
                return linearize(e.inner).plus()
            if isinstance(e, Optional):
                inner = linearize(e.inner)
                return _Lin(True, inner.first, inner.last, inner.follow,
                            empty=inner.empty)
            raise TypeError(f"unknown regex node: {e!r}")

        lin = linearize(expr)
        if lin.empty:
            return NFA([0], [0], {}, [])
        symbol_of = {i + 1: symbol for i, symbol in enumerate(positions)}
        transitions: dict = {}

        def add(source: int, position: int) -> None:
            row = transitions.setdefault(source, {})
            symbol = symbol_of[position]
            row[symbol] = row.get(symbol, frozenset()) | {position}

        for position in lin.first:
            add(0, position)
        for source, target in lin.follow:
            add(source, target)
        accepting = set(lin.last)
        if lin.nullable:
            accepting.add(0)
        states = {0} | set(symbol_of)
        return NFA(states, [0], transitions, accepting)


class BitsetNFA:
    """An NFA over dense symbol ids with bitmask state sets.

    A state *set* is one Python int (bit *s* = state *s* in the set), and
    ``rows[symbol_id][state]`` is the successor mask of one state on one
    symbol, so a parallel subset step is a few shifts and ORs — no
    hashing, no frozenset churn.  This is the horizontal-language
    encoding the bitset tree-automata kernel runs on.  ``rows`` holds
    only the symbols the NFA reads (every state dies on the others), so
    a wide label table costs nothing per unread symbol.
    """

    __slots__ = ("n_states", "n_symbols", "initial", "accepting", "rows")

    def __init__(
        self,
        n_states: int,
        n_symbols: int,
        initial: int,
        accepting: int,
        rows: dict[int, list[int]],
    ):
        self.n_states = n_states
        self.n_symbols = n_symbols
        self.initial = initial
        self.accepting = accepting
        self.rows = rows

    def step_mask(self, mask: int, symbol_id: int) -> int:
        """One parallel step on *symbol_id* from the state set *mask*."""
        row = self.rows.get(symbol_id)
        if row is None:
            return 0
        out = 0
        while mask:
            low = mask & -mask
            out |= row[low.bit_length() - 1]
            mask ^= low
        return out

    def accepts(self, word: Sequence[int]) -> bool:
        mask = self.initial
        for symbol_id in word:
            if not mask:
                return False
            mask = self.step_mask(mask, symbol_id)
        return bool(mask & self.accepting)

    def determinize(self) -> "BitsetDFA":
        """Subset construction over masks; returns a :class:`BitsetDFA`.

        The DFA is total over the dense symbol range, with the empty mask
        interned first so its dead state is always id 0.
        """
        from array import array

        from repro.regex.dfa import BitsetDFA

        subset_id: dict[int, int] = {0: 0}
        subsets: list[int] = [0]
        rows: list[array] = [array("q", [0] * self.n_symbols)]
        worklist: deque[int] = deque()

        def intern(mask: int) -> int:
            ident = subset_id.get(mask)
            if ident is None:
                ident = subset_id[mask] = len(subsets)
                subsets.append(mask)
                rows.append(array("q", [0] * self.n_symbols))
                worklist.append(mask)
            return ident

        # an unread symbol leads every subset to the dead state, which is
        # what a fresh row already holds
        read = sorted(self.rows)
        initial = intern(self.initial)
        while worklist:
            mask = worklist.popleft()
            row = rows[subset_id[mask]]
            for symbol_id in read:
                row[symbol_id] = intern(self.step_mask(mask, symbol_id))
        accepting_mask = 0
        for mask, ident in subset_id.items():
            if mask & self.accepting:
                accepting_mask |= 1 << ident
        return BitsetDFA(
            len(subsets), self.n_symbols, initial, accepting_mask, rows
        )


class _Lin:
    """Intermediate Glushkov data: nullable, first, last, follow sets."""

    __slots__ = ("nullable", "first", "last", "follow", "empty")

    def __init__(self, nullable, first, last, follow, empty=False):
        self.nullable = nullable
        self.first = first
        self.last = last
        self.follow = follow
        self.empty = empty

    def concat(self, other: "_Lin") -> "_Lin":
        if self.empty or other.empty:
            return _Lin(False, frozenset(), frozenset(), frozenset(), empty=True)
        follow = self.follow | other.follow | frozenset(
            (p, q) for p in self.last for q in other.first
        )
        first = self.first | (other.first if self.nullable else frozenset())
        last = other.last | (self.last if other.nullable else frozenset())
        return _Lin(self.nullable and other.nullable, first, last, follow)

    def union(self, other: "_Lin") -> "_Lin":
        if self.empty:
            return other
        if other.empty:
            return self
        return _Lin(
            self.nullable or other.nullable,
            self.first | other.first,
            self.last | other.last,
            self.follow | other.follow,
        )

    def star(self) -> "_Lin":
        if self.empty:
            return _Lin(True, frozenset(), frozenset(), frozenset())
        loop = frozenset((p, q) for p in self.last for q in self.first)
        return _Lin(True, self.first, self.last, self.follow | loop)

    def plus(self) -> "_Lin":
        if self.empty:
            return _Lin(False, frozenset(), frozenset(), frozenset(), empty=True)
        loop = frozenset((p, q) for p in self.last for q in self.first)
        return _Lin(self.nullable, self.first, self.last, self.follow | loop)
