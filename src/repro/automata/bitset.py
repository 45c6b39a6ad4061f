"""Bitset-encoded tree automata: the one production encoding.

Every state is one machine integer:

* **DTD conformance** — labels are interned through a
  :class:`~repro.automata.interning.LabelTable`; the production NFAs are
  compiled into :class:`~repro.regex.dfa.BitsetDFA` tables, so a
  horizontal step is one indexed load.  Vertical state:
  ``(label_id << 1) | ok``.  Horizontal state: ``(dfa_state << 1) | ok``
  (``-1`` = unknown-label sink); every ``BitsetDFA`` places its dead
  state at id 0, so deadness is a label-independent comparison.

* **pattern closure** — the ``sat`` / ``below`` subpattern sets become
  bit-fields of one int (``sat | below << n``); each horizontal sequence
  NFA occupies a ``k+1``-bit field of the horizontal int, and one
  child step is two mask-and-shift operations over *all* sequences at
  once (precomputed keep- and advance-masks).

Both automata speak the generic :class:`~repro.automata.duta.TreeAutomaton`
protocol, so :func:`~repro.automata.duta.reachable_states` and witness
extraction work on them unchanged; only the opaque state values differ.
Instances are built per alphabet with deterministically sorted label
tables and pickle cleanly into the disk cache tier.  The plain automata
they re-encode (``sat`` / ``below`` as frozensets, NFA subsets as
horizontal states) live in :mod:`repro.verification.automata`, the
differential reference the tests hold these to.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.automata.duta import TreeAutomaton
from repro.automata.interning import LabelTable
from repro.errors import XsmError
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode, tree_from_rows


class BitsetDTDAutomaton(TreeAutomaton):
    """Accepts exactly the label-trees conforming to *dtd* (values ignored).

    It is the ``conformance=`` component of every product search: besides
    the automaton interface it answers :meth:`state_ok`,
    :meth:`horizontal_dead` and :meth:`child_labels`.
    """

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._labels = dtd.labels
        self.table = LabelTable(self._labels)
        n_symbols = len(self.table)
        # one DFA per distinct production; labels with equal productions
        # (most often eps leaves) share it
        compiled: dict = {}
        self._dfas = {}
        for label, production in dtd.productions.items():
            dfa = compiled.get(production)
            if dfa is None:
                dfa = compiled[production] = (
                    dtd.production_nfa(label)
                    .to_bitset(self.table.id_of, n_symbols=n_symbols)
                    .determinize()
                )
            self._dfas[label] = dfa
        self._child_labels = {
            label: tuple(sorted(dtd.child_labels(label) & self._labels))
            for label in dtd.productions
        }
        #: the accepting vertical state (the root is always a DTD label)
        self._root_state = (self.table.id_of(dtd.root) << 1) | 1

    def labels(self) -> Iterable[str]:
        return self._labels

    def child_labels(self, label: str) -> tuple[str, ...]:
        """The labels a child of a conforming *label* node may carry.

        The production's alphabet within the automaton's labels; ``()``
        for labels without a production.  Stepping a *label* row with a
        child of any other label lands in a dead row, which is what lets
        :func:`~repro.automata.duta.reachable_states` skip those steps.
        """
        return self._child_labels.get(label, ())

    # -- DUTA interface (integer states) ------------------------------------

    def initial_horizontal(self, label: str):
        dfa = self._dfas.get(label)
        if dfa is None:
            return -1  # unknown label: sink
        return (dfa.initial << 1) | 1

    def step_horizontal(self, label: str, hstate, child_state):
        if hstate < 0:
            return -1
        return (
            self._dfas[label].rows[hstate >> 1][child_state >> 1] << 1
        ) | (hstate & child_state & 1)

    def horizontal_dead(self, hstate) -> bool:
        """No extension of this child sequence can yield a conforming node."""
        # dead DFA state is id 0 in every BitsetDFA by construction
        return hstate < 0 or not (hstate & 1) or (hstate >> 1) == 0

    def finish(self, label: str, hstate):
        label_id = self.table.id_of(label)
        if hstate < 0:
            return label_id << 1
        ok = (hstate & 1) and self._dfas[label].is_accepting(hstate >> 1)
        return (label_id << 1) | (1 if ok else 0)

    def is_accepting(self, state) -> bool:
        return state == self._root_state

    def state_ok(self, state) -> bool:
        """Does the vertical *state* record a conforming subtree?"""
        return bool(state & 1)


def decorate(
    dtd: DTD,
    witness: TreeNode,
    value_factory: Callable[[str, str], object] | None = None,
) -> TreeNode:
    """Attach attribute values to a bare witness tree, per *dtd*'s arities.

    ``value_factory(label, attribute_name)`` defaults to the constant 0
    (all data values equal).
    """
    if value_factory is None:
        value_factory = lambda label, attribute: 0
    return tree_from_rows([
        (
            node.label,
            tuple(
                value_factory(node.label, attribute)
                for attribute in dtd.attributes.get(node.label, ())
            ),
            len(node.children),
        )
        for node in witness.nodes()
    ])


class BitsetClosureAutomaton(TreeAutomaton):
    """The closure automaton of a set of tree patterns (Section 5).

    At every node it computes which subpatterns are satisfied
    *structurally* (labels, arities, axes; variables match any value) at
    the node, and which at the node or a proper descendant, so the root
    state gives every input pattern's trigger bit at once.  *labels* is
    the alphabet: every search pairs the automaton with a DTD automaton,
    which never realizes a label outside its DTD.  *arity_of* (the
    DTD's) gates the subpatterns that bind attributes.

    Vertical state: ``sat | (below << n)`` over ``n`` subpattern bits.
    Horizontal state: the concatenated sequence bit-fields with the
    running ``below`` union above them.  Sequence ``k`` elements long
    run a ``k+1``-state NFA: state ``i`` advances on a child satisfying
    element ``i``, and self-loops sit at 0, at ``k`` and where a ``->*``
    connector allows a gap.
    """

    def __init__(
        self,
        patterns: Iterable[Pattern],
        labels: Iterable,
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
        self._sub_index = {sub: bit for bit, sub in enumerate(self.subpatterns)}
        n = len(self.subpatterns)
        self._n = n
        self._sat_mask = (1 << n) - 1

        sequences: dict[Sequence, None] = {}
        for sub in self.subpatterns:
            for item in sub.items:
                if isinstance(item, Sequence):
                    sequences.setdefault(item, None)
        self.sequences: tuple[Sequence, ...] = tuple(sequences)

        # bit-field layout of the horizontal state: sequence j occupies
        # bits [offset_j, offset_j + k_j] (its NFA states 0..k_j)
        offset = 0
        init_h = 0
        keep_all = 0
        seq_offset: dict[Sequence, int] = {}
        #: per subpattern bit s: field positions that advance when a
        #: child whose sat-set contains s is read
        advance = [0] * n
        for sequence in self.sequences:
            k = len(sequence.elements)
            seq_offset[sequence] = offset
            init_h |= 1 << offset
            for i in range(k + 1):
                if i == 0 or i == k or (
                    0 < i < k and sequence.connectors[i - 1] == "following"
                ):
                    keep_all |= 1 << (offset + i)
            for i, element in enumerate(sequence.elements):
                advance[self._sub_index[element]] |= 1 << (offset + i)
            offset += k + 1
        self._S = offset
        self._fields_mask = (1 << offset) - 1
        self._init_h = init_h
        self._keep_all = keep_all
        self._advance = advance

        self._labels = frozenset(labels)

        #: per label: bitmask of subpatterns whose node formula holds
        self._formula_ok = self._formula_masks(self._labels)
        #: (bit, descendant requirement mask, sequence accept-bit mask)
        #: for every subpattern with list items
        self._checked = tuple(
            (
                self._sub_index[sub],
                self._desc_mask(sub),
                self._seq_accept_mask(sub, seq_offset),
            )
            for sub in self.subpatterns
            if sub.items
        )
        accept = 0
        for pattern in self.patterns:
            accept |= 1 << self._sub_index[pattern]
        self._accept_mask = accept

    # -- precomputation helpers ---------------------------------------------

    def _formula_masks(self, labels: Iterable) -> dict:
        return {label: self._formula_mask(label) for label in labels}

    def _formula_mask(self, label: str) -> int:
        mask = 0
        for bit, sub in enumerate(self.subpatterns):
            if sub.label != WILDCARD and sub.label != label:
                continue
            if sub.vars is not None and len(sub.vars) != self.arity_of(label):
                continue
            mask |= 1 << bit
        return mask

    def _desc_mask(self, sub: Pattern) -> int:
        mask = 0
        for item in sub.items:
            if isinstance(item, Descendant):
                mask |= 1 << self._sub_index[item.pattern]
        return mask

    def _seq_accept_mask(self, sub: Pattern, seq_offset: dict) -> int:
        mask = 0
        for item in sub.items:
            if isinstance(item, Sequence):
                mask |= 1 << (seq_offset[item] + len(item.elements))
        return mask

    # -- DUTA interface (integer states) ------------------------------------

    def labels(self) -> Iterable[str]:
        return self._labels

    def initial_horizontal(self, label: str):
        return self._init_h

    def step_horizontal(self, label: str, hstate, child_state):
        below = (hstate >> self._S) | (child_state >> self._n)
        child_sat = child_state & self._sat_mask
        advance = 0
        advance_rows = self._advance
        while child_sat:
            low = child_sat & -child_sat
            advance |= advance_rows[low.bit_length() - 1]
            child_sat ^= low
        fields = hstate & self._fields_mask
        fields = (fields & self._keep_all) | ((fields & advance) << 1)
        return fields | (below << self._S)

    def finish(self, label: str, hstate):
        below = hstate >> self._S
        sat = self._formula_ok[label]
        if sat:
            for bit, desc_mask, seq_mask in self._checked:
                if ((sat >> bit) & 1) and (
                    (desc_mask & ~below) or ((hstate & seq_mask) != seq_mask)
                ):
                    sat &= ~(1 << bit)
        return sat | ((sat | below) << self._n)

    def is_accepting(self, state) -> bool:
        """Default acceptance: every input pattern holds at the root."""
        return (state & self._accept_mask) == self._accept_mask

    # -- state inspection -----------------------------------------------------

    def satisfies(self, state, pattern: Pattern) -> bool:
        """Does the tree assigned *state* satisfy *pattern* at its root?"""
        bit = self._sub_index.get(pattern)
        if bit is None:
            return False
        return bool((state >> bit) & 1)

    def trigger_set(self, state) -> frozenset[int]:
        """Indices of input patterns satisfied at the root under *state*."""
        return frozenset(
            index
            for index, pattern in enumerate(self.patterns)
            if (state >> self._sub_index[pattern]) & 1
        )
