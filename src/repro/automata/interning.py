"""Dense integer interning for labels and automaton states.

The bitset kernels (:mod:`repro.automata.bitset`,
:class:`repro.regex.nfa.BitsetNFA`) replace hashed Python objects by
machine integers: a :class:`LabelTable` maps an alphabet to dense ids
``0..n-1`` so transition tables become lists indexed by id and state
sets become bitmasks.

Tables are built *per artifact* from a deterministically sorted alphabet
— never from process-global interning order — so a compiled automaton
pickled into the disk cache decodes identically in any process: the ids
are a pure function of the alphabet content, which is already part of
the cache key.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class LabelTable:
    """A frozen alphabet with dense ids in sorted order.

    Sorting (by ``repr`` — labels may be strings or lifted tuples) makes
    the id assignment a function of the alphabet's *content*, so equal
    alphabets produce interchangeable tables across processes.
    """

    __slots__ = ("labels", "_ids")

    def __init__(self, labels: Iterable[Hashable]):
        self.labels: tuple[Hashable, ...] = tuple(sorted(set(labels), key=repr))
        self._ids: dict[Hashable, int] = {
            label: index for index, label in enumerate(self.labels)
        }

    def id_of(self, label: Hashable) -> int | None:
        """The dense id of *label*, or None for labels outside the table."""
        return self._ids.get(label)

    def label_of(self, ident: int) -> Hashable:
        return self.labels[ident]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    # LabelTable instances land in pickled disk-cache artifacts; only the
    # sorted alphabet travels, the id map is rebuilt on load.

    def __getstate__(self):
        return self.labels

    def __setstate__(self, state):
        self.labels = state
        self._ids = {label: index for index, label in enumerate(self.labels)}
