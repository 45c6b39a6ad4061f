"""Conforming trees up to renaming of data values, for the bounded searches.

The mappings' comparisons are ``=``/``≠`` and constants, so a mapping
cannot tell apart two trees that differ only by a bijective renaming of
the values outside a *fixed* set (the mapping's constants, and for a
target side the source's values too): membership, and so every
consistency question, is invariant under such renamings (DESIGN.md,
"Sources up to renaming").  :func:`enumerate_reduced_trees` therefore
yields one tree per renaming orbit: each label skeleton's attribute slots,
in document order, take fixed values freely while the free values enter
as a restricted-growth string — the first free value used is the first
free value of the domain, the next new one the second, and so on.

The order is the brute-force order of the reference oracles'
``enumerate_trees`` (skeletons by size from :func:`enumerate_label_trees`,
then value tuples lexicographically by domain position) restricted to
those representatives, and each representative is the lexicographically
least member of its orbit.  So for any renaming-closed property the first
tree found here is the first tree the brute-force enumeration finds.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode, tree_from_rows


class LabelTreeEnumerator:
    """Enumerates label-only trees (no attribute values) of bounded size,
    memoized per ``(label, size)``; :func:`enumerate_label_trees` drives it
    size by size from the root."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._memo: dict[tuple[str, int], tuple[TreeNode, ...]] = {}

    def trees_of(self, label: str, size: int) -> tuple[TreeNode, ...]:
        """All subtrees rooted at *label* with exactly *size* nodes."""
        if size < 1:
            return ()
        key = (label, size)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result: list[TreeNode] = []
        nfa = self.dtd.production_nfa(label)
        for word in nfa.words(size - 1):
            if not word:
                if size == 1:
                    result.append(TreeNode(label))
                continue
            if len(word) > size - 1:
                continue
            for sizes in _compositions(size - 1, len(word)):
                child_options = [
                    self.trees_of(child_label, child_size)
                    for child_label, child_size in zip(word, sizes)
                ]
                for children in itertools.product(*child_options):
                    result.append(TreeNode(label, (), children))
        frozen = tuple(result)
        self._memo[key] = frozen
        return frozen


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write *total* as an ordered sum of *parts* positive ints."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_label_trees(dtd: DTD, max_size: int) -> Iterator[TreeNode]:
    """All label-trees conforming to *dtd* with at most *max_size* nodes."""
    enumerator = LabelTreeEnumerator(dtd)
    for size in range(1, max_size + 1):
        yield from enumerator.trees_of(dtd.root, size)


def reduced_assignments(
    domain: tuple, fixed: frozenset, slots: int
) -> Iterator[tuple]:
    """Value tuples of length *slots* over *domain*, one per renaming orbit.

    Values of *domain* in *fixed* may appear anywhere; the others appear
    in restricted-growth order.  Tuples come in lexicographic order of
    domain positions.
    """
    free = [value for value in domain if value not in fixed]
    position = {value: index for index, value in enumerate(domain)}
    # choices[u]: the values open to a slot once u free values are in use,
    # in domain order, paired with the free-value count after choosing
    choices = []
    for used in range(len(free) + 1):
        opened = set(free[: used + 1])
        row = [
            (value, used + (value not in fixed and value not in free[:used]))
            for value in domain
            if value in fixed or value in opened
        ]
        row.sort(key=lambda pair: position[pair[0]])
        choices.append(row)
    if slots == 0:
        yield ()
        return
    prefix: list = []
    # one iterator per slot being chosen: the stack is never deeper than
    # the slot count, and the prefix holds the values above the top one
    stack = [iter(choices[0])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        value, used = step
        del prefix[len(stack) - 1:]
        prefix.append(value)
        if len(prefix) == slots:
            yield tuple(prefix)
        else:
            stack.append(iter(choices[used]))


def _decorator(dtd: DTD, skeleton: TreeNode):
    """``(slots, build)``: *skeleton*'s attribute slot count, and a function
    attaching a value tuple to those slots in document order."""
    rows = []
    slots = 0
    for node in skeleton.nodes():
        arity = dtd.arity(node.label)
        rows.append((node.label, slots, slots + arity, len(node.children)))
        slots += arity

    def build(values: tuple) -> TreeNode:
        return tree_from_rows(
            [(label, values[start:stop], count) for label, start, stop, count in rows]
        )

    return slots, build


def enumerate_reduced_trees(
    dtd: DTD,
    max_size: int,
    domain: Iterable[object],
    fixed: Iterable[object] = (),
) -> Iterator[TreeNode]:
    """Conforming trees up to *max_size* over *domain*, one per orbit of
    the renamings that fix *fixed* (module docstring)."""
    domain = tuple(domain)
    fixed = frozenset(fixed)
    for skeleton in enumerate_label_trees(dtd, max_size):
        slots, build = _decorator(dtd, skeleton)
        if slots == 0:
            yield skeleton
            continue
        for values in reduced_assignments(domain, fixed, slots):
            yield build(values)
