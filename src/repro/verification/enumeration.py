"""Exhaustive enumeration of the trees conforming to a DTD.

Used by the brute-force oracles: every value tuple over the domain, by
``itertools.product``, on every label skeleton of
:func:`repro.consistency.enumeration.enumerate_label_trees`.  The number
of conforming trees grows explosively with the size bound and the value
domain, so callers keep both tiny; that is the point of an oracle.  The
production bounded searches enumerate one tree per renaming orbit instead
(:func:`repro.consistency.enumeration.enumerate_reduced_trees`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.consistency.enumeration import enumerate_label_trees
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def _attribute_slots(dtd: DTD, node: TreeNode) -> int:
    return sum(dtd.arity(n.label) for n in node.nodes())


def _decorate(dtd: DTD, node: TreeNode, values: list) -> TreeNode:
    """Pop values off *values* in document order and attach them."""
    attrs = tuple(values.pop() for __ in range(dtd.arity(node.label)))
    children = tuple(_decorate(dtd, child, values) for child in node.children)
    return TreeNode(node.label, attrs, children)


def enumerate_trees(
    dtd: DTD, max_size: int, domain: Iterable[object] = (0, 1)
) -> Iterator[TreeNode]:
    """All conforming trees up to *max_size* with attribute values in *domain*."""
    domain = tuple(domain)
    for skeleton in enumerate_label_trees(dtd, max_size):
        slots = _attribute_slots(dtd, skeleton)
        if slots == 0:
            yield skeleton
            continue
        for assignment in itertools.product(domain, repeat=slots):
            yield _decorate(dtd, skeleton, list(reversed(assignment)))


def count_trees(dtd: DTD, max_size: int, domain: Iterable[object] = (0, 1)) -> int:
    """How many conforming trees exist up to *max_size* over *domain*."""
    return sum(1 for __ in enumerate_trees(dtd, max_size, domain))
