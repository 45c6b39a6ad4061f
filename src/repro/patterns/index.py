"""Structural tree indexes backing the pattern-evaluation engine.

A :class:`TreeIndex` is built in one DFS pass over a tree and is the
read-only half of the query engine in :mod:`repro.patterns.matching`:

* **preorder intervals** — every node occurrence gets a preorder number
  and the (inclusive) end of its subtree's preorder span, so
  "descendant of ``v``" becomes an integer range test and descendant
  candidates can be enumerated by bisection instead of tree walks;
* **label → nodes** — document-ordered preorder positions per label,
  the access path for ``//l(...)`` subpatterns;
* **(label, attrs) → nodes** — the attribute-value index, the access
  path for fully-constant node formulae such as ``//a(5)``;
* **label bitsets** — per node, a bitmask of the labels occurring in
  its subtree (and strictly below it), so "this pattern mentions a
  label that does not occur under ``v``" fails in O(1) without
  visiting a single descendant.

Nodes are keyed by identity (``id``), like the matcher's memo tables:
equal subtrees may occur at several positions and trees may even share
subtree *objects* (the same ``TreeNode`` appearing under two parents).
Sharing is safe here because match relations are position-independent:
any occurrence of a shared node has, by construction, the identical
subtree, so the last-written interval enumerates exactly its descendant
objects.

:class:`EngineStats` carries the per-run counters surfaced by the
ablation benchmarks (nodes visited, join pairs considered, cache hits,
index-prune short-circuits).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from repro.xmlmodel.tree import TreeNode


@dataclass
class EngineStats:
    """Counters for one engine's lifetime (see the ablation benchmarks)."""

    nodes_visited: int = 0      # node-formula evaluations (memo misses)
    join_pairs: int = 0         # valuation pairs actually merged by joins
    cache_hits: int = 0         # memo-table hits
    index_prunes: int = 0       # evaluations cut off by a label-bitset test
    candidates_scanned: int = 0 # index candidates touched by // queries

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.as_dict().items())


class TreeIndex:
    """Precomputed access paths over one tree (see module docstring)."""

    __slots__ = (
        "root",
        "size",
        "node_at",
        "pre",
        "end",
        "by_label",
        "by_label_attrs",
        "label_bit",
        "mask_at_or_below",
        "mask_below",
    )

    def __init__(self, root: TreeNode):
        self.root = root
        #: document order: ``node_at[pre]`` is the node with preorder *pre*
        self.node_at: list[TreeNode] = []
        #: id(node) -> preorder number (last occurrence for shared nodes)
        self.pre: dict[int, int] = {}
        #: id(node) -> last preorder number inside the node's subtree
        self.end: dict[int, int] = {}
        #: label -> sorted preorder numbers of nodes with that label
        self.by_label: dict[str, list[int]] = {}
        #: (label, attrs) -> sorted preorder numbers (attribute-value index)
        self.by_label_attrs: dict[tuple[str, tuple], list[int]] = {}
        #: label -> bit position in the subtree bitmasks
        self.label_bit: dict[str, int] = {}
        #: id(node) -> bitmask of labels at the node or below it
        self.mask_at_or_below: dict[int, int] = {}
        #: id(node) -> bitmask of labels strictly below the node
        self.mask_below: dict[int, int] = {}
        self._build(root)
        self.size = len(self.node_at)

    def _build(self, root: TreeNode) -> None:
        counter = 0
        stack: list[tuple[TreeNode, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                below = 0
                for child in node.children:
                    below |= self.mask_at_or_below[id(child)]
                self.mask_below[id(node)] = below
                self.mask_at_or_below[id(node)] = below | (
                    1 << self.label_bit[node.label]
                )
                self.end[id(node)] = counter - 1
                continue
            bit = self.label_bit.setdefault(node.label, len(self.label_bit))
            self.pre[id(node)] = counter
            self.node_at.append(node)
            self.by_label.setdefault(node.label, []).append(counter)
            self.by_label_attrs.setdefault((node.label, node.attrs), []).append(
                counter
            )
            counter += 1
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    # -- label bitsets --------------------------------------------------------

    def labels_mask(self, labels: Iterable[str]) -> int | None:
        """Bitmask of *labels*, or None when some label is absent from the tree.

        None means "no node of this tree can be involved in a match": the
        caller may fail the whole query without touching the tree.
        """
        mask = 0
        for label in labels:
            bit = self.label_bit.get(label)
            if bit is None:
                return None
            mask |= 1 << bit
        return mask

    def subtree_covers(self, node: TreeNode, mask: int) -> bool:
        """Do all labels of *mask* occur at *node* or below it?"""
        return mask & ~self.mask_at_or_below[id(node)] == 0

    def below_covers(self, node: TreeNode, mask: int) -> bool:
        """Do all labels of *mask* occur strictly below *node*?"""
        return mask & ~self.mask_below[id(node)] == 0

    # -- candidate enumeration ------------------------------------------------

    def _positions(
        self, positions: list[int], first: int, last: int
    ) -> Iterator[TreeNode]:
        lo = bisect_left(positions, first)
        hi = bisect_right(positions, last)
        node_at = self.node_at
        for i in range(lo, hi):
            yield node_at[positions[i]]

    def candidates(
        self,
        node: TreeNode,
        label: str | None = None,
        attrs: tuple | None = None,
        strict: bool = True,
    ) -> Iterator[TreeNode]:
        """Nodes below *node* that could match a node formula, document order.

        *label* None means wildcard (every descendant); *attrs* restricts
        to nodes with exactly that attribute tuple (the access path for
        fully-constant formulae).  With ``strict=False`` the node itself
        is included.
        """
        first = self.pre[id(node)] + (1 if strict else 0)
        last = self.end[id(node)]
        if first > last:
            return
        if label is None:
            for p in range(first, last + 1):
                yield self.node_at[p]
        elif attrs is not None:
            positions = self.by_label_attrs.get((label, attrs))
            if positions:
                yield from self._positions(positions, first, last)
        else:
            positions = self.by_label.get(label)
            if positions:
                yield from self._positions(positions, first, last)

    def descendant_count(self, node: TreeNode) -> int:
        """Number of proper descendants of *node* (O(1) from the intervals)."""
        return self.end[id(node)] - self.pre[id(node)]


class CompactTreeIndex:
    """Array-backed structural index: the bitset kernel's tree layout.

    The same access paths as :class:`TreeIndex`, but nodes are *preorder
    positions* (dense ints) instead of ``TreeNode`` objects, and every
    per-node table is a contiguous array indexed by position:

    * ``label_id[p]`` / ``attrs[p]`` — interned label and attribute tuple;
    * ``end[p]`` — inclusive end of the subtree's preorder span, so
      "descendant of p" is the range ``p < q <= end[p]``;
    * ``parent[p]`` / ``first_child[p]`` / ``next_sibling[p]`` — the
      navigation arrays (``-1`` = absent), giving child enumeration
      without touching node objects;
    * ``by_label`` — document-ordered position arrays per label;
    * ``mask_at_or_below[p]`` / ``mask_below[p]`` — subtree label
      bitmasks, same pruning contract as :class:`TreeIndex`.

    Built in one DFS plus one reverse sweep (children fold into parents
    in reverse preorder, where every descendant has already finished).
    The attribute-value access path is materialized lazily per label the
    first time a fully-constant formula queries it.
    """

    __slots__ = (
        "root",
        "size",
        "label_id",
        "attrs",
        "end",
        "parent",
        "first_child",
        "next_sibling",
        "by_label",
        "label_bit",
        "mask_at_or_below",
        "mask_below",
        "_attr_index",
    )

    def __init__(self, root: TreeNode):
        self.root = root
        label_ids: list[int] = []
        attrs: list[tuple] = []
        parents: list[int] = []
        by_label: dict[str, list[int]] = {}
        label_bit: dict[str, int] = {}
        stack: list[tuple[TreeNode, int]] = [(root, -1)]
        while stack:
            node, parent_pos = stack.pop()
            pos = len(label_ids)
            bit = label_bit.setdefault(node.label, len(label_bit))
            label_ids.append(bit)
            attrs.append(node.attrs)
            parents.append(parent_pos)
            by_label.setdefault(node.label, []).append(pos)
            for child in reversed(node.children):
                stack.append((child, pos))
        n = len(label_ids)
        self.size = n
        self.label_id = array("i", label_ids)
        self.attrs = attrs
        self.parent = array("i", parents)
        self.label_bit = label_bit
        self.by_label = {label: array("i", ps) for label, ps in by_label.items()}
        end = array("i", range(n))
        at_or_below = [1 << bit for bit in label_ids]
        below = [0] * n
        for pos in range(n - 1, 0, -1):
            parent_pos = parents[pos]
            if end[pos] > end[parent_pos]:
                end[parent_pos] = end[pos]
            at_or_below[parent_pos] |= at_or_below[pos]
            below[parent_pos] |= at_or_below[pos]
        self.end = end
        self.mask_at_or_below = at_or_below
        self.mask_below = below
        first_child = array("i", [-1]) * n if n else array("i")
        next_sibling = array("i", [-1]) * n if n else array("i")
        for pos in range(n):
            if end[pos] > pos:
                first_child[pos] = pos + 1
            parent_pos = parents[pos]
            if parent_pos >= 0:
                following = end[pos] + 1
                if following <= end[parent_pos]:
                    next_sibling[pos] = following
        self.first_child = first_child
        self.next_sibling = next_sibling
        #: label -> {attrs tuple -> positions}, built on first use
        self._attr_index: dict[str, dict[tuple, list[int]]] = {}

    # -- label bitsets --------------------------------------------------------

    def labels_mask(self, labels: Iterable[str]) -> int | None:
        """Bitmask of *labels*, or None when some label is absent."""
        mask = 0
        for label in labels:
            bit = self.label_bit.get(label)
            if bit is None:
                return None
            mask |= 1 << bit
        return mask

    def subtree_covers(self, pos: int, mask: int) -> bool:
        """Do all labels of *mask* occur at position *pos* or below it?"""
        return mask & ~self.mask_at_or_below[pos] == 0

    def below_covers(self, pos: int, mask: int) -> bool:
        """Do all labels of *mask* occur strictly below position *pos*?"""
        return mask & ~self.mask_below[pos] == 0

    # -- navigation -----------------------------------------------------------

    def children(self, pos: int) -> Iterator[int]:
        """Child positions of *pos* in sibling order."""
        child = self.first_child[pos]
        while child >= 0:
            yield child
            child = self.next_sibling[child]

    def descendant_count(self, pos: int) -> int:
        return self.end[pos] - pos

    # -- candidate enumeration ------------------------------------------------

    def attr_positions(self, label: str, attrs: tuple) -> list[int]:
        """Document-ordered positions of ``label``-nodes with exactly *attrs*."""
        per_label = self._attr_index.get(label)
        if per_label is None:
            per_label = self._attr_index[label] = {}
            all_attrs = self.attrs
            for pos in self.by_label.get(label, ()):
                per_label.setdefault(all_attrs[pos], []).append(pos)
        return per_label.get(attrs, [])

    def candidates(
        self,
        pos: int,
        label: str | None = None,
        attrs: tuple | None = None,
        strict: bool = True,
    ) -> Iterator[int]:
        """Positions below *pos* that could match a node formula.

        Same contract as :meth:`TreeIndex.candidates`, over positions.
        """
        first = pos + (1 if strict else 0)
        last = self.end[pos]
        if first > last:
            return
        if label is None:
            yield from range(first, last + 1)
            return
        if attrs is not None:
            positions: "Iterable[int]" = self.attr_positions(label, attrs)
        else:
            positions = self.by_label.get(label, ())
        lo = bisect_left(positions, first)
        hi = bisect_right(positions, last)
        for i in range(lo, hi):
            yield positions[i]

