"""Unranked ordered trees with attribute data values.

A tree is represented by its root :class:`TreeNode`.  Nodes are immutable
(children are stored in a tuple) so they can be hashed structurally and used
as dictionary keys by the matching and automata machinery.  Build trees
bottom-up with the :func:`tree` convenience constructor::

    t = tree("r", children=[
            tree("a", attrs=(1,)),
            tree("a", attrs=(2,)),
        ])

The model follows Section 2 of the paper: each node has a label from the
element-type alphabet and an ordered tuple of attribute values; the sibling
order of children is significant (the ``->`` / ``->*`` axes navigate it).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator


class TreeNode:
    """One node of an unranked ordered tree; also stands for its subtree.

    Attributes
    ----------
    label:
        The element type (a string).
    attrs:
        Ordered tuple of attribute data values, matching the attribute
        order declared by the DTD for this element type.
    children:
        Tuple of child :class:`TreeNode` objects, in sibling order.
    """

    __slots__ = ("label", "attrs", "children", "_hash", "_engine")

    def __init__(
        self,
        label: str,
        attrs: Iterable[object] = (),
        children: Iterable["TreeNode"] = (),
    ):
        self.label = label
        self.attrs = tuple(attrs)
        self.children = children if type(children) is tuple else tuple(children)
        for child in self.children:
            if not isinstance(child, TreeNode):
                raise TypeError(f"child must be a TreeNode, got {child!r}")
        self._hash: int | None = None
        self._engine = None
        # lazily populated by repro.patterns.matching.engine_for: the
        # pattern-evaluation engine (index + memo tables) of this subtree
        # when it has been queried as a root; safe because trees are
        # immutable, excluded from equality/hashing above

    # -- structural identity ------------------------------------------------

    # Equality, hashing and rendering walk the tree with explicit stacks,
    # so a tree of any depth built in code compares, hashes and prints.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TreeNode):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            mine, theirs = pairs.pop()
            if mine is theirs:
                continue
            if (
                mine.label != theirs.label
                or mine.attrs != theirs.attrs
                or len(mine.children) != len(theirs.children)
            ):
                return False
            pairs += zip(mine.children, theirs.children)
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # the nodes not hashed yet, parents before children; hashed
            # in reverse, so every child's hash is there for its parent
            order = [self]
            for node in order:  # a breadth-first walk that extends itself
                if node.children:
                    order += [c for c in node.children if c._hash is None]
            for node in reversed(order):
                node._hash = hash(
                    (node.label, node.attrs, tuple([c._hash for c in node.children]))
                )
        return self._hash

    def __repr__(self) -> str:
        from repro.xmlmodel.parser import serialize_tree

        return f"TreeNode({serialize_tree(self)!r})"

    # -- pickling -------------------------------------------------------------
    # Trees cross process boundaries (engine.solve_many workers) and land
    # in the on-disk compilation cache; only the content travels — the
    # memoized hash and any attached pattern-evaluation engine are
    # per-process state and are rebuilt on demand after unpickling.  A
    # tree pickles as its flat row list (:func:`tree_from_rows`), so
    # pickle never recurses once per level.

    def __reduce__(self):
        return tree_from_rows, (_rows(self, lambda attrs: attrs),)

    # -- measurements ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for __ in self.nodes())

    @property
    def height(self) -> int:
        """Length of the longest root-to-leaf path (a leaf has height 1)."""
        deepest = 0
        stack = [(self, 1)]
        while stack:
            node, depth = stack.pop()
            deepest = max(deepest, depth)
            stack += [(child, depth + 1) for child in node.children]
        return deepest

    # -- navigation -----------------------------------------------------------

    def nodes(self) -> Iterator["TreeNode"]:
        """Yield every node of the subtree in document (pre-) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["TreeNode"]:
        """Yield every *proper* descendant of this node in document order."""
        for child in self.children:
            yield from child.nodes()

    def leaves(self) -> Iterator["TreeNode"]:
        """Yield the leaves of the subtree in document order."""
        for node in self.nodes():
            if not node.children:
                yield node

    # -- data values ------------------------------------------------------------

    def adom(self) -> frozenset:
        """The active domain: every data value on any attribute in the subtree."""
        values: set = set()
        for node in self.nodes():
            values.update(node.attrs)
        return frozenset(values)

    def labels(self) -> frozenset[str]:
        """The set of element types occurring in the subtree."""
        return frozenset(node.label for node in self.nodes())

    # -- functional updates -------------------------------------------------------

    def with_children(self, children: Iterable["TreeNode"]) -> "TreeNode":
        """Return a copy of this node with *children* replacing the old ones."""
        return TreeNode(self.label, self.attrs, children)

    def with_attrs(self, attrs: Iterable[object]) -> "TreeNode":
        """Return a copy of this node with *attrs* replacing the old tuple."""
        return TreeNode(self.label, attrs, self.children)

    def map_values(self, fn: Callable[[object], object]) -> "TreeNode":
        """Return a structurally identical tree with every data value mapped
        by *fn* (applied in document order)."""
        return tree_from_rows(
            _rows(self, lambda attrs: tuple(fn(v) for v in attrs))
        )


def _rows(root: TreeNode, attrs_of) -> list[tuple]:
    """``(label, attrs_of(attrs), child count)`` per node, in document order."""
    return [
        (node.label, attrs_of(node.attrs), len(node.children))
        for node in root.nodes()
    ]


def tree_from_rows(rows: list[tuple]) -> TreeNode:
    """The tree with one ``(label, attrs, child count)`` row per node in
    document order, built bottom-up without recursion: in reverse document
    order every node follows its subtree, so its children are the top
    entries of the stack, first child on top."""
    built: list[TreeNode] = []
    for label, attrs, count in reversed(rows):
        children = built[:-count - 1:-1] if count else ()
        if count:
            del built[-count:]
        built.append(TreeNode(label, attrs, children))
    return built[0]


def tree(
    label: str,
    attrs: Iterable[object] = (),
    children: Iterable[TreeNode] = (),
) -> TreeNode:
    """Convenience constructor for :class:`TreeNode` (keyword-friendly)."""
    return TreeNode(label, attrs, children)


def parent_map(root: TreeNode) -> dict[int, TreeNode]:
    """Map ``id(node) -> parent node`` for every non-root node under *root*.

    Nodes are keyed by identity because equal subtrees may occur at several
    positions; identity distinguishes the occurrences within one tree object.
    """
    parents: dict[int, TreeNode] = {}
    for node in root.nodes():
        for child in node.children:
            parents[id(child)] = node
    return parents
