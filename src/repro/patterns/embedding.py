"""Pattern embedding over nested-relational DTDs: satisfiability in PTIME.

A nested-relational production ``l -> l1^m1 ... lk^mk`` names each child
label once and has no disjunction, so it never forbids a combination of
children: a node may carry one child of every label its production
names, and the witnesses of two requirements on the same child label
merge into one child.  This is the argument of Fact 5.1 (see
:mod:`repro.consistency.cons_nested`), and it makes satisfiability of a
``⇓`` pattern *label by label*: with no constants and no sibling order,
a pattern without Skolem terms is satisfiable iff it embeds at the root,
where ``p`` embeds at label ``L`` iff

* ``p``'s label is ``L`` or the wildcard, and ``p``'s attribute tuple
  (if any) has ``L``'s arity;
* every child item of ``p`` embeds at some child label of ``L``;
* every ``//q`` item of ``p`` embeds *strictly below* ``L``: at a child
  label of ``L``, or strictly below one.

Repeated variables cost nothing: giving every attribute the one value 0
satisfies every equality the pattern implies.

:class:`Embedder` computes both relations for every subpattern and every
label in one pass over the labels in reverse topological order, each
label's facts a bitmask over the pattern's subpatterns, in
``O(|π|·|D|)`` time and with no recursion over the DTD's depth.  The
witness merges one child per needed label into the minimal tree, with
every attribute 0 (:func:`~repro.automata.bitset.decorate`'s
convention), and is built without recursion too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.patterns.ast import WILDCARD, Descendant, Pattern
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode, tree_from_rows


@dataclass(slots=True)
class _Pass:
    """One pattern's embedding facts over one DTD.

    Bit ``i`` stands for the ``i``-th distinct subpattern (bit 0 is the
    pattern itself).  ``at[L]`` holds the subpatterns that embed at
    label ``L``, ``below[L]`` those that embed strictly below it;
    ``children[i]`` and ``descendants[i]`` are the bits subpattern ``i``
    needs at a child and strictly below.
    """

    at: dict[str, int]
    below: dict[str, int]
    children: list[int]
    descendants: list[int]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Embedder:
    """The embedding pass of one nested-relational DTD, memoized per pattern.

    One per DTD instance (:func:`embedder_for`), so the memo outlives a
    single decision: a revision that keeps its DTDs keeps their answers.
    The memo is cleared when it holds more than :data:`MEMO_LIMIT`
    label facts, which bounds a long edit stream that keeps introducing
    new patterns.
    """

    MEMO_LIMIT = 1 << 16

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        #: label -> {child: multiplicity} in production order (the DTD's
        #: own memo, shared: never mutated)
        self.rows = dtd.multiplicities()
        self._arities = {label: len(names) for label, names in dtd.attributes.items()}
        self._parents: dict[str, list[str]] = {label: [] for label in self.rows}
        for label, row in self.rows.items():
            for child in row:
                self._parents[child].append(label)
        # children first: a label is ready once its children are (the
        # DTD is acyclic, so every label gets ready)
        waiting = {label: len(row) for label, row in self.rows.items()}
        order = [label for label, count in waiting.items() if not count]
        for label in order:
            for parent in self._parents[label]:
                waiting[parent] -= 1
                if not waiting[parent]:
                    order.append(parent)
        self.order = tuple(order)
        self._memo: dict[Pattern, _Pass] = {}
        self._stored = 0

    def facts(self, pattern: Pattern) -> _Pass:
        """The embedding facts of *pattern* at every label (memoized)."""
        found = self._memo.get(pattern)
        if found is None:
            if self._stored > self.MEMO_LIMIT:
                self._memo.clear()
                self._stored = 0
            found = self._memo[pattern] = self._pass(pattern)
            self._stored += len(found.at) + 1
        return found

    def _pass(self, pattern: Pattern) -> _Pass:
        index: dict[Pattern, int] = {}
        for sub in pattern.subpatterns():
            if sub not in index:
                index[sub] = len(index)
        children = [0] * len(index)
        descendants = [0] * len(index)
        #: label (or WILDCARD) -> [(bit, arity or None, needs at a
        #: child, needs strictly below)]
        candidates: dict[str, list[tuple]] = {}
        for sub, bit in index.items():
            for item in sub.items:
                if isinstance(item, Descendant):
                    descendants[bit] |= 1 << index[item.pattern]
                else:
                    (element,) = item.elements  # no sibling order here
                    children[bit] |= 1 << index[element]
            arity = None if sub.vars is None else len(sub.vars)
            candidates.setdefault(sub.label, []).append(
                (bit, arity, children[bit], descendants[bit])
            )
        wildcards = candidates.pop(WILDCARD, None)
        if wildcards:
            # a wildcard subpattern is a candidate at every label
            candidates = {
                label: candidates.get(label, []) + wildcards
                for label in self.order
            }
        arities = self._arities
        # absent labels hold nothing: no subpattern embeds at or below them
        at: dict[str, int] = {}
        below: dict[str, int] = {}
        #: label -> [what embeds at some child, what embeds strictly
        #: below], pushed up by its children as each is done
        pushed: dict[str, list[int]] = {}
        for label in self.order:
            child_at, strictly_below = pushed.pop(label, (0, 0))
            mask = 0
            for bit, arity, needs_child, needs_below in candidates.get(label, ()):
                if (
                    (arity is None or arity == arities[label])
                    and not needs_child & ~child_at
                    and not needs_below & ~strictly_below
                ):
                    mask |= 1 << bit
            if not (mask or strictly_below):
                continue
            at[label] = mask
            below[label] = strictly_below
            for parent in self._parents[label]:
                row = pushed.get(parent)
                if row is None:
                    pushed[parent] = [mask, mask | strictly_below]
                else:
                    row[0] |= mask
                    row[1] |= mask | strictly_below
        return _Pass(at, below, children, descendants)

    def embeddable(self, pattern: Pattern, label: str) -> bool:
        """Does *pattern* embed at *label* (some tree rooted at a *label*
        node that conforms below it matches *pattern* at its root)?"""
        return bool(self.facts(pattern).at.get(label, 0) & 1)

    def witness(self, pattern: Pattern) -> TreeNode | None:
        """A tree conforming to the DTD that matches *pattern* at its
        root, or None when *pattern* does not embed at the root.

        The minimal tree, with one child merged in per label a
        requirement needs: every node carries the required children of
        its production plus the optional or starred ones some embedded
        subpattern needs, each once, and every attribute the value 0.
        """
        facts = self.facts(pattern)
        at, below = facts.at, facts.below
        root = self.dtd.root
        if not at.get(root, 0) & 1:
            return None
        rows: list[tuple] = []
        # each entry: a label and the subpatterns that must embed at it
        # and strictly below it
        stack: list[tuple[str, int, int]] = [(root, 1, 0)]
        while stack:
            label, here, under = stack.pop()
            child_needs = 0
            for bit in _bits(here):
                child_needs |= facts.children[bit]
                under |= facts.descendants[bit]
            row = self.rows[label]
            wanted: dict[str, list[int]] = {}
            for bit in _bits(child_needs):
                child = next(c for c in row if at.get(c, 0) >> bit & 1)
                wanted.setdefault(child, [0, 0])[0] |= 1 << bit
            for bit in _bits(under):
                child = next((c for c in row if at.get(c, 0) >> bit & 1), None)
                slot = 0
                if child is None:
                    child = next(c for c in row if below.get(c, 0) >> bit & 1)
                    slot = 1
                wanted.setdefault(child, [0, 0])[slot] |= 1 << bit
            kids = [
                (child, *wanted.get(child, (0, 0)))
                for child, multiplicity in row.items()
                if child in wanted or multiplicity in ("1", "+")
            ]
            rows.append((label, (0,) * self._arities[label], len(kids)))
            stack.extend(reversed(kids))
        return tree_from_rows(rows)


def embedder_for(dtd: DTD) -> Embedder:
    """The embedder of nested-relational *dtd*, built once and memoized
    on the instance."""
    return dtd._memo("_embedder", lambda: Embedder(dtd))
