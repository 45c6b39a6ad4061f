"""DTDs: regular-expression productions plus attribute assignments.

Following Section 2 of the paper, a DTD over an alphabet of element types
with a distinguished root symbol consists of

* a mapping from element types to regular expressions over the other
  element types (the productions), and
* a mapping assigning each element type an ordered tuple of attributes.

This module provides conformance checking, the *nested-relational* and
*strictly nested-relational* classifications used throughout the paper's
tractability results, satisfiability (does any tree conform?), and
construction of minimal conforming trees.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from typing import Callable, Iterable

from repro.errors import ConformanceError, NotInClassError, ParseError, XsmError
from repro.regex.ast import (
    Concat,
    Empty,
    Epsilon,
    EPSILON,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)
from repro.regex.nfa import NFA
from repro.regex.parser import parse_regex
from repro.xmlmodel.tree import TreeNode, tree_from_rows

#: Multiplicity markers for nested-relational productions.
MULTIPLICITIES = ("1", "?", "*", "+")


class DTD:
    """A DTD: root symbol, productions and attribute lists.

    Parameters
    ----------
    root:
        The distinguished root element type.
    productions:
        ``{label: Regex or production string}``.  Labels mentioned in some
        production but lacking one of their own implicitly get the empty
        production (no children), matching the paper's convention
        ("element types *course* and *student* have no subelements").
    attributes:
        ``{label: tuple of attribute names}``; order matters, since
        patterns bind attribute variables positionally.
    """

    def __init__(
        self,
        root: str,
        productions: dict[str, Regex | str],
        attributes: dict[str, Iterable[str]] | None = None,
    ):
        self.root = root
        parsed: dict[str, Regex] = {}
        for label, production in productions.items():
            if isinstance(production, str):
                production = parse_regex(production)
            parsed[label] = production
        symbols = {label: production.symbols() for label, production in parsed.items()}
        labels = set(parsed)
        labels.add(root)
        for mentioned in symbols.values():
            labels.update(mentioned)
        for label in labels:
            parsed.setdefault(label, EPSILON)
            symbols.setdefault(label, frozenset())
        for label, mentioned in symbols.items():
            if root in mentioned:
                raise XsmError(
                    f"the root symbol {root!r} may not occur in productions "
                    f"(it appears in the production of {label!r})"
                )
        self.productions: dict[str, Regex] = parsed
        self._child_labels: dict[str, frozenset[str]] = symbols
        self.attributes: dict[str, tuple[str, ...]] = {
            label: tuple(attributes.get(label, ())) if attributes else ()
            for label in parsed
        }
        if attributes:
            unknown = set(attributes) - set(parsed)
            if unknown:
                raise XsmError(f"attributes declared for unknown labels: {sorted(unknown)}")
        self._nfas: dict[Regex, NFA] = {}
        self._label_nfas: dict[str, NFA] = {}

    # -- basic views --------------------------------------------------------

    @property
    def labels(self) -> frozenset[str]:
        """All element types of the DTD."""
        return frozenset(self.productions)

    def arity(self, label: str) -> int:
        """Number of attributes of *label* (0 for unknown labels)."""
        return len(self.attributes.get(label, ()))

    def child_labels(self, label: str) -> frozenset[str]:
        """The element types the production of *label* mentions (computed
        once per production)."""
        return self._child_labels[label]

    def production_nfa(self, label: str) -> NFA:
        """The Glushkov NFA of the production of *label*.

        Compiled once per distinct production: labels whose productions
        are equal (most often ``eps`` leaves) share one NFA.  The per-label
        memo in front keeps the hot lookup to one string-keyed probe.
        """
        nfa = self._label_nfas.get(label)
        if nfa is None:
            production = self.productions[label]
            nfa = self._nfas.get(production)
            if nfa is None:
                nfa = self._nfas[production] = NFA.from_regex(production)
            self._label_nfas[label] = nfa
        return nfa

    def __repr__(self) -> str:
        rows = []
        for label in sorted(self.productions, key=lambda l: (l != self.root, l)):
            attrs = self.attributes[label]
            head = label if not attrs else f"{label}({', '.join(attrs)})"
            rows.append(f"{head} -> {self.productions[label]}")
        return "DTD<" + "; ".join(rows) + ">"

    # -- per-instance memos ----------------------------------------------------
    # A DTD never changes after construction, so facts derived from it are
    # computed once per instance.  Other layers keep their own memos here
    # too (content key, digests, the nested-relational embedder); a
    # revision that leaves a DTD section unchanged reuses the instance,
    # and with it every memo below.

    #: Lazily set memo attributes, shed on pickling.
    _MEMOS = (
        "_content_key",
        "_digest",
        "_recursive",
        "_nr_rows",
        "_nested_relational",
        "_starred",
        "_costs",
        "_multiplicities",
        "_minimal_tree",
        "_embedder",
    )

    def _memo(self, name: str, compute: Callable[[], object]):
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = compute()
        return value

    # -- pickling --------------------------------------------------------------
    # DTDs travel to engine.solve_many workers and into the on-disk
    # compilation cache; the compiled Glushkov NFAs and the memos above
    # are per-process accelerators, rebuilt on demand.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_nfas"] = {}
        state["_label_nfas"] = {}
        for name in self._MEMOS:
            state.pop(name, None)
        return state

    # -- conformance -----------------------------------------------------------

    def check_conformance(self, node: TreeNode) -> None:
        """Raise :class:`ConformanceError` at the first non-conforming node in
        document order; each distinct (label, arity, child word) is decided once."""
        if node.label != self.root:
            raise ConformanceError(
                f"root is labelled {node.label!r}, expected {self.root!r}"
            )
        accepted: set[tuple[str, int, tuple[str, ...]]] = set()
        stack = [node]
        while stack:
            inner = stack.pop()
            children, word = inner.children, ()
            if children:
                word = tuple([child.label for child in children])
                stack.extend(reversed(children))
            key = (inner.label, len(inner.attrs), word)
            if key in accepted:
                continue
            if inner.label not in self.productions:
                raise ConformanceError(f"unknown element type {inner.label!r}")
            expected_arity = self.arity(inner.label)
            if len(inner.attrs) != expected_arity:
                raise ConformanceError(
                    f"{inner.label!r} carries {len(inner.attrs)} attribute values, "
                    f"DTD declares {expected_arity}"
                )
            if not self.production_nfa(inner.label).accepts(word):
                raise ConformanceError(
                    f"children of {inner.label!r} read {word!r}, which does not "
                    f"match its production {self.productions[inner.label]}"
                )
            accepted.add(key)

    def conforms(self, node: TreeNode) -> bool:
        """True iff the tree conforms to this DTD (``T |= D``)."""
        try:
            self.check_conformance(node)
        except ConformanceError:
            return False
        return True

    # -- classifications -------------------------------------------------------

    def is_recursive(self) -> bool:
        """True iff the label dependency graph has a cycle (memoized)."""
        return self._memo("_recursive", self._compute_recursive)

    def _compute_recursive(self) -> bool:
        # Kahn's algorithm: a label on or below a cycle never runs out of
        # unvisited parents.  No recursion, whatever the DTD's depth.
        indegree = dict.fromkeys(self._child_labels, 0)
        for children in self._child_labels.values():
            for child in children:
                indegree[child] += 1
        ready = [label for label, count in indegree.items() if not count]
        visited = 0
        while ready:
            visited += 1
            for child in self._child_labels[ready.pop()]:
                indegree[child] -= 1
                if not indegree[child]:
                    ready.append(child)
        return visited < len(indegree)

    def nested_relational_children(self, label: str) -> list[tuple[str, str]]:
        """Decompose a nested-relational production into (child, multiplicity).

        Multiplicities are ``"1"``, ``"?"``, ``"*"`` or ``"+"``.  Raises
        :class:`NotInClassError` if the production is not of the
        nested-relational shape (distinct labels, one multiplicity each).
        Rows are memoized per label.
        """
        rows = self._memo("_nr_rows", dict)
        row = rows.get(label)
        if row is None:
            row = rows[label] = self._nested_relational_row(label)
        return list(row)

    def _nested_relational_row(self, label: str) -> tuple[tuple[str, str], ...]:
        production = self.productions[label]
        if isinstance(production, Epsilon):
            return ()
        parts = production.parts if isinstance(production, Concat) else (production,)
        children: list[tuple[str, str]] = []
        seen: set[str] = set()
        for part in parts:
            if isinstance(part, Symbol):
                child, multiplicity = part.symbol, "1"
            elif isinstance(part, Optional) and isinstance(part.inner, Symbol):
                child, multiplicity = part.inner.symbol, "?"
            elif isinstance(part, Star) and isinstance(part.inner, Symbol):
                child, multiplicity = part.inner.symbol, "*"
            elif isinstance(part, Plus) and isinstance(part.inner, Symbol):
                child, multiplicity = part.inner.symbol, "+"
            else:
                raise NotInClassError(
                    f"production of {label!r} is not nested-relational: {production}"
                )
            if child in seen:
                raise NotInClassError(
                    f"production of {label!r} repeats child {child!r}"
                )
            seen.add(child)
            children.append((child, multiplicity))
        return tuple(children)

    def is_nested_relational(self) -> bool:
        """Nested-relational: productions ``l -> l1^m1 ... lk^mk`` and no
        recursion (memoized)."""
        return self._memo("_nested_relational", self._compute_nested_relational)

    def _compute_nested_relational(self) -> bool:
        if self.is_recursive():
            return False
        for label in self.productions:
            try:
                self.nested_relational_children(label)
            except NotInClassError:
                return False
        return True

    def multiplicities(self) -> dict[str, dict[str, str]]:
        """``{label: {child: multiplicity}}`` of a nested-relational DTD.

        Memoized and shared: callers must not mutate it.  Raises
        :class:`NotInClassError` outside the nested-relational class.
        """
        if not self.is_nested_relational():
            raise NotInClassError("DTD is not nested-relational")
        return self._memo(
            "_multiplicities",
            lambda: {
                label: dict(self.nested_relational_children(label))
                for label in self.productions
            },
        )

    def starred_labels(self) -> frozenset[str]:
        """Element types occurring under the scope of ``*`` or ``+`` somewhere."""
        return self._memo("_starred", self._compute_starred)

    def _compute_starred(self) -> frozenset[str]:
        starred: set[str] = set()

        def walk(expr: Regex, under_star: bool) -> None:
            if isinstance(expr, Symbol):
                if under_star:
                    starred.add(expr.symbol)
            elif isinstance(expr, (Concat, Union)):
                for part in expr.parts:
                    walk(part, under_star)
            elif isinstance(expr, (Star, Plus)):
                walk(expr.inner, True)
            elif isinstance(expr, Optional):
                walk(expr.inner, under_star)

        for production in self.productions.values():
            walk(production, False)
        return frozenset(starred)

    def is_strictly_nested_relational(self) -> bool:
        """Nested-relational and only starred element types carry attributes."""
        if not self.is_nested_relational():
            return False
        starred = self.starred_labels()
        return all(
            not attrs or label in starred
            for label, attrs in self.attributes.items()
        )

    # -- satisfiability and minimal trees ----------------------------------------

    def label_costs(self) -> dict[str, float]:
        """Minimal subtree size per label (``inf`` if no finite tree exists).

        Computed as the least fixpoint of ``cost(l) = 1 + min over words w
        in L(P(l)) of sum(cost(a) for a in w)`` — a Dijkstra-style
        saturation that also works for recursive DTDs.  Memoized on the
        instance; each call returns a fresh copy.
        """
        return dict(self._memo("_costs", self._compute_label_costs))

    def _compute_label_costs(self) -> dict[str, float]:
        # chaotic iteration: a label is re-evaluated only when the cost of
        # a symbol of its production dropped; leaves go first, so most
        # labels are evaluated once
        costs: dict[str, float] = {label: float("inf") for label in self.productions}
        readers: dict[str, set[str]] = {label: set() for label in self.productions}
        for label, mentioned in self._child_labels.items():
            for symbol in mentioned:
                readers[symbol].add(label)
        pending = deque(reversed(self._breadth_first_labels()))
        queued = set(pending)
        while pending:
            label = pending.popleft()
            queued.discard(label)
            word = self._cheapest_word(label, costs)
            if word is None:
                continue
            new_cost = 1 + sum(costs[symbol] for symbol in word)
            if new_cost < costs[label]:
                costs[label] = new_cost
                for reader in readers[label] - queued:
                    pending.append(reader)
                    queued.add(reader)
        return costs

    def _breadth_first_labels(self) -> list[str]:
        """Every label: those reachable from the root in breadth-first
        order, then the unreachable ones."""
        order = [self.root]
        seen = {self.root}
        for label in order:
            for symbol in sorted(self._child_labels[label]):
                if symbol not in seen:
                    seen.add(symbol)
                    order.append(symbol)
        return order + [label for label in self.productions if label not in seen]

    def _cheapest_word(
        self, label: str, costs: dict[str, float], embed: tuple[str, ...] = ()
    ) -> tuple[str, ...] | None:
        """Cheapest word of the production of *label* under symbol *costs*.

        Dijkstra over the production NFA with edge weight ``costs[symbol]``;
        symbols of infinite cost are unusable.  Returns None when no
        accepting path uses only finite-cost symbols.

        With *embed*, the word must contain *embed* as a subsequence; those
        occurrences cost nothing (they stand for subtrees the caller
        already has), so the result is the cheapest way to complete
        *embed* into a word of the production.
        """
        nfa = self.production_nfa(label)
        infinite = float("inf")
        best: dict = {}
        counter = 0
        heap: list[tuple[float, int, object, int, tuple[str, ...]]] = []
        for state in nfa.initial:
            heapq.heappush(heap, (0.0, counter, state, 0, ()))
            counter += 1
        while heap:
            cost, __, state, placed, word = heapq.heappop(heap)
            key = (state, placed)
            if key in best and best[key] <= cost:
                continue
            best[key] = cost
            if placed == len(embed) and state in nfa.accepting:
                return word
            for symbol, targets in nfa.transitions.get(state, {}).items():
                moves = []
                if placed < len(embed) and symbol == embed[placed]:
                    moves.append((0.0, placed + 1))
                weight = costs.get(symbol, infinite)
                if weight != infinite:
                    moves.append((weight, placed))
                for weight, after in moves:
                    for target in targets:
                        seen = best.get((target, after))
                        if seen is None or seen > cost + weight:
                            heapq.heappush(
                                heap,
                                (cost + weight, counter, target, after, word + (symbol,)),
                            )
                            counter += 1
        return None

    def is_satisfiable(self) -> bool:
        """True iff at least one tree conforms to this DTD."""
        return self.label_costs()[self.root] != float("inf")

    def minimal_tree(
        self, value_factory: Callable[[str, str], object] | None = None
    ) -> TreeNode:
        """A conforming tree of minimal size.

        *value_factory(label, attribute_name)* supplies attribute values
        (default: the constant 0, i.e. all data values equal — the choice
        that triggers the fewest stds; see ``consistency.cons_nested``).
        Raises :class:`XsmError` when the DTD is unsatisfiable.  The
        default-valued tree is memoized on the instance and shared.
        """
        if value_factory is None:
            return self._memo("_minimal_tree", lambda: self._minimal_tree(None))
        return self._minimal_tree(value_factory)

    def _minimal_tree(
        self, value_factory: Callable[[str, str], object] | None
    ) -> TreeNode:
        costs = self.label_costs()
        if costs[self.root] == float("inf"):
            raise XsmError("DTD is unsatisfiable: no conforming tree exists")
        if value_factory is None:
            value_factory = lambda label, attribute: 0
        # preorder rows, built bottom-up by tree_from_rows: no recursion,
        # so a minimal tree may be deeper than the recursion limit
        words: dict[str, tuple[str, ...]] = {}
        rows = []
        stack = [self.root]
        while stack:
            label = stack.pop()
            word = words.get(label)
            if word is None:
                word = words[label] = self._cheapest_word(label, costs)
                assert word is not None
            attrs = tuple(
                value_factory(label, attribute) for attribute in self.attributes[label]
            )
            rows.append((label, attrs, len(word)))
            stack.extend(reversed(word))
        return tree_from_rows(rows)


_PRODUCTION_RE = re.compile(
    r"^\s*(?P<label>[A-Za-z_][A-Za-z0-9_\-.]*)"
    r"(?:\s*\(\s*(?P<attrs>[^)]*)\))?"
    r"\s*(?:->|→)\s*(?P<rhs>.*)$"
)
_LEAF_RE = re.compile(
    r"^\s*(?P<label>[A-Za-z_][A-Za-z0-9_\-.]*)"
    r"(?:\s*\(\s*(?P<attrs>[^)]*)\))?\s*$"
)


def parse_dtd(text: str, root: str | None = None) -> DTD:
    """Parse a DTD from its textual notation.

    One declaration per line (or separated by ``;``)::

        r -> prof*
        prof(name) -> teach, supervise
        teach -> year
        year(y) -> course, course
        supervise -> student*
        course(cn)
        student(sid)

    * attribute names go in parentheses after the element type,
    * a line without ``->`` declares a childless element type,
    * the first declared element type is the root unless *root* is given,
    * blank lines and ``#`` comments are ignored.
    """
    productions: dict[str, Regex] = {}
    parsed: dict[str, Regex] = {}  # each distinct right-hand side parses once
    attributes: dict[str, tuple[str, ...]] = {}
    first_label: str | None = None
    declarations = []
    for raw_line in text.replace(";", "\n").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            declarations.append(line)
    for declaration in declarations:
        match = _PRODUCTION_RE.match(declaration)
        if match:
            rhs = match.group("rhs").strip()
            production = parsed.get(rhs) if rhs else EPSILON
            if production is None:
                production = parsed[rhs] = parse_regex(rhs)
        else:
            match = _LEAF_RE.match(declaration)
            if not match:
                raise ParseError(f"cannot parse DTD declaration: {declaration!r}")
            production = EPSILON
        label = match.group("label")
        if label in productions:
            raise ParseError(f"duplicate production for {label!r}")
        productions[label] = production
        attrs_text = match.group("attrs")
        if attrs_text is not None:
            names = tuple(a.strip() for a in attrs_text.split(",") if a.strip())
            attributes[label] = names
        if first_label is None:
            first_label = label
    if first_label is None:
        raise ParseError("empty DTD text")
    return DTD(root or first_label, productions, attributes)
