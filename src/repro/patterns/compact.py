"""The compact pattern engine: array-backed evaluation of patterns.

This is the pattern-engine half of the bitset kernel
(:mod:`repro.kernel`), used for every tree of 8 nodes or more.  It
evaluates exactly the same relation ``(T, v) |= pi(a)`` as
:class:`~repro.patterns.matching.PatternEngine` — it inherits the same
evaluator, hash joins, semi-join projection and memoization contract —
but every node is a *preorder position* into the contiguous arrays of a
:class:`~repro.patterns.index.CompactTreeIndex` instead of a linked
``TreeNode``.  This module holds only what depends on that layout:

* memo keys are ``(position, pattern, keep)`` — small ints, no object
  identity;
* child and descendant enumeration walk ``first_child`` /
  ``next_sibling`` / ``by_label`` arrays, never node objects;
* node formulae compare interned label ids, and leaf subpatterns (no
  list items) are evaluated directly instead of being memoized — on a
  10⁶-node document a memo row per (node, leaf pattern) pair costs more
  than recomputing the formula.

Valuations are the same ``frozenset((Var, value), ...)`` objects the
object engine produces, so results are interchangeable and the
differential tests compare them directly.  Selection between the two
engines happens in :func:`repro.patterns.matching.engine_for`.
"""

from __future__ import annotations

from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.patterns.index import CompactTreeIndex, EngineStats
from repro.patterns.matching import (
    _EMPTY_REL,
    _EMPTY_VALUATION,
    _MISSING,
    _TRUE_REL,
    _Evaluator,
    bind_terms,
    join_sequence,
    pattern_info,
)
from repro.values import Const, Var
from repro.xmlmodel.tree import TreeNode


class CompactPatternEngine(_Evaluator):
    """Evaluates patterns over one fixed tree via its compact index.

    Public surface is :class:`~repro.patterns.matching.PatternEngine`'s
    (``relation_at_root`` / ``find_matches`` / ``match_anywhere`` /
    ``exists_at_root`` / ``exists_anywhere`` / ``stats``); handles are
    preorder positions, the root's being 0.
    """

    def __init__(self, root: TreeNode):
        self.root = root
        self._top = 0
        self.index = CompactTreeIndex(root)
        self.stats = EngineStats()
        self._mask = {}
        #: pattern -> interned label id; None = wildcard, -1 = label absent
        self._label_id: dict[Pattern, int | None] = {}
        # (position, pattern, keep) -> relation matched AT the position
        self._at: dict[tuple, frozenset] = {}
        # (position, pattern, keep) -> relation matched strictly below
        self._below: dict[tuple, frozenset] = {}
        # (leaf pattern, keep) -> compiled position matcher
        self._leaf: dict[tuple, object] = {}

    # -- array-layout lookups ------------------------------------------------

    def label_id(self, pattern: Pattern) -> int | None:
        """Interned id of the pattern's label (None = wildcard, -1 = absent)."""
        cached = self._label_id.get(pattern, _MISSING)
        if cached is _MISSING:
            if pattern.label == WILDCARD:
                cached = None
            else:
                cached = self.index.label_bit.get(pattern.label, -1)
            self._label_id[pattern] = cached
        return cached

    # -- public evaluation --------------------------------------------------

    def find_matches(self, pattern: Pattern) -> list[dict[Var, object]]:
        """All valuations of ``(T, root) |= pattern``, as dicts.

        Full-enumeration queries — a root formula binding nothing over a
        single descendant leaf, the ``r//item(x, y)`` shape that
        materializes a valuation per matching node — take a vectorized
        path: candidate positions stream straight out of the label
        index, the constant/equality tests run as tuple comparisons on
        the attrs arrays, and result dicts are built once per distinct
        binding tuple.  No frozenset-of-pairs relation algebra runs on
        that hot path; every other shape falls back to the generic
        evaluator with the per-row dicts materialized by a C-level
        ``map``.
        """
        fast = self._enumerate_fast(pattern)
        if fast is not None:
            return fast
        return super().find_matches(pattern)

    def _enumerate_fast(
        self, pattern: Pattern
    ) -> list[dict[Var, object]] | None:
        """The vectorized full-enumeration materialization, or None.

        Applicable when the pattern is a root formula that binds no
        variables over exactly one ``//leaf`` item whose terms are plain
        variables and constants; the result is then the distinct binding
        tuples of the leaf over all matching descendants — computable in
        one pass over the candidate positions.
        """
        if len(pattern.items) != 1 or not isinstance(pattern.items[0], Descendant):
            return None
        leaf = pattern.items[0].pattern
        if leaf.items:
            return None
        terms = leaf.vars
        if terms is None or not all(isinstance(t, (Var, Const)) for t in terms):
            return None
        base = self._match_node_formula(0, pattern)
        if base is None:
            return []
        if base:
            return None  # root bindings would need the join machinery
        mask = self.mask(pattern)
        if mask is None or not self.index.subtree_covers(0, mask):
            self.stats.index_prunes += 1
            return []
        label_id = self.label_id(leaf)
        if label_id is not None and label_id < 0:
            return []
        arity = len(terms)
        consts = tuple(
            (i, t.value) for i, t in enumerate(terms) if isinstance(t, Const)
        )
        first: dict[Var, int] = {}
        equalities: list[tuple[int, int]] = []
        for i, term in enumerate(terms):
            if isinstance(term, Var):
                j = first.setdefault(term, i)
                if j != i:
                    equalities.append((j, i))
        kept = tuple(first.items())  # (var, first position) per variable
        label = None if leaf.label == WILDCARD else leaf.label
        attr_index = (
            pattern_info(leaf).const_attrs if label is not None else None
        )
        attrs = self.index.attrs
        stats = self.stats
        rows: set[tuple] = set()
        add = rows.add
        for candidate in self.index.candidates(0, label, attr_index):
            stats.candidates_scanned += 1
            values = attrs[candidate]
            if len(values) != arity:
                continue
            if any(values[i] != constant for i, constant in consts):
                continue
            if any(values[i] != values[j] for i, j in equalities):
                continue
            add(tuple(values[i] for __, i in kept))
        variables = tuple(var for var, __ in kept)
        return [dict(zip(variables, row)) for row in rows]

    # -- the evaluator (positions, not nodes) --------------------------------

    def match_at(
        self, pos: int, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        """Relation of valuations under which *pattern* matches AT *pos*."""
        if not pattern.items:
            # leaf subpattern: a compiled matcher beats a memo row
            return self._leaf_matcher(pattern, keep)(pos)
        key = (pos, pattern, keep)
        cached = self._at.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._match_at(pos, pattern, keep)
        self._at[key] = result
        return result

    def _leaf_matcher(self, pattern: Pattern, keep: frozenset | None):
        key = (pattern, keep)
        matcher = self._leaf.get(key)
        if matcher is None:
            matcher = self._leaf[key] = self._compile_leaf(pattern, keep)
        return matcher

    def _compile_leaf(self, pattern: Pattern, keep: frozenset | None):
        """A closure evaluating an item-less *pattern* at a position.

        Sequence evaluation calls the leaf formula once per (element,
        child) pair — on wide documents that is millions of calls, so the
        per-call work is compiled down to array lookups and comparisons.
        Projected results are cached by their bound values: within a run
        of siblings the projection typically collapses to a handful of
        distinct relations, reusing the frozenset objects outright.
        """
        label_id = self.label_id(pattern)
        labels = self.index.label_id
        if label_id is not None and label_id < 0:
            return lambda pos: _EMPTY_REL  # label absent from the tree
        terms = pattern.vars
        if terms is None:
            if label_id is None:
                return lambda pos: _TRUE_REL
            return (
                lambda pos: _TRUE_REL if labels[pos] == label_id else _EMPTY_REL
            )
        if not all(isinstance(t, (Var, Const)) for t in terms):
            # Skolem (or unknown) terms: keep the generic formula so the
            # diagnostic surfaces exactly as in the object engine
            def generic(pos: int) -> frozenset:
                base = self._match_node_formula(pos, pattern)
                if base is None:
                    return _EMPTY_REL
                if keep is not None and base:
                    base = frozenset(p for p in base if p[0] in keep)
                return frozenset((base,))

            return generic
        arity = len(terms)
        consts = tuple(
            (i, t.value) for i, t in enumerate(terms) if isinstance(t, Const)
        )
        first: dict[Var, int] = {}
        equalities = []
        for i, term in enumerate(terms):
            if isinstance(term, Var):
                j = first.setdefault(term, i)
                if j != i:
                    equalities.append((j, i))
        eqs = tuple(equalities)
        kept = tuple(
            (i, var)
            for var, i in first.items()
            if keep is None or var in keep
        )
        attrs = self.index.attrs
        cache: dict[tuple, frozenset] = {}

        def matcher(pos: int) -> frozenset:
            if label_id is not None and labels[pos] != label_id:
                return _EMPTY_REL
            values = attrs[pos]
            if len(values) != arity:
                return _EMPTY_REL
            for i, constant in consts:
                if values[i] != constant:
                    return _EMPTY_REL
            for i, j in eqs:
                if values[i] != values[j]:
                    return _EMPTY_REL
            key = tuple(values[i] for i, _ in kept)
            rel = cache.get(key)
            if rel is None:
                rel = cache[key] = frozenset(
                    (frozenset((var, values[i]) for i, var in kept),)
                )
            return rel

        return matcher

    def _match_node_formula(self, pos: int, pattern: Pattern) -> frozenset | None:
        """Match label id and attribute tuple; return the induced valuation."""
        label_id = self.label_id(pattern)
        if label_id is not None and label_id != self.index.label_id[pos]:
            return None
        if pattern.vars is None:
            return _EMPTY_VALUATION
        return bind_terms(pattern.vars, self.index.attrs[pos])

    def match_strictly_below(
        self, pos: int, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        """Valuations of *pattern* matched at some proper descendant of *pos*."""
        key = (pos, pattern, keep)
        cached = self._below.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._match_below(pos, pattern, keep)
        self._below[key] = result
        return result

    def _match_sequence(
        self, pos: int, sequence: Sequence, keep: frozenset | None
    ) -> frozenset:
        """Relation under which the sequence matches among the children of *pos*."""
        children = list(self.index.children(pos))
        if not children:
            return _EMPTY_REL
        rows = []
        for element in sequence.elements:
            if element.items:
                rows.append(
                    [self.match_at(child, element, keep) for child in children]
                )
            else:  # hoist the compiled matcher out of the child loop
                matcher = self._leaf_matcher(element, keep)
                rows.append([matcher(child) for child in children])
        return join_sequence(sequence, rows, keep, self.stats)
