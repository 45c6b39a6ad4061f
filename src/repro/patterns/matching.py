"""Pattern matching semantics (Section 3 of the paper), as a query engine.

The relation ``(T, s) |= pi(a)`` is implemented by computing, for a node and
a pattern, the *set of valuations* (assignments of data values to the
pattern's variables) under which the pattern matches at that node.  This is
conjunctive-query evaluation over trees, and the evaluator is built like a
small query engine:

* a per-tree :class:`~repro.patterns.index.TreeIndex` (label → nodes,
  preorder intervals, attribute-value index, per-node label bitsets)
  supplies the access paths, so ``//pi`` subpatterns enumerate candidate
  nodes by index lookup instead of walking the tree, and a pattern whose
  labels do not occur under a node fails in O(1);
* subpattern valuation sets are combined by **hash joins** keyed on the
  variables the two sides share (repeated variables express equality, so
  a join conflict is exactly a hash-bucket miss);
* Boolean callers (``matches_at_root``, ``holds``, the consistency and
  membership machinery) run in a **semi-join mode** that projects every
  intermediate valuation set down to the *join variables* — variables
  occurring in at least two term positions.  Variables used once are
  checked locally and dropped, so patterns without repeated variables
  evaluate with constant-size intermediate relations and ``//`` queries
  short-circuit on the first witness.

Engines are cached on the tree's root node and shared across calls, so
repeated queries against the same tree (membership checks one std at a
time, bounded searches one candidate at a time) reuse both the index and
the memo tables.  The memo key is ``(node identity, subpattern,
projection)``, keeping repeated subtrees and descendant recursion
polynomial for a fixed pattern — matching the paper's DLOGSPACE/PTIME
data-complexity results in spirit.  The evaluator (:class:`_Evaluator`)
is shared with the array-backed
:class:`~repro.patterns.compact.CompactPatternEngine`; per-pattern
analysis depends on the pattern alone and is memoized once, module-wide.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Any

from repro.errors import XsmError
from repro.obs import REGISTRY, trace
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence, _term_vars
from repro.patterns.index import EngineStats, TreeIndex
from repro.values import Const, SkolemTerm, Var
from repro.xmlmodel.tree import TreeNode

#: Pre-bound children: these sit on hot paths, so label lookups are paid once.
_ENGINE_BUILDS = REGISTRY.counter(
    "repro_pattern_engines_total",
    "Pattern engines built (one per distinct tree root queried)",
)
_ENGINE_BUILD_SECONDS = REGISTRY.histogram(
    "repro_pattern_engine_build_seconds",
    "Wall-clock seconds to index a tree and build its pattern engine",
)
_QUERIES = REGISTRY.counter(
    "repro_pattern_queries_total",
    "Pattern queries through the public matching entry points",
    ("entry",),
)
_Q_FIND = _QUERIES.labels(entry="find_matches")
_Q_FIND_ANYWHERE = _QUERIES.labels(entry="find_matches_anywhere")
_Q_EXISTS_ANYWHERE = _QUERIES.labels(entry="matches_anywhere")
_Q_AT_ROOT = _QUERIES.labels(entry="matches_at_root")

#: A valuation is stored as a frozenset of (Var, value) pairs so sets of
#: valuations can be deduplicated; the public API converts them to dicts.
Valuation = frozenset

_EMPTY_VALUATION: Valuation = frozenset()

#: The two constant relations over zero variables: false and true.
_EMPTY_REL: frozenset = frozenset()
_TRUE_REL: frozenset = frozenset((_EMPTY_VALUATION,))

_MISSING = object()


#: Distinct patterns whose static analysis :func:`pattern_info` keeps.
#: Analyses depend on the pattern alone, so every engine shares them.
PATTERN_MEMO_SIZE = 4096


class PatternInfo:
    """Static analysis of one pattern node (independent of any tree)."""

    __slots__ = ("formula_vars", "item_vars", "all_vars", "const_attrs", "join_vars")

    def __init__(self, pattern: Pattern):
        formula: set[Var] = set()
        if pattern.vars is not None:
            for term in pattern.vars:
                formula.update(_term_vars(term))
        self.formula_vars = frozenset(formula)
        self.item_vars: tuple[frozenset[Var], ...] = tuple(
            frozenset(
                var
                for element in (
                    (item.pattern,) if isinstance(item, Descendant) else item.elements
                )
                for var in element.variables()
            )
            for item in pattern.items
        )
        self.all_vars = frozenset(pattern.variables())
        #: attribute tuple when every term is a constant (index access path)
        if pattern.vars is not None and all(
            isinstance(t, Const) for t in pattern.vars
        ):
            self.const_attrs: tuple | None = tuple(t.value for t in pattern.vars)
        else:
            self.const_attrs = None
        #: variables occurring in >= 2 term positions (see join_variables)
        counts: dict[Var, int] = {}
        for term in pattern.terms():
            for var in _term_vars(term):
                counts[var] = counts.get(var, 0) + 1
        self.join_vars = frozenset(v for v, c in counts.items() if c > 1)


@lru_cache(maxsize=PATTERN_MEMO_SIZE)
def pattern_info(pattern: Pattern) -> PatternInfo:
    """The (memoized) static analysis of *pattern*."""
    return PatternInfo(pattern)


def join_variables(pattern: Pattern) -> frozenset[Var]:
    """Variables occurring in >= 2 term positions (the join variables).

    Projecting valuation sets onto this set preserves joins exactly:
    any variable shared between two subpattern relations occurs twice,
    so it is kept; a variable occurring once constrains nothing beyond
    its own node formula and may be dropped after binding.
    """
    return pattern_info(pattern).join_vars


def bind_terms(terms: tuple, values: tuple) -> Valuation | None:
    """The valuation binding *terms* to the attribute tuple *values*.

    None when the arity differs, a constant mismatches or a repeated
    variable meets two different values.
    """
    if len(terms) != len(values):
        return None
    binding: dict[Var, object] = {}
    for term, value in zip(terms, values):
        if isinstance(term, Var):
            bound = binding.get(term, _MISSING)
            if bound is _MISSING:
                binding[term] = value
            elif bound != value:
                return None
        elif isinstance(term, Const):
            if term.value != value:
                return None
        elif isinstance(term, SkolemTerm):
            raise XsmError(
                "Skolem terms cannot be matched directly; instantiate the "
                "pattern through repro.mappings.skolem first"
            )
        else:
            raise TypeError(f"unexpected term {term!r}")
    return frozenset(binding.items())


class _Evaluator:
    """The evaluator both pattern engines share.

    A *handle* names a node of the engine's tree: the ``TreeNode``
    itself in :class:`PatternEngine`, a preorder position in
    :class:`~repro.patterns.compact.CompactPatternEngine`.  Subclasses
    set ``stats``, ``index`` (whose structural tests and candidate
    enumeration take handles), ``_mask`` and ``_top`` (the root's
    handle), and supply the handle-dependent steps: the memoized
    :meth:`match_at` / :meth:`match_strictly_below`, the node formula
    and the children of a node.

    Every evaluation method takes an optional *keep* projection: ``None``
    computes full valuation sets (over all pattern variables); a
    frozenset of variables runs the semi-join mode, projecting
    intermediate sets onto ``keep`` (which must contain every variable
    shared between two term positions — see :func:`join_variables`).
    """

    stats: EngineStats
    index: Any  # TreeIndex / CompactTreeIndex: both speak handles
    _mask: dict[Pattern, int | None]
    _top: Any

    def match_at(
        self, node: Any, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        raise NotImplementedError

    def match_strictly_below(
        self, node: Any, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        raise NotImplementedError

    def _match_node_formula(self, node: Any, pattern: Pattern) -> Valuation | None:
        raise NotImplementedError

    def _match_sequence(
        self, node: Any, sequence: Sequence, keep: frozenset | None
    ) -> frozenset:
        raise NotImplementedError

    def mask(self, pattern: Pattern) -> int | None:
        """Label bitmask of *pattern* against this tree; None = unmatchable."""
        if pattern not in self._mask:
            self._mask[pattern] = self.index.labels_mask(pattern.labels_used())
        return self._mask[pattern]

    # -- public evaluation --------------------------------------------------

    def relation_at_root(self, pattern: Pattern, keep: frozenset | None = None) -> frozenset:
        """The valuation set of *pattern* at the root (projected onto *keep*)."""
        return self.match_at(self._top, pattern, keep)

    def find_matches(self, pattern: Pattern) -> list[dict[Var, object]]:
        """All valuations of ``(T, root) |= pattern``, as dicts."""
        return list(map(dict, self.match_at(self._top, pattern)))

    def match_anywhere(self, pattern: Pattern) -> frozenset:
        """Valuations of *pattern* matched at the root or any descendant."""
        return self.match_at(self._top, pattern) | self.match_strictly_below(
            self._top, pattern
        )

    def exists_at_root(self, pattern: Pattern) -> bool:
        """``T |= pattern`` for some valuation (semi-join mode)."""
        return bool(self.match_at(self._top, pattern, join_variables(pattern)))

    def exists_anywhere(self, pattern: Pattern) -> bool:
        """Does *pattern* match at the root or at any descendant?"""
        keep = join_variables(pattern)
        return bool(self.match_at(self._top, pattern, keep)) or bool(
            self.match_strictly_below(self._top, pattern, keep)
        )

    # -- the evaluator ------------------------------------------------------

    def _match_at(self, node: Any, pattern: Pattern, keep: frozenset | None) -> frozenset:
        mask = self.mask(pattern)
        if mask is None or not self.index.subtree_covers(node, mask):
            self.stats.index_prunes += 1
            return _EMPTY_REL
        self.stats.nodes_visited += 1
        base = self._match_node_formula(node, pattern)
        if base is None:
            return _EMPTY_REL
        info = pattern_info(pattern)
        if keep is None:
            acc_vars = info.formula_vars
        else:
            if base:
                base = frozenset(p for p in base if p[0] in keep)
            acc_vars = info.formula_vars & keep
        valuations = frozenset((base,))
        for item, full_item_vars in zip(pattern.items, info.item_vars):
            if isinstance(item, Descendant):
                rel = self.match_strictly_below(node, item.pattern, keep)
            else:
                rel = self._match_sequence(node, item, keep)
            if not rel:
                return _EMPTY_REL
            item_vars = full_item_vars if keep is None else full_item_vars & keep
            valuations = hash_join(valuations, acc_vars, rel, item_vars, self.stats)
            if not valuations:
                return _EMPTY_REL
            acc_vars |= item_vars
        return valuations

    def _match_below(
        self, node: Any, pattern: Pattern, keep: frozenset | None
    ) -> frozenset:
        mask = self.mask(pattern)
        if mask is None or not self.index.below_covers(node, mask):
            self.stats.index_prunes += 1
            return _EMPTY_REL
        info = pattern_info(pattern)
        existence_only = keep is not None and not (info.all_vars & keep)
        label = None if pattern.label == WILDCARD else pattern.label
        attrs = info.const_attrs if label is not None else None
        out: set = set()
        for candidate in self.index.candidates(node, label, attrs):
            self.stats.candidates_scanned += 1
            rel = self.match_at(candidate, pattern, keep)
            if rel:
                if existence_only:
                    return _TRUE_REL
                out |= rel
        return frozenset(out) if out else _EMPTY_REL


class PatternEngine(_Evaluator):
    """Evaluates patterns over one fixed tree of linked ``TreeNode`` objects.

    One engine per tree root, obtained via :func:`engine_for`; the
    index, memo tables and counters live as long as the tree.
    """

    def __init__(self, root: TreeNode):
        self.root = root
        self._top = root
        self.index = TreeIndex(root)
        self.stats = EngineStats()
        self._mask = {}
        # (id(node), pattern, keep) -> relation matched AT the node
        self._at: dict[tuple, frozenset] = {}
        # (id(node), pattern, keep) -> relation matched strictly below
        self._below: dict[tuple, frozenset] = {}

    def match_at(
        self, node: TreeNode, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        """Relation of valuations under which *pattern* matches AT *node*."""
        key = (id(node), pattern, keep)
        cached = self._at.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._match_at(node, pattern, keep)
        self._at[key] = result
        return result

    def match_strictly_below(
        self, node: TreeNode, pattern: Pattern, keep: frozenset | None = None
    ) -> frozenset:
        """Valuations of *pattern* matched at some proper descendant of *node*."""
        key = (id(node), pattern, keep)
        cached = self._below.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = self._match_below(node, pattern, keep)
        self._below[key] = result
        return result

    def _match_node_formula(
        self, node: TreeNode, pattern: Pattern
    ) -> Valuation | None:
        """Match label and attribute tuple; return the induced valuation."""
        if pattern.label != WILDCARD and pattern.label != node.label:
            return None
        if pattern.vars is None:
            return _EMPTY_VALUATION
        return bind_terms(pattern.vars, node.attrs)

    def _match_sequence(
        self, node: TreeNode, sequence: Sequence, keep: frozenset | None
    ) -> frozenset:
        """Relation under which the sequence matches among *node*'s children."""
        children = node.children
        if not children:
            return _EMPTY_REL
        rows = [
            [self.match_at(child, element, keep) for child in children]
            for element in sequence.elements
        ]
        return join_sequence(sequence, rows, keep, self.stats)


def join_sequence(
    sequence: Sequence,
    rows: list[list[frozenset]],
    keep: frozenset | None,
    stats: EngineStats,
) -> frozenset:
    """Relation under which *sequence* matches among a node's children.

    ``rows[i][p]`` is the relation (projected onto *keep*) of the
    sequence's ``i``-th element at child ``p``.  Shared by both engines,
    which differ only in how they compute the rows.
    """
    elements = sequence.elements
    connectors = sequence.connectors
    n = len(rows[0])
    evars = [
        pattern_info(e).all_vars if keep is None else pattern_info(e).all_vars & keep
        for e in elements
    ]
    # suffix[p]: relation of elements[i:] with element i at position p;
    # built right to left so each (connector, position) joins once.
    suffix = rows[-1]
    suffix_vars = evars[-1]
    for i in range(len(elements) - 2, -1, -1):
        here = rows[i]
        if connectors[i] == "next":
            nxt = suffix[1:] + [_EMPTY_REL]
        else:  # following-sibling: any strictly later position
            nxt = [_EMPTY_REL] * n
            acc: frozenset = _EMPTY_REL
            for p in range(n - 2, -1, -1):
                later = suffix[p + 1]
                if later:
                    acc = acc | later
                nxt[p] = acc
        suffix = [
            hash_join(here[p], evars[i], nxt[p], suffix_vars, stats)
            if here[p] and nxt[p]
            else _EMPTY_REL
            for p in range(n)
        ]
        suffix_vars = evars[i] | suffix_vars
    parts = [rel for rel in suffix if rel]
    if not parts:
        return _EMPTY_REL
    if len(parts) == 1:
        return parts[0]
    return frozenset().union(*parts)


def hash_join(
    lhs: frozenset,
    lhs_vars: frozenset[Var],
    rhs: frozenset,
    rhs_vars: frozenset[Var],
    stats: EngineStats,
) -> frozenset:
    """Join two relations on their shared variables (hash join).

    Every valuation of a relation binds exactly the relation's
    variable set, so two valuations merge iff they agree on the
    shared variables — the hash key.  Shared by the object engine and
    the compact engine (:mod:`repro.patterns.compact`), which differ in
    how they reach nodes, not in how they combine valuations.
    """
    if not lhs or not rhs:
        return _EMPTY_REL
    if not lhs_vars:
        return rhs  # lhs is the true relation over zero variables
    if not rhs_vars:
        return lhs
    if len(lhs) == 1 and len(rhs) == 1:
        # singleton x singleton: merge and check each var binds one value
        (a,) = lhs
        (b,) = rhs
        merged = a | b
        if len({pair[0] for pair in merged}) == len(merged):
            stats.join_pairs += 1
            return frozenset((merged,))
        return _EMPTY_REL
    shared = lhs_vars & rhs_vars
    if not shared:
        stats.join_pairs += len(lhs) * len(rhs)
        return frozenset(a | b for a in lhs for b in rhs)
    build, probe = (lhs, rhs) if len(lhs) <= len(rhs) else (rhs, lhs)
    key_vars = tuple(sorted(shared, key=lambda v: v.name))
    table: dict[tuple, list] = {}
    for valuation in build:
        values = dict(valuation)
        key = tuple(values[v] for v in key_vars)
        table.setdefault(key, []).append(valuation)
    out: list = []
    for valuation in probe:
        values = dict(valuation)
        bucket = table.get(tuple(values[v] for v in key_vars))
        if bucket:
            stats.join_pairs += len(bucket)
            out.extend(other | valuation for other in bucket)
    return frozenset(out)


def _size_hint(root: TreeNode, limit: int) -> int:
    """Node count of *root*, counted only far enough to clear *limit*.

    Kernel selection needs "bigger than the threshold?", not the exact
    size, so the walk stops as soon as the answer is known — tiny trees
    pay a full (cheap) count, huge trees pay O(limit).
    """
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if count > limit:
            return count
        stack.extend(node.children)
    return count


def engine_for(root: TreeNode) -> PatternEngine:
    """The cached pattern engine of *root* (built on first use).

    Stored on the root node itself: trees are immutable, so the engine's
    index and memo tables never go stale, and they are released together
    with the tree object.  The engine is chosen by the tree's node count
    alone: trees of at least ``AUTO_THRESHOLDS["pattern-engine"]`` nodes
    (8, the crossover measured by ``benchmarks/bench_scale.py
    --cutover``) get the array-backed
    :class:`~repro.patterns.compact.CompactPatternEngine` (same public
    surface, positional internals); smaller ones the object engine,
    which wins or ties there.
    """
    from repro.kernel import AUTO_THRESHOLDS, BITSET, select_kernel

    engine = getattr(root, "_engine", None)
    if engine is None:
        threshold = AUTO_THRESHOLDS["pattern-engine"]
        kernel = select_kernel("pattern-engine", _size_hint(root, threshold))
        started = time.perf_counter()
        with trace("pattern-engine-build"):
            if kernel == BITSET:
                from repro.patterns.compact import CompactPatternEngine

                engine = CompactPatternEngine(root)
            else:
                engine = PatternEngine(root)
        _ENGINE_BUILDS.inc()
        _ENGINE_BUILD_SECONDS.observe(time.perf_counter() - started)
        root._engine = engine
    return engine


def find_matches(pattern: Pattern, root: TreeNode) -> list[dict[Var, object]]:
    """All valuations under which ``(T, root) |= pattern``, as dicts.

    Every returned dict assigns all of ``pattern.variables()``.
    """
    _Q_FIND.inc()
    return engine_for(root).find_matches(pattern)


def find_matches_anywhere(pattern: Pattern, root: TreeNode) -> list[dict[Var, object]]:
    """All valuations matching *pattern* at the root or any descendant."""
    _Q_FIND_ANYWHERE.inc()
    return [dict(v) for v in engine_for(root).match_anywhere(pattern)]


def matches_anywhere(pattern: Pattern, root: TreeNode) -> bool:
    """Does *pattern* match at the root or any descendant? (Boolean mode.)"""
    _Q_EXISTS_ANYWHERE.inc()
    return engine_for(root).exists_anywhere(pattern)


def matches_at_root(pattern: Pattern, root: TreeNode) -> bool:
    """``T |= pi`` for some valuation (Boolean satisfaction at the root)."""
    _Q_AT_ROOT.inc()
    return engine_for(root).exists_at_root(pattern)


def evaluate(pattern: Pattern, root: TreeNode) -> set[tuple]:
    """The answer set ``pi(T)``: tuples over ``pattern.variables()`` order."""
    variables = pattern.variables()
    return {
        tuple(valuation[var] for var in variables)
        for valuation in find_matches(pattern, root)
    }


def holds(pattern: Pattern, root: TreeNode, assignment: dict[Var, object]) -> bool:
    """``T |= pi(a)``: does the pattern match under (an extension of) *assignment*?

    Variables not mentioned in *assignment* are existential.
    """
    return matches_at_root(pattern.substitute(assignment), root)
