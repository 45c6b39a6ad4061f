"""The PTIME consistency algorithm for ``CONS(⇓)`` over nested-relational
DTDs (Fact 5.1, following [4]).

Nested-relational productions ``l -> l1^m1 ... lk^mk`` have **no
disjunction**, which buys two structural facts:

1. *Unique minimal tree.*  ``T_min`` (required children only) embeds into
   every conforming tree, and downward patterns are preserved under that
   embedding, so ``T_min`` triggers the fewest stds of all source trees —
   ``trig(T_min) ⊆ trig(T)`` for every ``T |= D_s``.
2. *Individual = joint satisfiability.*  Any set of ``⇓``-patterns each
   individually satisfiable against a nested-relational DTD is jointly
   satisfiable: productions never forbid combinations of children, so
   witnesses merge (choose all data values equal to defuse target-side
   variable reuse).

Hence ``M`` is consistent iff every std triggered by ``T_min`` has a
target pattern embeddable into ``D_t`` — a quadratic number of
label-vs-subpattern embeddability checks, each computable by memoized
recursion, in line with the paper's cubic bound.
"""

from __future__ import annotations

from functools import reduce

from repro.analysis.fragment import nested_ptime_violation, require
from repro.engine.budget import ExecutionContext
from repro.engine.verdicts import (
    AnalysisCertificate,
    Proved,
    Refuted,
    TriggerRefutation,
    Verdict,
)
from repro.errors import XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
from repro.patterns.ast import WILDCARD, Descendant, Pattern
from repro.patterns.matching import engine_for
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def _strict_descendant_labels(dtd: DTD) -> dict[str, frozenset[str]]:
    """For each label, the labels reachable through >= 1 production step."""
    children = {label: dtd.child_labels(label) for label in dtd.productions}
    reach: dict[str, set[str]] = {label: set(kids) for label, kids in children.items()}
    changed = True
    while changed:
        changed = False
        for label in reach:
            extended = set(reach[label])
            for child in list(reach[label]):
                extended |= reach.get(child, set())
            if extended != reach[label]:
                reach[label] = extended
                changed = True
    return {label: frozenset(labels) for label, labels in reach.items()}


class _Embedder:
    """Memoized 'pattern embeddable at label' recursion (PTIME).

    One per DTD instance (:func:`embedder_for`), so the memo outlives a
    single decision: a revision that keeps its DTDs keeps their answers.
    The memo is cleared when it passes :data:`MEMO_LIMIT` entries, which
    bounds a long edit stream that keeps introducing new patterns.
    """

    MEMO_LIMIT = 1 << 14

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self.reach = _strict_descendant_labels(dtd)
        self._memo: dict[tuple[Pattern, str], bool] = {}

    def embeddable(self, pattern: Pattern, label: str) -> bool:
        key = (pattern, label)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if len(self._memo) > self.MEMO_LIMIT:
            self._memo.clear()
        # recursion descends into strict subpatterns, so it terminates
        # without a cycle guard, and concurrent callers only ever see
        # finished answers
        result = self._embeddable(pattern, label)
        self._memo[key] = result
        return result

    def _embeddable(self, pattern: Pattern, label: str) -> bool:
        if pattern.label != WILDCARD and pattern.label != label:
            return False
        if pattern.vars is not None and len(pattern.vars) != self.dtd.arity(label):
            return False
        for item in pattern.items:
            if isinstance(item, Descendant):
                if not any(
                    self.embeddable(item.pattern, below)
                    for below in self.reach.get(label, ())
                ):
                    return False
            else:
                (element,) = item.elements
                child_labels = self.dtd.child_labels(label)
                if not any(self.embeddable(element, child) for child in child_labels):
                    return False
        return True


def embedder_for(dtd: DTD) -> _Embedder:
    """The embedder of *dtd*, built once and memoized on the instance."""
    return dtd._memo("_embedder", lambda: _Embedder(dtd))


def triggered_by_minimal_tree(mapping: SchemaMapping) -> list[STD]:
    """The stds whose source pattern matches ``T_min`` (all values equal)."""
    # one engine over T_min serves every std: the Boolean semi-join mode
    # never materializes valuation sets, and the index is built once
    engine = engine_for(mapping.source_dtd.minimal_tree())
    return [std for std in mapping.stds if engine.exists_at_root(std.source)]


def is_consistent_nested(
    mapping: SchemaMapping, context: ExecutionContext | None = None
) -> Verdict:
    """Decide ``CONS(⇓)`` over nested-relational DTDs in polynomial time.

    Exact (never ``Unknown``).  ``Proved`` carries the triggered-std
    analysis (the witness pair itself is built on demand by
    :func:`nested_consistency_witness`); ``Refuted`` carries ``T_min`` and
    the triggered stds whose targets do not embed into ``D_t``.
    """
    require(nested_ptime_violation(mapping, context))
    embedder = embedder_for(mapping.target_dtd)
    engine = engine_for(mapping.source_dtd.minimal_tree())
    triggered: list[int] = []
    failing: list[int] = []
    for index, std in enumerate(mapping.stds):
        if context is not None:
            context.charge()
        if not engine.exists_at_root(std.source):
            continue
        triggered.append(index)
        if not embedder.embeddable(std.target, mapping.target_dtd.root):
            failing.append(index)
    if failing:
        return Refuted(
            TriggerRefutation(mapping.source_dtd.minimal_tree(), tuple(failing))
        )
    return Proved(
        AnalysisCertificate(
            "cons-nested",
            "every std triggered by T_min has a target embeddable into D_t; "
            f"triggered: {triggered}",
        )
    )


# -- witness construction ------------------------------------------------------


def merge_nested_trees(dtd: DTD, left: TreeNode, right: TreeNode) -> TreeNode:
    """Merge two conforming trees of a nested-relational DTD.

    Children of multiplicity ``1``/``?`` are merged recursively; starred
    children are concatenated.  Attribute values must agree (they do in
    this module: everything is decorated with the single value 0).
    """
    if left.label != right.label:
        raise XsmError(f"cannot merge {left.label!r} with {right.label!r}")
    if left.attrs != right.attrs:
        raise XsmError(f"attribute clash while merging {left.label!r}")
    by_label_left: dict[str, list[TreeNode]] = {}
    for child in left.children:
        by_label_left.setdefault(child.label, []).append(child)
    by_label_right: dict[str, list[TreeNode]] = {}
    for child in right.children:
        by_label_right.setdefault(child.label, []).append(child)
    children: list[TreeNode] = []
    for child_label, multiplicity in dtd.nested_relational_children(left.label):
        ours = by_label_left.get(child_label, [])
        theirs = by_label_right.get(child_label, [])
        if multiplicity in ("1", "?"):
            if ours and theirs:
                children.append(merge_nested_trees(dtd, ours[0], theirs[0]))
            else:
                children.extend(ours or theirs)
        else:
            children.extend(ours)
            children.extend(theirs)
    return TreeNode(left.label, left.attrs, children)


def nested_consistency_witness(
    mapping: SchemaMapping,
) -> tuple[TreeNode, TreeNode] | None:
    """A witness pair for the PTIME algorithm: ``(T_min, merged targets)``."""
    from repro.patterns.satisfiability import satisfying_tree

    require(nested_ptime_violation(mapping))
    triggered = triggered_by_minimal_tree(mapping)
    witnesses = []
    for std in triggered:
        witness = satisfying_tree(mapping.target_dtd, std.target)
        if witness is None:
            return None
        witnesses.append(witness)
    base = mapping.target_dtd.minimal_tree()
    target = reduce(
        lambda acc, tree: merge_nested_trees(mapping.target_dtd, acc, tree),
        witnesses,
        base,
    )
    return mapping.source_dtd.minimal_tree(), target
