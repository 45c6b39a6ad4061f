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
target pattern embeddable into ``D_t``: one embedding pass of
:mod:`repro.patterns.embedding` per target pattern, ``O(|π|·|D_t|)``,
in line with the paper's cubic bound.
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
from repro.patterns.embedding import embedder_for
from repro.patterns.matching import engine_for
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


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
