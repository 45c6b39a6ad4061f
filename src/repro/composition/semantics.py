"""Membership in the composition ``[[M12]] ∘ [[M23]]`` (Section 7.2).

``(T1, T3)`` belongs to the composition iff some ``T2 |= D2`` is a solution
for ``T1`` under ``M12`` and has ``T3`` as a solution under ``M23``.  We
search for ``T2`` directly, made feasible by a **finite value
abstraction**:

    For mappings without data comparisons, if any ``T2`` works then the
    tree obtained by collapsing every value outside
    ``adom(T1) ∪ adom(T3) ∪ constants`` to a single fresh value also
    works: collapsing preserves the requirement matches of ``Sigma12``
    (constants and exported values survive), and every ``Sigma23``
    trigger exports only values that must literally occur in ``T3``
    anyway.

So for ``SM(⇓, ⇒)`` the abstraction is exact, and the only approximation
left is the bound on ``|T2|`` (the paper's upper bound is 2-EXPTIME with a
construction not given in the text; see DESIGN.md, substitution 2) — which
is why exhausting the middle-tree bound yields ``Unknown`` rather than a
refutation.  With comparisons, composition is undecidable (Theorem 7.3),
and this search is the corresponding sound-but-bounded procedure — extra
fresh values can be requested via *extra_fresh* since distinct values then
matter.
"""

from __future__ import annotations

from repro.consistency.bounded import bounded_solutions, mapping_constants
from repro.engine.budget import ExecutionContext, resolve_budget
from repro.engine.verdicts import (
    ConformanceFailure,
    MiddleTree,
    Proved,
    Refuted,
    Unknown,
    Verdict,
)
from repro.mappings.mapping import SchemaMapping
from repro.mappings.skolem import is_skolem_solution, solution_checker
from repro.xmlmodel.tree import TreeNode


def composition_value_domain(
    m12: SchemaMapping,
    m23: SchemaMapping,
    source_tree: TreeNode,
    final_tree: TreeNode,
    extra_fresh: int = 1,
) -> tuple:
    """The finite domain for intermediate values; exact for SM(⇓,⇒) with 1 fresh."""
    values = sorted(source_tree.adom() | final_tree.adom(), key=repr)
    values += mapping_constants(m12) + mapping_constants(m23)
    values += [f"#mid{i}" for i in range(extra_fresh)]
    return tuple(dict.fromkeys(values))


def default_mid_size(
    m12: SchemaMapping, m23: SchemaMapping, source_tree: TreeNode
) -> int:
    """Heuristic bound on the intermediate tree size.

    The canonical middle merges one target-pattern instance per
    ``Sigma12`` trigger plus the required structure of ``D2``; this bound
    covers it for the instance families used in tests and benchmarks.
    """
    pattern_budget = sum(std.target.size for std in m12.stds)
    triggers = max(1, sum(1 for node in source_tree.nodes()))
    return min(3 + pattern_budget * 2, 2 + pattern_budget + triggers)


def find_composition_middle(
    m12: SchemaMapping,
    m23: SchemaMapping,
    source_tree: TreeNode,
    final_tree: TreeNode,
    max_mid_size: int | None = None,
    extra_fresh: int = 1,
    context: ExecutionContext | None = None,
) -> TreeNode | None:
    """An intermediate ``T2`` witnessing the composition pair, or None.

    The raw search behind :func:`composition_contains`: the first ``M12``
    solution for ``T1`` (:func:`~repro.consistency.bounded.bounded_solutions`)
    with ``T3`` as its ``M23`` solution; None means no middle within the
    size bound.  *max_mid_size* defaults to the context budget's
    ``max_mid_size`` when set, else the :func:`default_mid_size` heuristic.
    """
    if max_mid_size is None:
        max_mid_size = resolve_budget(context).max_mid_size
    if max_mid_size is None:
        max_mid_size = default_mid_size(m12, m23, source_tree)
    domain = composition_value_domain(m12, m23, source_tree, final_tree, extra_fresh)
    fixed = (
        source_tree.adom()
        | final_tree.adom()
        | frozenset(mapping_constants(m12) + mapping_constants(m23))
    )
    # the M23 checks share T3's engine (and its memo tables) across middles
    for middle in bounded_solutions(
        m12, source_tree, max_mid_size, domain, fixed, context
    ):
        if solution_checker(m23, middle).is_solution_for(
            final_tree, check_conformance=False
        ):
            return middle
    return None


def composition_contains(
    m12: SchemaMapping,
    m23: SchemaMapping,
    source_tree: TreeNode,
    final_tree: TreeNode,
    max_mid_size: int | None = None,
    extra_fresh: int = 1,
    context: ExecutionContext | None = None,
) -> Verdict:
    """Is ``(T1, T3) ∈ [[M12]] ∘ [[M23]]`` (with a bounded intermediate)?

    ``Proved`` carries the intermediate tree; a non-conforming input pair
    is ``Refuted`` outright; an exhausted middle-tree bound is
    ``Unknown`` (exact only up to the bound — module docstring).
    """
    if not m12.source_dtd.conforms(source_tree):
        return Refuted(ConformanceFailure("source"))
    if not m23.target_dtd.conforms(final_tree):
        return Refuted(ConformanceFailure("target"))
    middle = find_composition_middle(
        m12, m23, source_tree, final_tree, max_mid_size, extra_fresh, context
    )
    if middle is not None:
        return Proved(MiddleTree(middle))
    return Unknown(
        "no intermediate tree within the size bound; the bound-free upper "
        "bound (2-EXPTIME, Theorem 7.4) has no published construction",
        bound_exhausted=True,
    )


def composition_contains_exact(
    m12: SchemaMapping,
    m23: SchemaMapping,
    source_tree: TreeNode,
    final_tree: TreeNode,
) -> Verdict:
    """Exact composition membership for the Theorem 8.2 class.

    For Skolem mappings over strictly nested-relational DTDs with
    fully-specified stds, the composed mapping is *equal* to the
    composition, so membership reduces to one Skolem-membership check on
    ``compose(M12, M23)`` — no intermediate-tree bound at all, hence
    never ``Unknown``.  Raises :class:`~repro.errors.NotInClassError`
    outside the class (fall back to :func:`composition_contains` there).
    """
    from repro.composition.compose import compose_as_skolem

    composed = compose_as_skolem(m12, m23)
    return is_skolem_solution(composed, source_tree, final_tree)
