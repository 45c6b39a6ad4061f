"""Bounded consistency search for mappings with data comparisons.

For ``SM(⇓, ∼)`` over nested-relational DTDs the paper proves
NEXPTIME-completeness (Theorem 5.5): a consistent mapping has a witness of
at most exponential size, found by guess-and-check.  For the classes with
both horizontal axes and comparisons the problem is undecidable
(Theorem 5.4), so *no* terminating complete procedure exists.

This module is the package's one bounded search: a source loop
(:func:`decided_sources`, for CONS and ABSCONS) and a target generator
(:func:`bounded_solutions`, for CONS, CONSCOMP and composition
membership).  Two reductions keep it small (DESIGN.md, "Bounded
CONS/ABSCONS"):

* **trees up to renaming** — comparisons are ``=``/``≠`` and constants,
  so renaming the values outside a fixed set never changes an answer;
  :func:`~repro.consistency.enumeration.enumerate_reduced_trees` tries
  one tree per equality type in the brute-force order, so the first
  witness is the brute-force search's first;
* **an exact per-source check** (:func:`decide_source`) — for
  fully-specified stds over a nested-relational target DTD with no target
  conditions or Skolem terms, the canonical solution
  (:func:`~repro.exchange.canonical.canonical_solution`) decides whether
  the source has a solution at all, whatever that solution's size;
  otherwise joint satisfiability of the source's grounded obligations
  under the target DTD does, unless target conditions or Skolem terms
  leave it open.  Only then does a bounded target search stand in.

The procedure is

* **sound**: a returned witness pair really is in ``[[M]]``;
* **complete up to its source bound** (and its target bound where no
  exact test applies): ``None`` means no witness within the bounds, which
  refutes consistency only if the caller knows a witness would have to
  fit (the undecidable classes never get that guarantee — this is exactly
  the semi-decision procedure the theory allows).

The value domain is the mapping's constants plus ``max-variables + 1``
fresh values: a single std can distinguish at most as many values as it
has variables, so per-std this domain is exhaustive; extra distinct values
never help the source side trigger fewer stds.
"""

from __future__ import annotations

from typing import Iterator

from repro.consistency.enumeration import enumerate_reduced_trees
from repro.engine.budget import ExecutionContext, resolve_budget, resolve_context
from repro.engine.verdicts import Proved, Unknown, Verdict, WitnessPair
from repro.exchange.canonical import (
    canonical_for_requirements,
    decides_solutions,
    ground_nulls,
)
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker
from repro.mappings.skolem import solution_checker
from repro.mappings.std import STD
from repro.patterns.ast import WILDCARD, Pattern
from repro.values import Const, SkolemTerm, Var
from repro.xmlmodel.tree import TreeNode


def mapping_constants(mapping: SchemaMapping) -> tuple[object, ...]:
    """Every constant of the patterns and comparisons (Skolem-term arguments
    included) in order of appearance, memoized on the mapping."""

    def constants(terms):
        for term in terms:
            if isinstance(term, SkolemTerm):
                yield from constants(term.args)
            elif isinstance(term, Const):
                yield term.value

    def collect():
        for std in mapping.stds:
            yield from constants(std.source.terms())
            yield from constants(std.target.terms())
            for comparison in std.source_conditions + std.target_conditions:
                yield from constants((comparison.left, comparison.right))

    return mapping._memo("_constants", lambda: tuple(dict.fromkeys(collect())))


def _max_variables(mapping: SchemaMapping) -> int:
    counts = [
        len(set(std.source_variables()) | set(std.target_variables()))
        for std in mapping.stds
    ]
    return max(counts, default=0)


def default_value_domain(mapping: SchemaMapping) -> tuple:
    """Constants plus ``max-variables + 1`` fresh values."""
    fresh = tuple(f"#v{i}" for i in range(_max_variables(mapping) + 1))
    return mapping_constants(mapping) + fresh


def bounded_solutions(
    mapping: SchemaMapping,
    source: TreeNode,
    max_size: int,
    domain: tuple,
    fixed: frozenset,
    context: ExecutionContext | None = None,
) -> Iterator[TreeNode]:
    """Every solution for *source* of at most *max_size* nodes over
    *domain*, one per orbit of the renamings that fix *fixed* (the
    source's values and the constants of every mapping the caller checks
    solutions against), in the brute-force order; one charge per target
    tried.  The checker follows the mapping's semantics (Skolem or not)."""
    checker = solution_checker(mapping, source)
    for target in enumerate_reduced_trees(mapping.target_dtd, max_size, domain, fixed):
        if context is not None:
            context.charge()
        if checker.is_solution_for(target, check_conformance=False):
            yield target


def _joint_obligations(
    target_root: str, obligations: list[tuple[STD, list[dict]]]
) -> Pattern | None:
    """One target pattern that a tree matches iff it meets every obligation.

    Each export's target pattern gets the exported values as constants
    and its other variables renamed apart; the patterns are then merged
    at the root (their lists concatenated, their root terms unified).
    Target conditions are dropped.  None when no tree can match (a root
    label other than *target_root*, or two distinct root constants).
    """
    items: list = []
    root_terms: tuple | None = None
    bound: dict[Var, object] = {}  # root unification: variable -> term

    def resolve(term):
        while isinstance(term, Var) and term in bound:
            term = bound[term]
        return term

    count = 0
    for std, exports in obligations:
        for exported in exports:
            pattern = std.target.substitute(exported)
            pattern = pattern.rename_variables(
                {var: Var(f"{var.name}#{count}") for var in pattern.variables()}
            )
            count += 1
            if pattern.label not in (target_root, WILDCARD):
                return None
            items.extend(pattern.items)
            if pattern.vars is None:
                continue
            if root_terms is None:
                root_terms = pattern.vars
                continue
            if len(pattern.vars) != len(root_terms):
                return None
            for left, right in zip(root_terms, pattern.vars):
                left, right = resolve(left), resolve(right)
                if left == right:
                    continue
                if isinstance(left, Var):
                    bound[left] = right
                elif isinstance(right, Var):
                    bound[right] = left
                else:
                    return None
    joint = Pattern(target_root, root_terms, tuple(items))
    if not bound:
        return joint
    resolved = {var: resolve(var) for var in bound}
    return joint.substitute(
        {var: term.value for var, term in resolved.items() if isinstance(term, Const)}
    ).rename_variables(
        {var: term for var, term in resolved.items() if isinstance(term, Var)}
    )


def decide_source(
    mapping: SchemaMapping,
    source: TreeNode,
    context: ExecutionContext | None = None,
    memo: dict | None = None,
) -> tuple[bool, TreeNode | None]:
    """``(decided, solution)``: whether an exact test settles if *source*
    has a solution of any size, and if so one such solution (None: none
    exists at all).

    Where :func:`~repro.exchange.canonical.decides_solutions` holds, the
    canonical solution answers.  Otherwise a tree is a solution iff it
    matches :func:`_joint_obligations` and meets the target conditions,
    so that pattern's satisfiability under ``D_t`` (exact, Lemma 4.1)
    answers: unsatisfiable means no solution; a satisfying tree is a
    solution unless it misses a target condition, which leaves the
    source undecided, as do Skolem terms.  *memo* keeps answers across
    calls by obligation set, on which they alone depend; solutions get
    plain fresh values per source.  One expansion is charged per call.
    """
    if context is not None:
        context.charge()
    if mapping.uses_skolem_functions():
        return False, None
    checker = SolutionChecker(mapping, source)
    key = frozenset(
        (index, frozenset(frozenset(exported.items()) for exported in exports))
        for index, (__, exports) in enumerate(checker.obligations)
        if exports
    )
    memo = memo if memo is not None else {}
    if key not in memo:
        memo[key] = _decide_obligations(mapping, checker, context)
    decided, solution = memo[key]
    if solution is None:
        return decided, None
    taken = source.adom() | frozenset(mapping_constants(mapping))
    return True, ground_nulls(solution, taken)


def _decide_obligations(
    mapping: SchemaMapping,
    checker: SolutionChecker,
    context: ExecutionContext | None,
) -> tuple[bool, TreeNode | None]:
    """:func:`decide_source` for the source of *checker*, nulls ungrounded."""
    from repro.patterns.satisfiability import satisfying_tree

    if decides_solutions(mapping):
        requirements = [(std, e) for std, exports in checker.obligations for e in exports]
        return True, canonical_for_requirements(mapping, requirements)
    joint = _joint_obligations(mapping.target_dtd.root, checker.obligations)
    if joint is None:
        return True, None
    solution = satisfying_tree(mapping.target_dtd, joint, context)
    if solution is not None and not checker.is_solution_for(solution):
        return False, None
    return True, solution


def decided_sources(
    mapping: SchemaMapping,
    max_source_size: int,
    value_domain: tuple,
    context: ExecutionContext | None = None,
) -> Iterator[tuple[TreeNode, bool, TreeNode | None]]:
    """``(source, decided, solution)`` per source tree up to renaming, in
    the brute-force order, with :func:`decide_source`'s answer; one charge
    per source."""
    memo: dict = {}
    for source in enumerate_reduced_trees(
        mapping.source_dtd, max_source_size, value_domain, mapping_constants(mapping)
    ):
        if context is not None:
            context.charge()
        decided, solution = decide_source(mapping, source, context, memo)
        yield source, decided, solution


def find_consistency_witness_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    context: ExecutionContext | None = None,
) -> tuple[TreeNode, TreeNode] | None:
    """Search for ``(T, T') ∈ [[M]]`` within the size bounds (default: the
    context's :class:`~repro.engine.budget.Budget`): the first source of
    :func:`decided_sources` with a solution, taking the first of
    :func:`bounded_solutions` where no exact test applies."""
    budget = resolve_budget(context)
    context = resolve_context(context)
    if max_source_size is None:
        max_source_size = budget.max_source_size
    if max_target_size is None:
        max_target_size = budget.max_target_size
    if value_domain is None:
        value_domain = default_value_domain(mapping)
    constants = frozenset(mapping_constants(mapping))
    for source, decided, target in decided_sources(
        mapping, max_source_size, value_domain, context
    ):
        if not decided:
            fixed = source.adom() | constants
            target = next(bounded_solutions(
                mapping, source, max_target_size, value_domain, fixed, context
            ), None)
        if target is not None:
            return source, target
    return None


def is_consistent_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    context: ExecutionContext | None = None,
) -> Verdict:
    """``Proved`` with a witness pair, or ``Unknown`` when the bounds are out.

    The search is sound but complete only up to its bounds (module doc),
    so exhausting them yields ``Unknown`` — never a refutation.
    """
    witness = find_consistency_witness_bounded(
        mapping, max_source_size, max_target_size, value_domain, context
    )
    if witness is not None:
        return Proved(WitnessPair(*witness))
    budget = resolve_budget(context)
    bounds = (
        f"source trees of at most {max_source_size or budget.max_source_size} "
        "nodes, each decided exactly where an exact test applies, else by "
        f"targets of at most {max_target_size or budget.max_target_size} nodes"
    )
    from repro.analysis.fragment import predict_consistency

    cell = predict_consistency(mapping, context).complexity
    return Unknown(
        f"no witness within the search bounds ({bounds}); the class's CONS "
        f"cell is {cell}, and a bounded search cannot refute it",
        bound_exhausted=True,
    )
