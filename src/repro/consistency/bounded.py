"""Bounded consistency search for mappings with data comparisons.

For ``SM(⇓, ∼)`` over nested-relational DTDs the paper proves
NEXPTIME-completeness (Theorem 5.5): a consistent mapping has a witness of
at most exponential size, found by guess-and-check.  For the classes with
both horizontal axes and comparisons the problem is undecidable
(Theorem 5.4), so *no* terminating complete procedure exists.

This module implements the guess-and-check: enumerate source trees up to
a size bound over a finite value domain, and decide for each whether it
has a solution.  Two reductions keep it small (DESIGN.md, "Bounded
CONS/ABSCONS"):

* **sources up to renaming** — comparisons are ``=``/``≠`` and constants,
  so renaming the non-constant values of a source tree never changes its
  answer; :func:`~repro.consistency.enumeration.enumerate_reduced_trees`
  tries one source per equality type (a restricted-growth string over the
  non-constant values), in the brute-force order, so the first witness
  source is the brute-force search's first;
* **an exact per-source check** (:func:`decide_source`) — for
  fully-specified stds over a nested-relational target DTD with no target
  conditions or Skolem terms, the canonical solution
  (:func:`~repro.exchange.canonical.canonical_solution`) decides whether
  the source has a solution at all, whatever that solution's size;
  otherwise joint satisfiability of the source's grounded obligations
  under the target DTD does, unless target conditions or Skolem terms
  leave it open.  Only then does a bounded target search (targets also
  enumerated up to renamings that fix the source's values) stand in.

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

from typing import Callable

from repro.consistency.enumeration import enumerate_reduced_trees
from repro.engine.budget import ExecutionContext, resolve_budget, resolve_context
from repro.engine.verdicts import Proved, Unknown, Verdict, WitnessPair
from repro.exchange.canonical import (
    canonical_solution,
    decides_solutions,
    ground_nulls,
)
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker
from repro.mappings.skolem import SkolemSolutionChecker
from repro.mappings.std import STD
from repro.patterns.ast import WILDCARD, Pattern
from repro.values import Const, Var
from repro.xmlmodel.tree import TreeNode


def mapping_constants(mapping: SchemaMapping) -> list[object]:
    """All constants appearing in patterns or comparisons, deduplicated."""
    constants: dict[object, None] = {}
    for std in mapping.stds:
        for pattern in (std.source, std.target):
            for term in pattern.terms():
                if isinstance(term, Const):
                    constants.setdefault(term.value, None)
        for comparison in std.source_conditions + std.target_conditions:
            for term in (comparison.left, comparison.right):
                if isinstance(term, Const):
                    constants.setdefault(term.value, None)
    return list(constants)


def _max_variables(mapping: SchemaMapping) -> int:
    counts = [
        len(set(std.source_variables()) | set(std.target_variables()))
        for std in mapping.stds
    ]
    return max(counts, default=0)


def default_value_domain(mapping: SchemaMapping) -> tuple:
    """Constants plus ``max-variables + 1`` fresh values."""
    fresh = tuple(f"#v{i}" for i in range(_max_variables(mapping) + 1))
    return tuple(mapping_constants(mapping)) + fresh


def bounded_solution(
    mapping: SchemaMapping,
    source: TreeNode,
    max_target_size: int,
    domain: tuple,
    skolem: bool = False,
    context: ExecutionContext | None = None,
) -> TreeNode | None:
    """The first solution for *source* of at most *max_target_size* nodes
    over *domain*, or None.

    Targets are tried up to the renamings that fix the mapping's constants
    and the source's values (solutions are closed under them), one
    :meth:`~repro.engine.budget.ExecutionContext.charge` each.
    """
    checker = (SkolemSolutionChecker if skolem else SolutionChecker)(mapping, source)
    fixed = source.adom() | frozenset(mapping_constants(mapping))
    for target in enumerate_reduced_trees(
        mapping.target_dtd, max_target_size, domain, fixed
    ):
        if context is not None:
            context.charge()
        if checker.is_solution_for(target, check_conformance=False):
            return target
    return None


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
    source undecided, as do Skolem terms.  Solutions carry plain fresh
    values in place of labelled nulls.  One expansion is charged; *memo*
    keeps satisfying trees by joint pattern across calls.
    """
    from repro.patterns.satisfiability import satisfying_tree

    if context is not None:
        context.charge()
    if decides_solutions(mapping):
        solution = canonical_solution(mapping, source)
    elif mapping.uses_skolem_functions():
        return False, None
    else:
        checker = SolutionChecker(mapping, source)
        joint = _joint_obligations(mapping.target_dtd.root, checker.obligations)
        if joint is None:
            return True, None
        memo = memo if memo is not None else {}
        if joint not in memo:
            memo[joint] = satisfying_tree(mapping.target_dtd, joint, context)
        solution = memo[joint]
        if solution is not None and not checker.is_solution_for(solution):
            return False, None
    if solution is None:
        return True, None
    taken = source.adom() | frozenset(mapping_constants(mapping))
    return True, ground_nulls(solution, taken)


def find_consistency_witness_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    skolem: bool = False,
    on_candidate: Callable[[TreeNode], None] | None = None,
    context: ExecutionContext | None = None,
) -> tuple[TreeNode, TreeNode] | None:
    """Search for ``(T, T') ∈ [[M]]`` within the size bounds.

    Sources are tried up to renaming; each is decided exactly by
    :func:`decide_source` where an exact test applies (*max_target_size*
    is then unused), else by :func:`bounded_solution`.  Bounds default to
    the context's :class:`~repro.engine.budget.Budget`.  *on_candidate*
    is called on every source tree tried (used by the benchmarks to
    report search effort).
    """
    budget = resolve_budget(context)
    context = resolve_context(context)
    if max_source_size is None:
        max_source_size = budget.max_source_size
    if max_target_size is None:
        max_target_size = budget.max_target_size
    if value_domain is None:
        value_domain = default_value_domain(mapping)
    memo: dict = {}
    for source in enumerate_reduced_trees(
        mapping.source_dtd, max_source_size, value_domain, mapping_constants(mapping)
    ):
        if context is not None:
            context.charge()
        if on_candidate is not None:
            on_candidate(source)
        decided, target = decide_source(mapping, source, context, memo)
        if not decided:
            target = bounded_solution(
                mapping, source, max_target_size, tuple(value_domain), skolem, context
            )
        if target is not None:
            return source, target
    return None


def is_consistent_bounded(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    value_domain: tuple | None = None,
    skolem: bool = False,
    context: ExecutionContext | None = None,
) -> Verdict:
    """``Proved`` with a witness pair, or ``Unknown`` when the bounds are out.

    The search is sound but complete only up to its bounds (module doc),
    so exhausting them yields ``Unknown`` — never a refutation.
    """
    witness = find_consistency_witness_bounded(
        mapping, max_source_size, max_target_size, value_domain, skolem,
        context=context,
    )
    if witness is not None:
        return Proved(WitnessPair(*witness))
    budget = resolve_budget(context)
    bounds = (
        f"source trees of at most {max_source_size or budget.max_source_size} "
        "nodes, each decided exactly where an exact test applies, else by "
        f"targets of at most {max_target_size or budget.max_target_size} nodes"
    )
    return Unknown(
        f"no witness within the search bounds ({bounds}); the class admits "
        "no complete procedure (Theorem 5.4)",
        bound_exhausted=True,
    )
