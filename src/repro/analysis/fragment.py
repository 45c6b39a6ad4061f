"""Fragment classification and Figure 1–2 complexity-cell prediction.

``engine.solve`` selects an algorithm from the problem type plus the
mapping's ``SM(σ)`` fragment and DTD classification.  This module makes
that selection *static*: :func:`predict_for_problem` (and the per-problem
``predict_*`` functions) compute, without running any solver, which
algorithm the engine will route to, the paper's complexity cell for it,
and whether the route is exact or a sound-but-bounded approximation.

The predicates here are the single source of truth — the engine's
routing functions consult them (see ``repro.engine.core``), so the
linter's predictions cannot drift from the solver's behaviour.  The only
divergence left is dynamic: a route that *starts* exact can still
overflow a budget at run time and fall back (e.g. ``abscons-expansion``
exceeding its expansion limit), which no static analysis can foresee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.cache import dtd_classification
from repro.patterns.ast import Descendant, Pattern, Sequence
from repro.patterns.features import HORIZONTAL, INEQUALITY, is_fully_specified
from repro.values import Const

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
    from repro.mappings.mapping import SchemaMapping


@dataclass(frozen=True)
class CellPrediction:
    """One predicted Figure 1–2 cell.

    ``algorithm`` is the engine route name (``cons-nested``,
    ``abscons-ptime``, ...), ``complexity`` the paper's cell for it, and
    ``exact`` whether the route decides the problem (False = a sound but
    incomplete bounded search, i.e. the undecidable / unpublished
    cells).  ``reason`` is the routing rationale the solve report shows.
    """

    problem: str
    fragment: str
    algorithm: str
    complexity: str
    exact: bool
    reason: str

    @property
    def decidable(self) -> bool:
        """Does the selected route decide the problem outright?"""
        return self.exact

    def describe(self) -> str:
        mode = "exact" if self.exact else "sound but bounded"
        return (
            f"{self.problem} in {self.fragment}: {self.algorithm} — "
            f"{self.complexity} ({mode})"
        )


# ---------------------------------------------------------------------------
# fragment predicates (Figure 1's row labels)
# ---------------------------------------------------------------------------


def uses_constants(mapping: "SchemaMapping") -> bool:
    """Does any pattern of the mapping mention a constant?"""
    return any(
        std._memo("constants", lambda: any(
            isinstance(term, Const)
            for pattern in (std.source, std.target)
            for term in pattern.terms()
        ))
        for std in mapping.stds
    )


def uses_skolem_functions(mapping: "SchemaMapping") -> bool:
    """Does any std use Skolem functions (Section 8 semantics)?"""
    return mapping.uses_skolem_functions()


def nested_ptime_applicable(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> bool:
    """Is the Fact-5.1 PTIME consistency route applicable?

    Requires ``SM(⇓)`` (no horizontal axes, comparisons or constants)
    over nested-relational DTDs; the DTD classification is read through
    the compilation cache.
    """
    if mapping.uses_data_comparisons() or uses_constants(mapping):
        return False
    return _nested_downward(mapping, context)


def _nested_downward(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> bool:
    """No horizontal axes, and both DTDs nested-relational (classification
    read through the compilation cache)."""
    if mapping.signature().features & HORIZONTAL:
        return False
    return (
        dtd_classification(mapping.source_dtd, context).nested_relational
        and dtd_classification(mapping.target_dtd, context).nested_relational
    )


def is_sm0(mapping: "SchemaMapping") -> bool:
    """Value-free ``SM°``: no comparisons, no attribute formulae at all."""
    return all(
        std._memo("value-free", lambda: (
            not std.source_conditions
            and not std.target_conditions
            and all(sub.vars is None for sub in std.source.subpatterns())
            and all(sub.vars is None for sub in std.target.subpatterns())
        ))
        for std in mapping.stds
    )


def in_abscons_ptime_class(mapping: "SchemaMapping") -> bool:
    """The Theorem 6.3 class: SM(↓), fully specified, nested-relational."""
    return (
        not mapping.uses_data_comparisons()
        and mapping.is_fully_specified()
        and mapping.is_nested_relational()
        and not uses_constants(mapping)
    )


def _sources_expandable(mapping: "SchemaMapping") -> bool:
    """Can every source pattern be expanded to fully-specified form?

    Mirrors ``repro.consistency.expansion``: wildcard and descendant are
    handled, horizontal sibling order is not (every sequence must be a
    singleton).
    """

    def expandable(pattern: Pattern) -> bool:
        for item in pattern.items:
            if isinstance(item, Descendant):
                if not expandable(item.pattern):
                    return False
            else:
                assert isinstance(item, Sequence)
                if len(item.elements) != 1:
                    return False
                if not expandable(item.elements[0]):
                    return False
        return True

    return mapping._memo(
        "_sources_expandable",
        lambda: all(expandable(std.source) for std in mapping.stds),
    )


def in_abscons_expansion_class(mapping: "SchemaMapping") -> bool:
    """The source-expansion route: ⇓-sources over nested-relational DTDs.

    Targets must be fully specified; sources may use wildcard and
    descendant (expanded away), but no horizontal order.  The run-time
    route can additionally overflow its expansion limit, which a static
    check cannot foresee.
    """
    return (
        not mapping.uses_data_comparisons()
        and not uses_constants(mapping)
        and mapping.is_nested_relational()
        and all(is_fully_specified(std.target) for std in mapping.stds)
        and _sources_expandable(mapping)
    )


def in_composable_class(mapping: "SchemaMapping") -> bool:
    """The Theorem 8.2 composition-closed class.

    Strictly nested-relational DTDs, fully-specified stds, equality only
    (mirrors ``SkolemMapping.check_composable_class``).
    """
    return (
        mapping.source_dtd.is_strictly_nested_relational()
        and mapping.target_dtd.is_strictly_nested_relational()
        and mapping.is_fully_specified()
        and INEQUALITY not in mapping.signature().features
    )


def chain_comparison_free(mappings: tuple["SchemaMapping", ...]) -> bool:
    """Is the whole chain inside SM(⇓,⇒) (no comparisons, no constants)?"""
    return all(
        not mapping.uses_data_comparisons() and not uses_constants(mapping)
        for mapping in mappings
    )


# ---------------------------------------------------------------------------
# per-problem cell prediction
# ---------------------------------------------------------------------------


def predict_consistency(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> CellPrediction:
    """The Figure 1 CONS cell the engine will route to."""
    fragment = str(mapping.signature())
    if not mapping.uses_data_comparisons() and not uses_constants(mapping):
        if nested_ptime_applicable(mapping, context):
            return CellPrediction(
                "CONS", fragment, "cons-nested", "PTIME (Fact 5.1)", True,
                "SM(⇓) over nested-relational DTDs: PTIME via the "
                "minimal tree (Fact 5.1)",
            )
        return CellPrediction(
            "CONS", fragment, "cons-automata",
            "EXPTIME-complete (Theorem 5.2)", True,
            "no data comparisons or constants: exact trigger-set "
            "automata (Theorem 5.2, EXPTIME)",
        )
    search = (
        "sound witness search over source trees up to max_source_size, one "
        "per equality type, each decided exactly by its canonical solution "
        "where that is complete, else by a target search up to "
        "max_target_size"
    )
    if _nested_downward(mapping, context):
        return CellPrediction(
            "CONS", fragment, "cons-bounded",
            "NEXPTIME-complete (Theorem 5.5)", False,
            "data comparisons or constants over nested-relational DTDs: "
            "decidable (Theorem 5.5), but answered here by a " + search,
        )
    return CellPrediction(
        "CONS", fragment, "cons-bounded",
        "undecidable in general (Theorems 5.4/5.5)", False,
        f"data comparisons or constants: {search} (Theorems 5.4/5.5)",
    )


def predict_abscons(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> CellPrediction:
    """The Figure 1 ABSCONS cell the engine will route to."""
    fragment = str(mapping.signature())
    if is_sm0(mapping):
        return CellPrediction(
            "ABSCONS", fragment, "abscons-sm0",
            "EXPTIME (Proposition 6.1)", True,
            "value-free SM° mapping: exact trigger-set coverage "
            "(Proposition 6.1)",
        )
    if in_abscons_ptime_class(mapping):
        return CellPrediction(
            "ABSCONS", fragment, "abscons-ptime",
            "PTIME (Theorem 6.3)", True,
            "nested-relational + fully specified: exact rigidity "
            "analysis (Theorem 6.3, PTIME)",
        )
    if in_abscons_expansion_class(mapping):
        return CellPrediction(
            "ABSCONS", fragment, "abscons-expansion",
            "NEXPTIME (source expansion + Theorem 6.3 analysis)", True,
            "⇓-sources over non-recursive DTDs: exact via "
            "source expansion + rigidity analysis",
        )
    return CellPrediction(
        "ABSCONS", fragment, "abscons-bounded",
        "EXPSPACE upper bound (Theorem 6.2), construction unpublished",
        False,
        "outside every exact class: source trees up to max_source_size, "
        "one per equality type, each decided exactly (canonical solution, "
        "or joint satisfiability of its obligations); refutations never "
        "depend on max_target_size (Theorem 6.2 gives EXPSPACE, "
        "construction unpublished)",
    )


def predict_membership(mapping: "SchemaMapping") -> CellPrediction:
    """The Figure 2 membership cell the engine will route to."""
    fragment = str(mapping.signature())
    if uses_skolem_functions(mapping):
        return CellPrediction(
            "MEMBERSHIP", fragment, "membership-skolem",
            "NP combined complexity (Section 8 valuations)", True,
            "Skolem stds: backtracking valuation of the shared "
            "unknowns (Section 8)",
        )
    return CellPrediction(
        "MEMBERSHIP", fragment, "membership",
        "PTIME data complexity, NP-complete combined (Theorem 4.4)", True,
        "plain stds: conformance plus one semi-join per std "
        "(Definition 3.2)",
    )


def predict_composition_membership(
    m12: "SchemaMapping", m23: "SchemaMapping"
) -> CellPrediction:
    """The Figure 2 composition-membership cell the engine will route to."""
    fragment = f"{m12.signature()} ∘ {m23.signature()}"
    if in_composable_class(m12) and in_composable_class(m23):
        return CellPrediction(
            "COMPOSITION-MEMBERSHIP", fragment, "composition-exact",
            "NP combined complexity via the composed Skolem mapping "
            "(Theorem 8.2)", True,
            "Theorem 8.2 class: membership via the composed Skolem mapping",
        )
    return CellPrediction(
        "COMPOSITION-MEMBERSHIP", fragment, "composition-bounded",
        "NEXPTIME-complete combined complexity (Theorem 7.2); "
        "approximated by a bounded search", False,
        "outside the Theorem 8.2 class: bounded intermediate-tree "
        "search with the finite value abstraction (Section 7.2)",
    )


def predict_composition_consistency(
    mappings: tuple["SchemaMapping", ...],
) -> CellPrediction:
    """The CONSCOMP cell (Theorem 7.1) the engine will route to."""
    fragment = " ∘ ".join(str(mapping.signature()) for mapping in mappings)
    if chain_comparison_free(tuple(mappings)):
        return CellPrediction(
            "CONSCOMP", fragment, "conscomp-automata",
            "EXPTIME (Theorem 7.1(1))", True,
            "comparison-free chain: exact staged trigger-set chaining "
            "(Theorem 7.1(1), EXPTIME)",
        )
    return CellPrediction(
        "CONSCOMP", fragment, "conscomp-bounded",
        "undecidable (Theorem 7.1(2))", False,
        "comparisons or constants in the chain: sound bounded "
        "witness-chain search (the problem is undecidable, Theorem 7.1(2))",
    )


def predict_satisfiability() -> CellPrediction:
    return CellPrediction(
        "SAT", "patterns", "pattern-sat",
        "NP-complete (Lemma 4.1), decided exactly", True,
        "closure-automaton reachability with tag lifting (Lemma 4.1)",
    )


def predict_separation() -> CellPrediction:
    return CellPrediction(
        "SEPARATION", "patterns", "separation",
        "EXPTIME (Section 9)", True,
        "joint closure automaton over P+ ∪ P-: conforming root state "
        "containing P+ and avoiding P- (Section 9)",
    )


def predict_for_problem(
    problem: Any, context: "ExecutionContext | None" = None
) -> CellPrediction:
    """Dispatch :func:`predict_*` on an engine problem object."""
    from repro.engine.problems import (
        AbsoluteConsistencyProblem,
        CompositionConsistencyProblem,
        CompositionMembershipProblem,
        ConsistencyProblem,
        MembershipProblem,
        SatisfiabilityProblem,
        SeparationProblem,
    )

    if isinstance(problem, ConsistencyProblem):
        return predict_consistency(problem.mapping, context)
    if isinstance(problem, AbsoluteConsistencyProblem):
        return predict_abscons(problem.mapping, context)
    if isinstance(problem, MembershipProblem):
        return predict_membership(problem.mapping)
    if isinstance(problem, CompositionMembershipProblem):
        return predict_composition_membership(problem.m12, problem.m23)
    if isinstance(problem, CompositionConsistencyProblem):
        return predict_composition_consistency(problem.mappings)
    if isinstance(problem, SatisfiabilityProblem):
        return predict_satisfiability()
    if isinstance(problem, SeparationProblem):
        return predict_separation()
    raise TypeError(f"cannot predict a cell for {type(problem).__name__}")
