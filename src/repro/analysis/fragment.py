"""Fragment classification and Figure 1–2 complexity-cell prediction.

``engine.solve`` selects an algorithm from the problem type plus the
mapping's ``SM(σ)`` fragment and DTD classification.  This module makes
that selection *static*: :func:`predict_for_problem` (and the per-problem
``predict_*`` functions) compute, without running any solver, which
algorithm the engine will route to, the paper's complexity cell for it,
and whether the route is exact or a sound-but-bounded approximation.

This is the one place a cell's class is decided.  Each class test
returns the first condition a mapping (for satisfiability, a DTD and a
pattern: :func:`nested_sat_violation`) violates, as a message, or None
inside the class; the boolean predicates read it, the engine routes
every problem from the prediction alone, and each route's guard raises
the same message through :func:`require`, so a direct call outside the
class gets a typed error.  Prediction and routing therefore agree by
construction, with one run-time exception: ``abscons-expansion`` can
overflow its expansion limit, and the engine then falls back to
``abscons-bounded``, which no static analysis can foresee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.engine.cache import dtd_classification
from repro.errors import SignatureError, XsmError
from repro.patterns.ast import Pattern, Sequence
from repro.patterns.features import HORIZONTAL, INEQUALITY, is_fully_specified
from repro.values import Const, SkolemTerm

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
    from repro.mappings.mapping import SchemaMapping
    from repro.xmlmodel.dtd import DTD


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
# fragment facts (Figure 1's row labels)
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


def _nested_downward_violation(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> str | None:
    """No horizontal axes, and both DTDs nested-relational (classification
    read through the compilation cache)."""
    if mapping.signature().features & HORIZONTAL:
        return "horizontal axes are outside CONS(⇓)"
    for side, dtd in (("source", mapping.source_dtd), ("target", mapping.target_dtd)):
        if not dtd_classification(dtd, context).nested_relational:
            return f"{side} DTD is not nested-relational"
    return None


# ---------------------------------------------------------------------------
# class tests: one per Figure 1–2 cell
# ---------------------------------------------------------------------------


def require(
    violation: str | None, error: type[XsmError] = SignatureError
) -> None:
    """A route's class guard: raise *error* naming the violated condition."""
    if violation is not None:
        raise error(violation)


def _class_test(
    test: Callable[["SchemaMapping"], str | None],
) -> Callable[["SchemaMapping"], str | None]:
    """Memoize a mapping's class test on the mapping ("" = in the class):
    the prediction, the route guard and the linter all ask it."""
    name = f"_{test.__name__}"

    @wraps(test)
    def memoized(mapping: "SchemaMapping") -> str | None:
        return mapping._memo(name, lambda: test(mapping) or "") or None

    return memoized


@_class_test
def comparison_free_violation(mapping: "SchemaMapping") -> str | None:
    """``SM(⇓,⇒)`` (Theorem 5.2, and every stage of Theorem 7.1(1)):
    no data comparisons and no constants."""
    if mapping.uses_data_comparisons():
        return (
            "data comparisons are outside SM(⇓,⇒); the bounded procedures "
            "handle SM(..,∼)"
        )
    if uses_constants(mapping):
        return "constants in patterns are outside SM(⇓,⇒)"
    return None


def nested_ptime_violation(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> str | None:
    """Fact 5.1's class: ``SM(⇓)`` (no horizontal axes, comparisons or
    constants) over nested-relational DTDs.  Not memoized: the DTD
    classification is read through *context*'s compilation cache."""
    return comparison_free_violation(mapping) or _nested_downward_violation(
        mapping, context
    )


def _attribute_free(std: Any) -> bool:
    return std._memo("attribute-free", lambda: all(
        sub.vars is None
        for pattern in (std.source, std.target)
        for sub in pattern.subpatterns()
    ))


@_class_test
def sm0_violation(mapping: "SchemaMapping") -> str | None:
    """Proposition 6.1's value-free ``SM°``: no comparison formulae and no
    attribute formulae at all."""
    for std in mapping.stds:
        if std.source_conditions or std.target_conditions:
            return "SM° mappings have no comparison formulae"
        if not _attribute_free(std):
            return "SM° mappings mention no attributes; call .strip_values()"
    return None


@_class_test
def abscons_ptime_violation(mapping: "SchemaMapping") -> str | None:
    """Theorem 6.3's class: ``SM(↓)``, fully specified, nested-relational."""
    if mapping.uses_data_comparisons():
        return "the PTIME ABSCONS algorithm handles SM(↓) without ∼"
    if not mapping.is_fully_specified():
        return "stds must be fully specified (Theorem 6.3)"
    if not mapping.is_nested_relational():
        return "both DTDs must be nested-relational (Theorem 6.3)"
    if uses_constants(mapping):
        return "constants are outside SM(↓)"
    return None


def expansion_violation(dtd: "DTD", pattern: Pattern) -> str | None:
    """Can *pattern* expand over *dtd* into fully-specified patterns?

    Wildcard and descendant expand; horizontal sibling order does not
    (every sequence must be a singleton), and a recursive DTD has
    infinitely many label paths.
    """
    if dtd.is_recursive():
        return "expansion requires a non-recursive DTD"
    if any(
        isinstance(item, Sequence) and len(item.elements) != 1
        for sub in pattern.subpatterns()
        for item in sub.items
    ):
        return "expansion handles the ⇓ fragment only (no → / →*)"
    return None


def nested_sat_violation(dtd: "DTD", pattern: Pattern) -> str | None:
    """The ``pattern-sat-nested`` class: a nested-relational DTD and a
    ``⇓`` pattern without constants or Skolem terms.

    Every list item must be a ``//π`` or a one-element sequence (no
    sibling order); wildcards and repeated variables are allowed.  Not
    memoized: the DTD keeps its classification on the instance, and the
    pattern scan is linear.
    """
    if not dtd.is_nested_relational():
        return "the DTD is not nested-relational"
    for sub in pattern.subpatterns():
        for term in sub.vars or ():
            if isinstance(term, Const):
                return "constants are outside the embedding class (tag lifting)"
            if isinstance(term, SkolemTerm):
                return "Skolem terms are outside Lemma 4.1"
        if any(
            isinstance(item, Sequence) and len(item.elements) != 1
            for item in sub.items
        ):
            return "sibling order (→ / →*) is outside the embedding class"
    return None


@_class_test
def abscons_expansion_violation(mapping: "SchemaMapping") -> str | None:
    """The source-expansion route: ⇓-sources over nested-relational DTDs.

    Targets must be fully specified; sources may use wildcard and
    descendant (expanded away), but no horizontal order.
    """
    if mapping.uses_data_comparisons():
        return "source expansion handles SM(⇓) without ∼"
    if uses_constants(mapping):
        return "constants are outside SM(⇓)"
    if not mapping.is_nested_relational():
        return "both DTDs must be nested-relational (Theorem 6.3)"
    if not all(is_fully_specified(std.target) for std in mapping.stds):
        return "targets must be fully specified; only sources expand"
    return next(
        filter(None, (
            expansion_violation(mapping.source_dtd, std.source)
            for std in mapping.stds
        )),
        None,
    )


@_class_test
def composable_violation(mapping: "SchemaMapping") -> str | None:
    """The Theorem 8.2 composition-closed class: strictly
    nested-relational DTDs, fully-specified stds, equality only."""
    if not mapping.source_dtd.is_strictly_nested_relational():
        return "source DTD is not strictly nested-relational"
    if not mapping.target_dtd.is_strictly_nested_relational():
        return "target DTD is not strictly nested-relational"
    if not mapping.is_fully_specified():
        return "stds must be fully specified (grammar (5))"
    if INEQUALITY in mapping.signature().features:
        return "inequalities are not allowed in the composable class"
    return None


def composition_violation(
    m12: "SchemaMapping", m23: "SchemaMapping"
) -> str | None:
    """The class ``compose`` handles: both mappings composable, and a
    middle DTD whose attribute-carrying elements occur only under ``*``.

    A ``+``-filler or a value on a rigid path would exist in every middle
    tree without any requirement introducing it, and the composed stds
    cannot name it.
    """
    violation = composable_violation(m12) or composable_violation(m23)
    if violation is not None:
        return violation
    middle = m12.target_dtd
    for label, row in middle.multiplicities().items():
        for child, multiplicity in row.items():
            if multiplicity == "+":
                return (
                    "composition does not support '+' in the middle DTD "
                    "(a forced filler node would carry unnameable values); "
                    "use '*' with an explicit requirement instead"
                )
            if multiplicity in ("1", "?") and middle.arity(child) > 0:
                return (
                    f"middle DTD puts the attribute-carrying element "
                    f"{child!r} at a non-starred position under {label!r}; "
                    "the composable class requires attribute-carrying "
                    "elements to occur only under '*'"
                )
    return None


def chain_violation(mappings: Iterable["SchemaMapping"]) -> str | None:
    """Theorem 7.1(1)'s class: every mapping of the chain in ``SM(⇓,⇒)``."""
    return next(filter(None, map(comparison_free_violation, mappings)), None)


@_class_test
def canonical_violation(mapping: "SchemaMapping") -> str | None:
    """The canonical-solution class of [4]: fully-specified stds, a
    nested-relational target DTD and no target conditions (source
    conditions only choose which source matches fire)."""
    if not mapping.is_fully_specified():
        return "canonical solutions require fully-specified stds (grammar (5))"
    if not mapping.target_dtd.is_nested_relational():
        return "canonical solutions require a nested-relational target DTD"
    if any(std.target_conditions for std in mapping.stds):
        return (
            "canonical solutions are defined for stds without target "
            "conditions (the tractable class of [4])"
        )
    return None


# ---------------------------------------------------------------------------
# predicates: the class tests read as booleans
# ---------------------------------------------------------------------------


def nested_ptime_applicable(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> bool:
    """Is the Fact-5.1 PTIME consistency route applicable?"""
    return nested_ptime_violation(mapping, context) is None


def is_sm0(mapping: "SchemaMapping") -> bool:
    """Value-free ``SM°``: no comparisons, no attribute formulae at all."""
    return sm0_violation(mapping) is None


def in_abscons_ptime_class(mapping: "SchemaMapping") -> bool:
    """The Theorem 6.3 class: SM(↓), fully specified, nested-relational."""
    return abscons_ptime_violation(mapping) is None


def in_abscons_expansion_class(mapping: "SchemaMapping") -> bool:
    """The source-expansion route's class (see
    :func:`abscons_expansion_violation`)."""
    return abscons_expansion_violation(mapping) is None


def in_composable_class(mapping: "SchemaMapping") -> bool:
    """The Theorem 8.2 composition-closed class."""
    return composable_violation(mapping) is None


def chain_comparison_free(mappings: tuple["SchemaMapping", ...]) -> bool:
    """Is the whole chain inside SM(⇓,⇒) (no comparisons, no constants)?"""
    return chain_violation(mappings) is None


# ---------------------------------------------------------------------------
# per-problem cell prediction
# ---------------------------------------------------------------------------


def predict_consistency(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> CellPrediction:
    """The Figure 1 CONS cell the engine will route to."""
    fragment = str(mapping.signature())
    if comparison_free_violation(mapping) is None:
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
    if _nested_downward_violation(mapping, context) is None:
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
    if composition_violation(m12, m23) is None:
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


def predict_satisfiability(dtd: "DTD", pattern: Pattern) -> CellPrediction:
    """The SAT cell the engine will route to: the embedding pass inside
    :func:`nested_sat_violation`'s class, Lemma 4.1's automata outside."""
    if nested_sat_violation(dtd, pattern) is None:
        return CellPrediction(
            "SAT", "patterns", "pattern-sat-nested",
            "PTIME over nested-relational DTDs (Fact 5.1's argument)", True,
            "constant-free ⇓ pattern over a nested-relational DTD: one "
            "embedding pass, O(|π|·|D|) (productions never forbid a "
            "combination of children)",
        )
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
        return predict_satisfiability(problem.dtd, problem.pattern)
    if isinstance(problem, SeparationProblem):
        return predict_separation()
    raise TypeError(f"cannot predict a cell for {type(problem).__name__}")
