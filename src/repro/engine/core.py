"""``engine.solve``: the single front door of every decision procedure.

Routing follows Figures 1–2 of the paper: the problem type plus the
mapping's ``SM(σ)`` fragment (axes, comparisons, constants) and the
DTD classification select the strongest applicable algorithm — exact
where the theory gives one, sound-but-bounded where it proves
undecidability or leaves the construction open.  The selected algorithm,
the routing rationale and the run's cost (wall clock, charged expansions,
cache hit/miss deltas) are recorded in a
:class:`~repro.engine.report.SolveReport` attached to the returned
verdict, and :class:`~repro.engine.budget.BudgetExceeded` (or any legacy
:class:`~repro.errors.BoundExceededError`) raised mid-search is converted
into ``Unknown(bound_exhausted=True)`` — bound exhaustion never escapes
``solve`` as an exception.

Solver modules are imported lazily inside the routing functions: they
import the engine's leaf modules (verdicts, budget, cache) at module
level, so importing them from here at module level would be circular.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.engine.budget import ExecutionContext, current_context
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    MembershipProblem,
    SatisfiabilityProblem,
    SeparationProblem,
)
from repro.engine.report import SolveReport
from repro.engine.verdicts import Unknown, Verdict
from repro.errors import BoundExceededError, SignatureError, XsmError
from repro.obs import REGISTRY, ambient_tag, maybe_profile, trace

#: Always-on operational series (pre-bound families; cheap label lookups).
_SOLVES = REGISTRY.counter(
    "repro_solves_total",
    "Solves by problem type, selected algorithm and verdict outcome",
    ("problem", "algorithm", "outcome"),
)
_SOLVE_LATENCY = REGISTRY.histogram(
    "repro_solve_latency_seconds",
    "Wall-clock seconds per solve, by selected algorithm",
    ("algorithm",),
)
_EXPANSIONS = REGISTRY.counter(
    "repro_expansions_total",
    "Budget-charged search expansions, by selected algorithm",
    ("algorithm",),
)


# ---------------------------------------------------------------------------
# fragment predicates (Figure 1's row labels)
# ---------------------------------------------------------------------------
# The predicates themselves live in ``repro.analysis.fragment`` (the
# static classifier, which the linter and this router share so their
# answers cannot drift); re-exported here for compatibility.


def uses_constants(mapping: Any) -> bool:
    """Does any pattern of the mapping mention a constant?"""
    from repro.analysis.fragment import uses_constants as predicate

    return predicate(mapping)


def nested_ptime_applicable(
    mapping: Any, context: ExecutionContext | None = None
) -> bool:
    """Is the Fact-5.1 PTIME consistency route applicable?

    Requires ``SM(⇓)`` (no horizontal axes, comparisons or constants) over
    nested-relational DTDs; the DTD classification is read through the
    compilation cache.
    """
    from repro.analysis.fragment import nested_ptime_applicable as predicate

    return predicate(mapping, context)


# ---------------------------------------------------------------------------
# per-problem routing
# ---------------------------------------------------------------------------


def _solve_consistency(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.analysis.fragment import predict_consistency
    from repro.consistency.bounded import is_consistent_bounded
    from repro.consistency.cons_automata import is_consistent_automata
    from repro.consistency.cons_nested import is_consistent_nested

    mapping = problem.mapping
    prediction = predict_consistency(mapping, context)
    info.update(algorithm=prediction.algorithm, reason=prediction.reason)
    if prediction.algorithm == "cons-nested":
        return is_consistent_nested(mapping, context)
    if prediction.algorithm == "cons-automata":
        return is_consistent_automata(mapping, context)
    return is_consistent_bounded(mapping, context=context)


def _solve_abscons(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.analysis.fragment import predict_abscons
    from repro.consistency.abscons import decide_absolute_consistency

    prediction = predict_abscons(problem.mapping, context)
    verdict, algorithm = decide_absolute_consistency(problem.mapping, context)
    if algorithm == prediction.algorithm:
        reason = prediction.reason
    else:
        # the one static-dynamic divergence: a predicted-exact route
        # (source expansion) overflowed its budget mid-run
        reason = (
            f"predicted {prediction.algorithm} exceeded its budget: "
            "sound bounded refutation instead"
        )
    info.update(algorithm=algorithm, reason=reason)
    return verdict


def _solve_membership(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.analysis.fragment import predict_membership
    from repro.mappings.membership import is_solution
    from repro.mappings.skolem import is_skolem_solution

    prediction = predict_membership(problem.mapping)
    info.update(algorithm=prediction.algorithm, reason=prediction.reason)
    if prediction.algorithm == "membership-skolem":
        return is_skolem_solution(
            problem.mapping, problem.source_tree, problem.target_tree
        )
    return is_solution(problem.mapping, problem.source_tree, problem.target_tree)


def _solve_composition_membership(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.analysis.fragment import predict_composition_membership
    from repro.composition.semantics import (
        composition_contains,
        composition_contains_exact,
    )
    from repro.errors import NotInClassError

    prediction = predict_composition_membership(problem.m12, problem.m23)
    if prediction.algorithm == "composition-exact":
        try:
            verdict = composition_contains_exact(
                problem.m12, problem.m23, problem.source_tree, problem.final_tree
            )
        except (NotInClassError, SignatureError):
            # defensive: the executor found a class violation the static
            # predicates missed — fall through to the bounded search
            pass
        else:
            info.update(algorithm=prediction.algorithm, reason=prediction.reason)
            return verdict
    info.update(
        algorithm="composition-bounded",
        reason="outside the Theorem 8.2 class: bounded intermediate-tree "
        "search with the finite value abstraction (Section 7.2)",
    )
    return composition_contains(
        problem.m12,
        problem.m23,
        problem.source_tree,
        problem.final_tree,
        context=context,
    )


def _solve_composition_consistency(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.analysis.fragment import predict_composition_consistency
    from repro.composition.conscomp import (
        is_composition_consistent,
        is_composition_consistent_bounded,
    )

    mappings = list(problem.mappings)
    prediction = predict_composition_consistency(tuple(mappings))
    info.update(algorithm=prediction.algorithm, reason=prediction.reason)
    if prediction.algorithm == "conscomp-automata":
        return is_composition_consistent(mappings, context)
    return is_composition_consistent_bounded(mappings, context=context)


def _solve_satisfiability(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.patterns.satisfiability import is_satisfiable

    info.update(
        algorithm="pattern-sat",
        reason="closure-automaton reachability with tag lifting (Lemma 4.1)",
    )
    return is_satisfiable(problem.dtd, problem.pattern, context)


def _solve_separation(
    problem: Any, context: ExecutionContext, info: dict[str, str]
) -> Verdict:
    from repro.patterns.separation import separation_verdict

    info.update(
        algorithm="separation",
        reason="joint closure automaton over P+ ∪ P-: conforming root state "
        "containing P+ and avoiding P- (Section 9)",
    )
    return separation_verdict(
        problem.dtd, problem.positives, problem.negatives, context
    )


_ROUTES = {
    ConsistencyProblem: _solve_consistency,
    AbsoluteConsistencyProblem: _solve_abscons,
    MembershipProblem: _solve_membership,
    CompositionMembershipProblem: _solve_composition_membership,
    CompositionConsistencyProblem: _solve_composition_consistency,
    SatisfiabilityProblem: _solve_satisfiability,
    SeparationProblem: _solve_separation,
}


def register_route(
    problem_type: type,
    route: Callable[[Any, ExecutionContext, dict[str, str]], Verdict],
) -> None:
    """Register a routing function for an out-of-tree problem type.

    *route* is called as ``route(problem, context, info)`` and must return
    a :class:`~repro.engine.verdicts.Verdict`.  Registration at module
    import time makes the type solvable in :func:`solve_many` worker
    processes too: unpickling the problem imports its defining module,
    which re-registers the route.
    """
    _ROUTES[problem_type] = route


def solve(problem: Any, context: ExecutionContext | None = None) -> Verdict:
    """Decide *problem* with the strongest applicable algorithm.

    The returned verdict carries ``.report`` (algorithm, routing reason,
    cost accounting) and ``.problem`` (for ``certify()``).  Bound
    exhaustion inside any route surfaces as ``Unknown``, never as a
    :class:`~repro.errors.BoundExceededError`.  A verdict served from
    ``context.memo`` is the stored object, shared by every caller that
    asks the same question: read it, never mutate it.
    """
    from repro.analysis.passes import diagnostics_for_problem
    from repro.incremental import verdict_key

    route = _ROUTES.get(type(problem))
    if route is None:
        raise XsmError(
            f"engine.solve cannot route a {type(problem).__name__}; "
            "use one of repro.engine.problems"
        )
    if context is None:
        context = current_context()
    if context is None:
        context = ExecutionContext()
    problem_name = type(problem).__name__
    # A context carrying a result memo (repro.incremental) gets a
    # content-identical decided verdict back without re-running the
    # route: memo keys are content digests, so a stored verdict is never
    # stale.  The stored object itself is served, shared and never
    # mutated: its report keeps the request that computed it.
    key = None if context.memo is None else verdict_key(problem, context.budget)
    reused = None if key is None else context.memo.lookup(key)
    if reused is not None:
        return reused
    info = {"algorithm": problem_name, "reason": ""}
    cache_before = context.cache.stats()
    expansions_before = context.expansions
    started = time.perf_counter()
    context.start_clock()
    with maybe_profile(f"solve-{problem_name}"):
        with context.activate(), trace("solve", problem=problem_name) as span:
            try:
                verdict = route(problem, context, info)
            except BoundExceededError as exc:
                verdict = Unknown(str(exc), bound_exhausted=True)
            outcome = (
                "proved" if verdict.is_proved
                else "refuted" if verdict.is_refuted
                else "unknown"
            )
            span.annotate(algorithm=info["algorithm"], outcome=outcome)
    elapsed = time.perf_counter() - started
    expansions = context.expansions - expansions_before
    cache_after = context.cache.stats()
    verdict.report = SolveReport(
        problem=problem_name,
        algorithm=info["algorithm"],
        reason=info["reason"],
        elapsed=elapsed,
        expansions=expansions,
        cache={
            "hits": cache_after["hits"] - cache_before["hits"],
            "misses": cache_after["misses"] - cache_before["misses"],
            "evictions": cache_after["evictions"] - cache_before["evictions"],
            "entries": cache_after["entries"],
        },
        budget=context.budget,
        trace=None if span.is_noop else span.to_dict(),
        diagnostics=diagnostics_for_problem(problem, context),
        request_id=ambient_tag("request"),
    )
    verdict.problem = problem
    if key is not None:
        context.memo.store(key, verdict)
    _SOLVES.labels(
        problem=problem_name, algorithm=info["algorithm"], outcome=outcome
    ).inc()
    # exemplar: latency buckets remember the trace ID of their worst
    # observation, so a histogram spike links back to /debug/requests/<id>
    _SOLVE_LATENCY.labels(algorithm=info["algorithm"]).observe(
        elapsed, exemplar=ambient_tag("trace_id")
    )
    if expansions:
        _EXPANSIONS.labels(algorithm=info["algorithm"]).inc(expansions)
    return verdict
