"""``engine.solve``: the single front door of every decision procedure,
and ``engine.solve_many``, its batch form.

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
level, so importing them from here at module level would be circular,
and each route's module then loads only when the route is taken.

A batch (:func:`solve_many`) with ``jobs=1``, or of one problem, is
solved serially in-process against the caller's context, which is what
every CLI command and daemon request does unless it asks for workers.
A batch over several workers fans out over the process pool of
:mod:`repro.engine.parallel`, which is imported only then.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable, Sequence

from repro.engine.budget import Budget, ExecutionContext, current_context, resolve_context
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    MembershipProblem,
    SatisfiabilityProblem,
    SeparationProblem,
)
from repro.engine.report import BatchReport, SolveReport
from repro.engine.verdicts import Unknown, Verdict
from repro.errors import BoundExceededError, SignatureError, XsmError
from repro.obs import REGISTRY, ambient_tag, bind_tags, current_tags, maybe_profile, trace

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

    # each route's module loads only when the route is taken
    mapping = problem.mapping
    prediction = predict_consistency(mapping, context)
    info.update(algorithm=prediction.algorithm, reason=prediction.reason)
    if prediction.algorithm == "cons-nested":
        from repro.consistency.cons_nested import is_consistent_nested

        return is_consistent_nested(mapping, context)
    if prediction.algorithm == "cons-automata":
        from repro.consistency.cons_automata import is_consistent_automata

        return is_consistent_automata(mapping, context)
    from repro.consistency.bounded import is_consistent_bounded

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


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

#: ``Unknown.reason`` prefixes for results the pool had to synthesize.
WORKER_TIMEOUT = "worker-timeout"
WORKER_CRASH = "worker-crash"

#: Batch series, the pool's included: they register with the front door,
#: so a process lists them before (or without) ever starting a pool.
_BATCH_PROBLEMS = REGISTRY.counter(
    "repro_batch_problems_total",
    "Problems submitted through solve_many",
)
_QUEUE_WAIT = REGISTRY.histogram(
    "repro_queue_wait_seconds",
    "Seconds a chunk waited between driver submission and worker pickup",
)
_WORKER_CHUNKS = REGISTRY.counter(
    "repro_worker_chunks_total",
    "Chunks completed per worker process (the work-stealing spread)",
    ("worker",),
)
_WORKER_FAILURES = REGISTRY.counter(
    "repro_worker_failures_total",
    "Tasks lost to worker failures, by kind (timeout / crash / error)",
    ("kind",),
)
_BATCH_RETRIES = REGISTRY.counter(
    "repro_batch_retries_total",
    "Innocent-bystander chunks requeued after a pool failure",
)


def effective_budget(budget: Budget, task_timeout: float | None) -> Budget:
    """Tighten *budget*'s deadline to the per-task timeout (first line of
    defense: budget-aware searches give up cooperatively before the
    watchdog has to kill anything)."""
    if task_timeout is None:
        return budget
    deadline = budget.deadline_seconds
    if deadline is None or deadline > task_timeout:
        return budget.with_(deadline_seconds=task_timeout)
    return budget


class BatchResult(Sequence):
    """Verdicts in problem order plus the aggregated :class:`BatchReport`."""

    def __init__(self, verdicts: list[Verdict], report: BatchReport):
        self.verdicts = verdicts
        self.report = report

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, index: Any) -> Any:
        return self.verdicts[index]

    def decisions(self) -> list[bool | None]:
        return [verdict.decision() for verdict in self.verdicts]

    def __repr__(self) -> str:
        outcomes = self.report.outcomes
        return (
            f"BatchResult({len(self.verdicts)} verdicts: "
            f"{outcomes.get('proved', 0)} proved, "
            f"{outcomes.get('refuted', 0)} refuted, "
            f"{outcomes.get('unknown', 0)} unknown)"
        )


def default_jobs(n_problems: int) -> int:
    """All cores, but never more workers than problems."""
    return max(1, min(n_problems, os.cpu_count() or 1))


def solve_many(
    problems: Iterable[object],
    *,
    jobs: int | None = None,
    context: ExecutionContext | None = None,
    task_timeout: float | None = None,
    chunk_size: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    tags: dict | None = None,
) -> BatchResult:
    """Decide every problem of a batch, fanning out over *jobs* processes.

    ``jobs=None`` uses one worker per core (capped by the batch size);
    ``jobs=1`` solves serially in-process against *context*'s own cache.
    *task_timeout* bounds each solve in wall-clock seconds — cooperatively
    through the budget deadline, and by force through the pool watchdog.
    *cache_dir* attaches a shared on-disk compilation-cache tier to every
    worker (defaults to ``REPRO_CACHE_DIR`` when set).

    *tags* (merged over the caller's ambient :func:`repro.obs.bind_tags`
    bindings, so a service request ID propagates with no explicit
    plumbing) are re-bound inside every worker chunk: chunk spans, solve
    spans and the truncated spans of crashed/hung workers all carry them.

    Returns a :class:`BatchResult`: ``result[i]`` is the verdict of
    ``problems[i]``, always — a hung or crashed worker contributes an
    ``Unknown`` with a ``worker-timeout`` / ``worker-crash`` reason.
    """
    problems = list(problems)
    resolved = resolve_context(context)
    if resolved is None:
        resolved = ExecutionContext()
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if jobs is None:
        jobs = default_jobs(len(problems))
    jobs = max(1, jobs)

    report = BatchReport(problems=len(problems), jobs=jobs)
    _BATCH_PROBLEMS.inc(len(problems))
    started = time.perf_counter()
    serial = jobs == 1 or len(problems) <= 1
    # in-process solves already run under the caller's ambient tags;
    # pooled workers are handed the merged bindings explicitly
    tags = dict(tags or {}) if serial else {**current_tags(), **(tags or {})}
    with bind_tags(**tags), trace(
        "solve_many", problems=len(problems), jobs=jobs
    ) as batch_span:
        if serial:
            verdicts = _solve_serial(
                problems, resolved, task_timeout, cache_dir, report
            )
        else:
            from repro.engine.parallel import solve_pooled

            verdicts = solve_pooled(
                problems, jobs, resolved, task_timeout, chunk_size, cache_dir,
                report, batch_span, tags,
            )
    report.elapsed = time.perf_counter() - started
    if not batch_span.is_noop:
        report.trace = batch_span.to_dict()
    for verdict in verdicts:
        if verdict.is_proved:
            report.outcomes["proved"] += 1
        elif verdict.is_refuted:
            report.outcomes["refuted"] += 1
        else:
            report.outcomes["unknown"] += 1
            reason = getattr(verdict, "reason", "")
            if reason.startswith(WORKER_TIMEOUT):
                report.timeouts += 1
            elif reason.startswith(WORKER_CRASH):
                report.crashes += 1
    return BatchResult(verdicts, report)


def _solve_serial(
    problems: list,
    context: ExecutionContext,
    task_timeout: float | None,
    cache_dir: str | None,
    report: BatchReport,
) -> list[Verdict]:
    budget = effective_budget(context.budget, task_timeout)
    cache = context.cache
    if cache_dir is not None and cache.disk is None:
        # same deal the pooled workers get: a persistent tier under the LRU
        from repro.engine.cache import CompilationCache
        from repro.engine.diskcache import DiskCacheTier

        cache = CompilationCache(
            max_entries=cache.max_entries,
            enabled=cache.enabled,
            disk=DiskCacheTier(cache_dir),
        )
    run_context = ExecutionContext(budget, cache=cache, memo=context.memo)
    before = run_context.cache.stats()
    verdicts = []
    for problem in problems:
        run_context.start_clock()
        verdicts.append(solve(problem, run_context))
    after = run_context.cache.stats()
    report.chunks = len(problems)
    report.merge_cache(
        {k: after.get(k, 0) - before.get(k, 0) for k in after if k != "entries"}
    )
    return verdicts
