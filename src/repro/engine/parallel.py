"""``engine.solve_many``: the batch front door over a process pool.

The paper's evaluation is sweeps of many independent ``solve()`` calls
(consistency, membership, composition) over generated workloads.  This
module fans such a batch out over a :class:`ProcessPoolExecutor` with

* **chunked work-stealing** — the batch is cut into small chunks (a few
  per worker) pulled by whichever worker frees up first, so one slow
  EXPTIME cell cannot serialize the sweep behind it;
* **per-task enforcement** — each worker solve runs under the caller's
  :class:`~repro.engine.budget.Budget` (tightened to ``task_timeout`` as
  a cooperative deadline), and a hard watchdog catches what budgets
  cannot: a hung worker is killed and its tasks re-run in isolation,
  a crashed worker's tasks are re-attributed one by one.  A task that
  hangs or dies yields an ``Unknown`` verdict with a ``worker-timeout``
  or ``worker-crash`` reason — never an exception, never a lost result;
* **deterministic ordering** — ``result[i]`` answers ``problems[i]``
  regardless of which worker finished first;
* **aggregated accounting** — a :class:`~repro.engine.report.BatchReport`
  sums the per-worker compilation-cache deltas, verdict outcomes and
  recovery events.

Workers keep a process-global :class:`ExecutionContext` across chunks,
so their in-memory caches warm up over the batch; pass ``cache_dir`` (or
set ``REPRO_CACHE_DIR``) to share compiled artifacts between workers and
across runs through the :class:`~repro.engine.diskcache.DiskCacheTier`.

Problems must be picklable — every type in :mod:`repro.engine.problems`
round-trips (guaranteed by tests); out-of-tree types registered through
:func:`repro.engine.core.register_route` at module import time work too,
because unpickling re-imports the registering module.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterable, Sequence

from repro.engine.budget import Budget, ExecutionContext, resolve_context
from repro.engine.cache import CompilationCache
from repro.engine.diskcache import DiskCacheTier
from repro.engine.report import BatchReport, SolveReport
from repro.engine.verdicts import Unknown, Verdict
from repro.obs import (
    REGISTRY,
    ambient_tag,
    bind_tags,
    collecting,
    current_tags,
    trace,
    tracing_active,
    truncated_span,
)
from repro.obs.metrics import diff_snapshots

#: ``Unknown.reason`` prefixes for results the pool had to synthesize.
WORKER_TIMEOUT = "worker-timeout"
WORKER_CRASH = "worker-crash"

#: Pool-level operational series (driver side unless noted).
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
_BATCH_PROBLEMS = REGISTRY.counter(
    "repro_batch_problems_total",
    "Problems submitted through solve_many",
)
_BATCH_RETRIES = REGISTRY.counter(
    "repro_batch_retries_total",
    "Innocent-bystander chunks requeued after a pool failure",
)

#: How often the driver wakes up to collect results and check deadlines.
_POLL_SECONDS = 0.05
#: Watchdog slack on top of the cooperative per-task deadline.
_TIMEOUT_GRACE = 1.0


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

_WORKER_CONTEXT: ExecutionContext | None = None
_WORKER_TRACE = False


def _effective_budget(budget: Budget, task_timeout: float | None) -> Budget:
    """Tighten *budget*'s deadline to the per-task timeout (first line of
    defense: budget-aware searches give up cooperatively before the
    watchdog has to kill anything)."""
    if task_timeout is None:
        return budget
    deadline = budget.deadline_seconds
    if deadline is None or deadline > task_timeout:
        return budget.with_(deadline_seconds=task_timeout)
    return budget


def _init_worker(
    budget: Budget,
    cache_size: int,
    cache_dir: str | None,
    enabled: bool,
    trace_enabled: bool = False,
) -> None:
    """Build the process-global context a worker reuses across chunks."""
    global _WORKER_CONTEXT, _WORKER_TRACE
    disk = DiskCacheTier(cache_dir) if cache_dir else None
    _WORKER_CONTEXT = ExecutionContext(
        budget, cache=CompilationCache(max_entries=cache_size, enabled=enabled, disk=disk)
    )
    _WORKER_TRACE = trace_enabled


def _run_chunk(
    tasks: list[tuple[int, object]],
    tags: dict | None = None,
) -> tuple[list, dict[str, int], dict, dict]:
    """Solve one chunk in a worker.

    Returns ``([(index, verdict)], cache-stat delta, metrics snapshot
    delta, meta)``.  When the driver was tracing, each verdict carries
    its serialized solve span in ``verdict.report.trace`` (spans pickle
    as plain dicts); *meta* records the worker pid, the wall-clock
    pickup time (for queue-wait attribution) and the chunk's elapsed
    seconds.  *tags* re-binds the driver's ambient span tags (request
    IDs) in this worker for the duration of the chunk, so every span
    and report produced here carries them.
    """
    from repro.engine.core import solve

    meta = {"pid": os.getpid(), "picked_up_wall": time.time()}
    started = time.perf_counter()
    context = _WORKER_CONTEXT if _WORKER_CONTEXT is not None else ExecutionContext()
    metrics_before = REGISTRY.snapshot()
    before = context.cache.stats()
    results = []

    def run_all() -> None:
        for index, problem in tasks:
            try:
                verdict = solve(problem, context)
            except Exception as exc:  # a solver bug must not lose the batch
                verdict = Unknown(f"worker-error: {exc!r}")
                verdict.problem = problem
                _WORKER_FAILURES.labels(kind="error").inc()
            results.append((index, verdict))

    with bind_tags(**(tags or {})):
        if _WORKER_TRACE:
            with collecting("worker-chunk", worker=os.getpid()):
                run_all()
        else:
            run_all()
    after = context.cache.stats()
    delta = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in after
        if key != "entries"
    }
    meta["elapsed"] = time.perf_counter() - started
    metrics_delta = diff_snapshots(metrics_before, REGISTRY.snapshot())
    return results, delta, metrics_delta, meta


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class _Chunk:
    __slots__ = ("tasks", "submitted", "submitted_wall")

    def __init__(self, tasks: list[tuple[int, object]]):
        self.tasks = tasks
        self.submitted = 0.0
        self.submitted_wall = 0.0

    def deadline(self, task_timeout: float) -> float:
        """Chunks solve serially, so the wall budget is the per-task sum."""
        return task_timeout * len(self.tasks) + _TIMEOUT_GRACE


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


def _synthetic(
    reason: str, detail: str, problem: object, elapsed: float = 0.0,
    tags: dict | None = None,
) -> Unknown:
    """An ``Unknown`` standing in for a lost worker result.

    Failures must not drop observability: the verdict carries a
    :class:`SolveReport` with a *truncated* trace span (the worker's real
    spans died with it) and the failure is counted in
    ``repro_worker_failures_total``.  The truncated span carries the
    batch's ambient *tags* (request IDs) — a crashed or hung worker must
    not lose the request attribution either.
    """
    verdict = Unknown(f"{reason}: {detail}" if detail else reason)
    verdict.problem = problem
    kind = "timeout" if reason == WORKER_TIMEOUT else "crash"
    _WORKER_FAILURES.labels(kind=kind).inc()
    tags = tags or {}
    verdict.report = SolveReport(
        problem=type(problem).__name__,
        algorithm=reason,
        reason=detail,
        elapsed=elapsed,
        trace=truncated_span(
            "solve",
            duration=elapsed,
            problem=type(problem).__name__,
            outcome=reason,
            detail=detail,
            **tags,
        ),
        request_id=tags.get("request"),
    )
    return verdict


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, including any hung worker processes.

    Workers are terminated first, so the waiting shutdown is immediate —
    and, unlike ``wait=False``, it joins the manager thread and
    deregisters the pool's atexit wakeup (which would otherwise write to
    a closed pipe at interpreter exit)."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    executor.shutdown(wait=True, cancel_futures=True)


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
            verdicts = _solve_pooled(
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
    from repro.engine.core import solve

    budget = _effective_budget(context.budget, task_timeout)
    cache = context.cache
    if cache_dir is not None and cache.disk is None:
        # same deal the pooled workers get: a persistent tier under the LRU
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


def _absorb_chunk(
    chunk: _Chunk, stats: dict, metrics_delta: dict, meta: dict,
    report: BatchReport, batch_span: Any,
) -> None:
    """Fold one completed chunk's accounting into the driver's registry,
    batch report and (when tracing) the merged cross-process trace."""
    report.merge_cache(stats)
    REGISTRY.merge(metrics_delta)
    wait = max(0.0, meta["picked_up_wall"] - chunk.submitted_wall)
    # absorbed on the driver thread, so the request's trace ID is ambient
    _QUEUE_WAIT.observe(wait, exemplar=ambient_tag("trace_id"))
    report.queue_wait_seconds += wait
    _WORKER_CHUNKS.labels(worker=str(meta["pid"])).inc()


def _chunk_span(chunk: _Chunk, pairs: list, meta: dict, tags: dict | None = None) -> dict:
    """The serialized chunk span wrapping the worker-captured solve spans."""
    children = [
        verdict.report.trace
        for __, verdict in pairs
        if getattr(verdict, "report", None) is not None
        and verdict.report.trace is not None
    ]
    return {
        "name": "chunk",
        "attrs": {
            **(tags or {}),
            "worker": meta["pid"],
            "tasks": len(chunk.tasks),
            "queue_wait": max(0.0, meta["picked_up_wall"] - chunk.submitted_wall),
        },
        "wall": meta["picked_up_wall"],
        "duration": meta["elapsed"],
        "expansions": 0,
        "cache": {},
        "children": children,
    }


def _solve_pooled(
    problems: list,
    jobs: int,
    context: ExecutionContext,
    task_timeout: float | None,
    chunk_size: int | None,
    cache_dir: str | os.PathLike | None,
    report: BatchReport,
    batch_span: Any,
    tags: dict | None = None,
) -> list[Verdict]:
    budget = _effective_budget(context.budget, task_timeout)
    cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
    initargs = (
        budget,
        context.cache.max_entries,
        cache_dir,
        context.cache.enabled,
        tracing_active(),
    )

    if chunk_size is None:
        # a few chunks per worker: coarse enough to amortize IPC, fine
        # enough that idle workers can steal from a slow one's backlog
        chunk_size = max(1, -(-len(problems) // (jobs * 4)))
    queue: deque[_Chunk] = deque(
        _Chunk([(i, problems[i]) for i in range(start, min(start + chunk_size, len(problems)))])
        for start in range(0, len(problems), chunk_size)
    )
    report.chunks = len(queue)
    results: dict[int, Verdict] = {}
    quarantine: list[tuple[int, object]] = []

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=initargs
        )

    executor = make_executor()
    inflight: dict = {}
    try:
        while queue or inflight:
            while queue and len(inflight) < jobs:
                chunk = queue.popleft()
                try:
                    future = executor.submit(_run_chunk, chunk.tasks, tags)
                except BrokenProcessPool:
                    # the pool died between rounds; replace it and retry
                    queue.appendleft(chunk)
                    _kill_executor(executor)
                    executor = make_executor()
                    continue
                chunk.submitted = time.monotonic()
                chunk.submitted_wall = time.time()
                inflight[future] = chunk
            done, __ = wait(
                set(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            pool_broken = False
            for future in done:
                chunk = inflight.pop(future)
                try:
                    pairs, stats, metrics_delta, meta = future.result()
                except Exception:
                    # BrokenProcessPool, or an unpicklable problem or
                    # verdict; isolate to attribute the failure to the
                    # guilty task alone
                    pool_broken = True
                    quarantine.extend(chunk.tasks)
                else:
                    for index, verdict in pairs:
                        results[index] = verdict
                    _absorb_chunk(
                        chunk, stats, metrics_delta, meta, report, batch_span
                    )
                    if not batch_span.is_noop:
                        batch_span.adopt(_chunk_span(chunk, pairs, meta, tags))
            if pool_broken:
                # the pool died under every other in-flight chunk too;
                # re-run the innocent bystanders, isolate the casualties
                for chunk in inflight.values():
                    queue.appendleft(chunk)
                    report.retries += 1
                    _BATCH_RETRIES.inc()
                inflight.clear()
                _kill_executor(executor)
                executor = make_executor()
                continue
            if task_timeout is not None and inflight:
                now = time.monotonic()
                overdue = [
                    (future, chunk)
                    for future, chunk in inflight.items()
                    if now - chunk.submitted > chunk.deadline(task_timeout)
                ]
                if overdue:
                    for future, chunk in overdue:
                        quarantine.extend(chunk.tasks)
                        del inflight[future]
                    # killing the hung worker means killing the pool;
                    # everything else in flight is requeued untouched
                    for chunk in inflight.values():
                        queue.appendleft(chunk)
                        report.retries += 1
                        _BATCH_RETRIES.inc()
                    inflight.clear()
                    _kill_executor(executor)
                    executor = make_executor()
    finally:
        _kill_executor(executor)

    if quarantine:
        _solve_isolated(
            quarantine, initargs, task_timeout, results, report, batch_span, tags
        )

    return [results[index] for index in range(len(problems))]


def _solve_isolated(
    tasks: list[tuple[int, object]],
    initargs: tuple,
    task_timeout: float | None,
    results: dict[int, Verdict],
    report: BatchReport,
    batch_span: Any,
    tags: dict | None = None,
) -> None:
    """Re-run suspect tasks one per single-worker pool, for exact blame.

    When a shared pool breaks (or a chunk times out) the driver cannot
    tell which of its tasks was responsible, so each suspect re-runs
    alone: a crash or timeout here is attributable beyond doubt, and the
    rest recover their real verdicts.
    """
    deadline = None if task_timeout is None else task_timeout + _TIMEOUT_GRACE
    for index, problem in tasks:
        if index in results:
            continue
        chunk = _Chunk([(index, problem)])
        executor = ProcessPoolExecutor(
            max_workers=1, initializer=_init_worker, initargs=initargs
        )
        try:
            future = executor.submit(_run_chunk, chunk.tasks, tags)
            chunk.submitted_wall = time.time()
            synthetic = None
            try:
                pairs, stats, metrics_delta, meta = future.result(timeout=deadline)
            except FuturesTimeoutError:
                synthetic = _synthetic(
                    WORKER_TIMEOUT,
                    f"no result within {task_timeout}s (worker killed)",
                    problem,
                    elapsed=0.0 if deadline is None else deadline,
                    tags=tags,
                )
            except BrokenProcessPool:
                synthetic = _synthetic(
                    WORKER_CRASH, "worker process died mid-solve", problem,
                    tags=tags,
                )
            except Exception as exc:
                synthetic = _synthetic(WORKER_CRASH, repr(exc), problem, tags=tags)
            if synthetic is not None:
                results[index] = synthetic
                batch_span.adopt(synthetic.report.trace)
            else:
                for i, verdict in pairs:
                    results[i] = verdict
                _absorb_chunk(
                    chunk, stats, metrics_delta, meta, report, batch_span
                )
                if not batch_span.is_noop:
                    batch_span.adopt(_chunk_span(chunk, pairs, meta, tags))
        finally:
            _kill_executor(executor)
