"""``EngineSession``: the reusable, warm core behind every frontend.

A session owns the long-lived state a serving system amortizes across
requests — one thread-safe :class:`~repro.engine.cache.CompilationCache`
(optionally backed by a :class:`~repro.engine.diskcache.DiskCacheTier`),
one :class:`~repro.incremental.ResultMemo` of decided verdicts and lint
reports that every request's context carries, one parse table that
every handler reads mapping text through (so a repeated text is a
lookup, not a parse), the default
:class:`~repro.engine.budget.Budget`, the worker-pool fanout of
:func:`~repro.engine.parallel.solve_many` and the process metrics
registry — and exposes the engine's commands as **plain-dict handlers**:

    session = EngineSession(jobs=2, cache_dir="/tmp/cache")
    response = session.check({"mappings": [{"name": "m.xsm", "text": ...}]})

Requests and responses are JSON-shaped (strings, numbers, lists, dicts),
so the same handler serves the CLI adapter, the HTTP daemon and direct
library use.  Every request gets

* a **request ID** (honoured from the request, generated otherwise)
  and a **trace ID** bound as ambient span tags for the whole handler —
  every trace span the request opens, including ``solve_many``
  worker-chunk spans in other processes and the truncated spans of
  crashed/hung workers, carries ``request=<id>`` and ``trace_id=<id>``;
  a ``SolveReport`` records the request that computed it, and every
  verdict payload names the request that served it (a memo-served
  verdict was computed by an earlier one);
* a completed-trace record in the session's
  :class:`~repro.obs.flight.FlightRecorder` — the serialized span tree,
  status, latency and budget/cache deltas land in the bounded ring that
  backs the daemon's ``/debug/requests`` routes and the slow-request
  log (the recorder is always on; pass ``flight=FlightRecorder(
  enabled=False)`` to run bare);
* a **per-request budget**: ``request["budget"]`` overrides individual
  :class:`Budget` fields, ``request["timeout"]`` tightens the wall-clock
  deadline (and doubles as the ``solve_many`` watchdog timeout), so a
  slow solve comes back as ``Unknown`` instead of wedging a worker;
* **accounting** in the shared registry: ``repro_requests_total`` by
  command and outcome, ``repro_request_latency_seconds`` by command.

Handlers never raise for malformed input or mapping errors: failures
come back as ``{"ok": False, "error": {...}, "exit_code": 3}`` so the
daemon can map them to HTTP statuses and the CLI to exit codes without
a second error path.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter
from dataclasses import fields as dataclass_fields
from typing import Any, Callable

from repro.engine import (
    AbsoluteConsistencyProblem,
    Budget,
    CompilationCache,
    ConsistencyProblem,
    Counterexample,
    ExecutionContext,
    MembershipProblem,
    RigidityExplanation,
    solve_many,
)
from repro.errors import XsmError
from repro.incremental import IncrementalEngine
from repro.obs import (
    REGISTRY,
    FlightRecorder,
    bind_tags,
    collecting,
    new_trace_id,
    trace,
    walk,
)
from repro.xmlmodel.xml_io import from_xml, to_xml

#: The modules the check, member, lint, delta, stats and selftest
#: handlers import on first use (with what those import): the solve
#: routes, the lint passes and the member engines.  A serving session
#: imports them when it is built, so concurrent first requests never
#: race to import them; a one-shot session (the CLI's) imports only
#: what its request uses.  Opt-in work loads on first use: composition
#: (``compose``), the fix engine (``lint`` with ``fixes``) and, unless
#: the session fans out by default, the worker pool (a request with
#: ``jobs`` over 1).  Metric families register with the modules every
#: session loads, so ``/metrics`` lists all of them from the first
#: request on.
HANDLER_MODULES = (
    "repro.mappings.io",
    "repro.consistency.dispatch",
    "repro.consistency.cons_nested",
    "repro.consistency.cons_automata",
    "repro.consistency.bounded",
    "repro.consistency.abscons",
    "repro.consistency.expansion",
    "repro.patterns.satisfiability",
    "repro.patterns.compact",
    "repro.automata.pattern_automaton",
    "repro.regex.dfa",
    "repro.kernel",
    "repro.analysis.fragment",
    "repro.analysis.passes",
    "repro.analysis.redundancy",
    "repro.analysis.lint",
)

_REQUESTS = REGISTRY.counter(
    "repro_requests_total",
    "Service-layer requests by command and outcome",
    ("command", "outcome"),
)
_REQUEST_LATENCY = REGISTRY.histogram(
    "repro_request_latency_seconds",
    "Wall-clock seconds per service-layer request, by command",
    ("command",),
)

#: Per-(command, outcome) metric children, looked up once per pair
#: instead of once per request.
_REQUEST_SERIES: dict[tuple[str, str], tuple[Any, Any]] = {}


def _request_series(command: str, outcome: str) -> tuple[Any, Any]:
    """The request counter and latency children of *command*."""
    series = _REQUEST_SERIES.get((command, outcome))
    if series is None:
        series = _REQUEST_SERIES[(command, outcome)] = (
            _REQUESTS.labels(command=command, outcome=outcome),
            _REQUEST_LATENCY.labels(command=command),
        )
    return series


#: Budget fields a request may override via ``request["budget"]``.
_BUDGET_FIELDS = frozenset(f.name for f in dataclass_fields(Budget))


class RequestError(XsmError):
    """A malformed service request (bad shape, unknown fields)."""


def _verdict_payload(verdict: Any, request_id: str) -> dict:
    """A JSON-shaped rendering of a verdict plus its SolveReport.

    The report names *request_id*, the request being served: a verdict
    served from the result memo is shared and keeps, on its own report,
    the request that computed it.
    """
    if verdict.is_proved:
        kind = "proved"
    elif verdict.is_refuted:
        kind = "refuted"
    else:
        kind = "unknown"
    payload: dict[str, Any] = {"verdict": kind, "decision": verdict.decision()}
    if kind == "unknown":
        payload["reason"] = verdict.reason
    report = getattr(verdict, "report", None)
    if report is not None:
        payload["report"] = {
            "algorithm": report.algorithm,
            "reason": report.reason,
            "elapsed": report.elapsed,
            "expansions": report.expansions,
            "cache": dict(report.cache),
            "request_id": request_id,
            "lines": report.lines(),
        }
    return payload


def _named_texts(request: dict, key: str) -> list[tuple[str, str]]:
    """Normalize ``request[key]`` to ``[(name, text), ...]``.

    Accepts a list of strings or of ``{"name": ..., "text": ...}`` dicts
    (a bare string or dict is promoted to a one-element list).
    """
    raw = request.get(key)
    if raw is None:
        raise RequestError(f"request field {key!r} is required")
    if isinstance(raw, (str, dict)):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise RequestError(f"request field {key!r} must be a non-empty list")
    named: list[tuple[str, str]] = []
    for position, item in enumerate(raw):
        if isinstance(item, str):
            named.append((f"{key}[{position}]", item))
        elif isinstance(item, dict) and isinstance(item.get("text"), str):
            named.append((str(item.get("name", f"{key}[{position}]")), item["text"]))
        else:
            raise RequestError(
                f"{key}[{position}] must be a string or a {{name, text}} object"
            )
    return named


def _trace_rollup(tree: dict) -> dict:
    """Aggregate budget/cache deltas over a request's serialized trace.

    Sums the ``solve`` spans only: their expansion and cache deltas are
    disjoint (one per solve), whereas outer spans include their children
    and would double-count.
    """
    expansions = 0
    cache: dict[str, int] = {}
    spans = 0
    for node in walk(tree):
        spans += 1
        if node.get("name") == "solve":
            expansions += int(node.get("expansions", 0))
            for key, delta in (node.get("cache") or {}).items():
                cache[key] = cache.get(key, 0) + delta
    return {"expansions": expansions, "cache": cache, "spans": spans}


def _exit_code(consistency: Any, absolute: Any) -> int:
    """The CLI exit-code contract for one mapping's check pair."""
    if consistency.is_refuted:
        return 1
    if consistency.is_unknown:
        return 2
    if absolute.is_refuted:
        return 1
    if absolute.is_unknown:
        return 2
    return 0


#: Small but non-trivial mapping for the ``stats`` self-test batch:
#: routes through cons-automata and the rigidity analysis, exercising the
#: compilation cache, certify and (with jobs > 1) the worker plumbing.
#: Every copy of every run names its variable apart (``{copy}``), so no
#: copy is served from the session's result memo: each opens a ``solve``
#: span, which the self-test counts.
_SELFTEST_MAPPING = """\
source:
    f -> item*
    item(sku)
target:
    w -> product*
    product(sku)
std: f[item({copy})] -> w[product({copy})]
"""

#: Series the stats self-test requires after its batch.
_REQUIRED_SERIES = (
    "repro_solves_total",
    "repro_solve_latency_seconds_bucket",
    "repro_solve_latency_seconds_count",
    "repro_cache_misses_total",
    "repro_certify_total",
    "repro_batch_problems_total",
)

_REQUIRED_PARALLEL_SERIES = (
    "repro_queue_wait_seconds_count",
    "repro_worker_chunks_total",
)


class EngineSession:
    """One warm engine shared by many requests (and many threads).

    *jobs* is the default ``solve_many`` fanout (requests may override),
    *cache_size* / *cache_dir* configure the shared compilation cache
    and its optional disk tier, *budget* the per-request default limits.
    *preload* imports the handlers' modules (:data:`HANDLER_MODULES`)
    up front, as a daemon wants; a session built for one request passes
    ``preload=False``.
    Handlers are safe to call concurrently: the cache is thread-safe,
    contexts are per-request, and the counters mutate under a lock.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_size: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        budget: Budget | None = None,
        registry=REGISTRY,
        flight: FlightRecorder | None = None,
        preload: bool = True,
    ):
        self.jobs = max(1, int(jobs))
        if preload:
            for module in HANDLER_MODULES:
                importlib.import_module(module)
            if self.jobs > 1:
                importlib.import_module("repro.engine.parallel")
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        disk = None
        if self.cache_dir:
            from repro.engine.diskcache import DiskCacheTier

            disk = DiskCacheTier(self.cache_dir)
        self.cache = CompilationCache(max_entries=cache_size, disk=disk)
        self.budget = budget if budget is not None else Budget.default()
        #: Per-revision incremental state (the ``delta`` handler).  It
        #: shares the session cache, every handler parses mapping text
        #: through its parse table, and its result memo rides on every
        #: request context, so one-shot requests and deltas reuse each
        #: other's parses, artifacts, verdicts and lint reports.
        self.incremental = IncrementalEngine(cache=self.cache, budget=self.budget)
        self.registry = registry
        self.flight = flight if flight is not None else FlightRecorder()
        self.started_wall = time.time()
        self.requests: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._selftests = itertools.count()
        self._id_prefix = f"r{os.getpid():x}-{int(self.started_wall) & 0xFFFF:04x}"

    # -- request plumbing ---------------------------------------------------

    def next_request_id(self) -> str:
        return f"{self._id_prefix}-{next(self._ids):06d}"

    def _request_budget(self, request: dict) -> Budget:
        overrides = request.get("budget") or {}
        if not isinstance(overrides, dict):
            raise RequestError("request field 'budget' must be an object")
        unknown = set(overrides) - _BUDGET_FIELDS
        if unknown:
            raise RequestError(
                f"unknown budget fields: {', '.join(sorted(unknown))}"
            )
        budget = self.budget.with_(**overrides) if overrides else self.budget
        timeout = request.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise RequestError("request field 'timeout' must be positive")
            deadline = budget.deadline_seconds
            if deadline is None or deadline > timeout:
                budget = budget.with_(deadline_seconds=timeout)
        return budget

    def _context(self, request: dict) -> ExecutionContext:
        budget = self._request_budget(request)
        return ExecutionContext(budget, cache=self.cache, memo=self.incremental.memo)

    def _jobs(self, request: dict) -> int:
        jobs = request.get("jobs")
        if jobs is None:
            return self.jobs
        return max(1, int(jobs))

    def _run(self, command: str, request: dict | None,
             body: Callable[[dict], dict]) -> dict:
        request = dict(request) if request else {}
        request_id = str(request.get("request_id") or self.next_request_id())
        trace_id = str(request.get("trace_id") or new_trace_id())
        # the body renders verdict payloads under the serving request
        request["request_id"] = request_id
        response: dict[str, Any] = {
            "command": command, "request_id": request_id, "trace_id": trace_id,
        }
        outcome = "ok"
        started = time.perf_counter()
        tree = None
        try:
            # the flight recorder makes span collection always-on: the
            # tree is what lands in the ring (and, on request["trace"],
            # in the response).  The common spans are cheap — compile
            # spans only open on cache misses — and the bench_obs
            # recorder-overhead guard keeps this path honest.  A
            # disabled recorder restores the old trace-on-demand path.
            with bind_tags(request=request_id, trace_id=trace_id):
                if self.flight.enabled or request.get("trace"):
                    with collecting(
                        "request", command=command, trace_id=trace_id
                    ) as tree:
                        payload = body(request)
                else:
                    with trace("request", command=command):
                        payload = body(request)
            response.update(payload)
        except XsmError as error:
            outcome = "error"
            response["error"] = {
                "type": type(error).__name__, "message": str(error)
            }
            response["exit_code"] = 3
        elapsed = time.perf_counter() - started
        response["ok"] = outcome == "ok"
        response["elapsed"] = elapsed
        tree_dict = tree.to_dict() if tree is not None else None
        if request.get("trace") and tree_dict is not None:
            response["trace"] = tree_dict
        with self._lock:
            self.requests[command] += 1
        requests, latency = _request_series(command, outcome)
        requests.inc()
        latency.observe(elapsed, exemplar=trace_id)
        if self.flight.enabled and tree_dict is not None:
            self.flight.record(
                trace_id=trace_id,
                op=command,
                status=outcome,
                duration=elapsed,
                trace=tree_dict,
                request_id=request_id,
                exit_code=response.get("exit_code"),
                **_trace_rollup(tree_dict),
            )
        return response

    # -- handlers -----------------------------------------------------------

    def check(self, request: dict | None = None) -> dict:
        """Consistency + absolute consistency of one or more mappings."""
        return self._run("check", request, self._check_body)

    def _check_body(self, request: dict) -> dict:
        from repro.mappings.io import parse_mapping

        named = _named_texts(request, "mappings")
        table = self.incremental.parses
        parsed = [(name, parse_mapping(text, table=table)) for name, text in named]
        context = self._context(request)
        problems: list[object] = []
        for __, mapping in parsed:
            problems.append(ConsistencyProblem(mapping))
            problems.append(AbsoluteConsistencyProblem(mapping))
        batch = solve_many(
            problems,
            jobs=self._jobs(request),
            context=context,
            task_timeout=request.get("timeout"),
            cache_dir=self.cache_dir,
        )
        request_id = request["request_id"]
        results = []
        for position, (name, mapping) in enumerate(parsed):
            consistency = batch[2 * position]
            absolute = batch[2 * position + 1]
            entry: dict[str, Any] = {
                "name": name,
                "class": str(mapping.signature()),
                "consistent": _verdict_payload(consistency, request_id),
                "absolutely_consistent": _verdict_payload(absolute, request_id),
                "exit_code": _exit_code(consistency, absolute),
            }
            if request.get("witness") and consistency.is_proved:
                from repro.consistency import consistency_witness

                with context.activate():
                    pair = consistency_witness(mapping)
                if pair:
                    entry["witness"] = {
                        "source": to_xml(pair[0], mapping.source_dtd).strip(),
                        "target": to_xml(pair[1], mapping.target_dtd).strip(),
                    }
            if absolute.is_refuted:
                certificate = absolute.certificate
                if isinstance(certificate, RigidityExplanation):
                    entry["why"] = [str(p) for p in certificate.problems]
                elif isinstance(certificate, Counterexample):
                    entry["counterexample"] = to_xml(
                        certificate.source, mapping.source_dtd
                    ).strip()
            results.append(entry)
        return {
            "results": results,
            "exit_code": max(entry["exit_code"] for entry in results),
            "batch": {
                "problems": batch.report.problems,
                "jobs": batch.report.jobs,
                "elapsed": batch.report.elapsed,
                "lines": batch.report.lines(),
            },
        }

    def member(self, request: dict | None = None) -> dict:
        """Is each (source, target) pair in the mapping's semantics?"""
        return self._run("member", request, self._member_body)

    def _member_body(self, request: dict) -> dict:
        from repro.mappings.io import parse_mapping
        from repro.mappings.membership import violations

        mapping_text = request.get("mapping")
        if not isinstance(mapping_text, str):
            raise RequestError("request field 'mapping' must be a string")
        source_text = request.get("source")
        if not isinstance(source_text, str):
            raise RequestError("request field 'source' must be a string")
        mapping = parse_mapping(mapping_text, table=self.incremental.parses)
        source = from_xml(source_text, mapping.source_dtd)
        named = _named_texts(request, "targets")
        targets = [
            (name, from_xml(text, mapping.target_dtd)) for name, text in named
        ]
        context = self._context(request)
        batch = solve_many(
            [MembershipProblem(mapping, source, target) for __, target in targets],
            jobs=self._jobs(request),
            context=context,
            task_timeout=request.get("timeout"),
            cache_dir=self.cache_dir,
        )
        explain = bool(request.get("explain")) and not mapping.uses_skolem_functions()
        results = []
        exit_code = 0
        for (name, target), verdict in zip(targets, batch):
            entry: dict[str, Any] = {
                "name": name,
                "answer": "YES" if verdict.is_proved else "NO",
                "result": _verdict_payload(verdict, request["request_id"]),
            }
            if verdict.is_refuted and explain:
                with context.activate():
                    entry["violations"] = [
                        {
                            "std": str(std),
                            "values": {v.name: value for v, value in valuation.items()},
                        }
                        for std, valuation in violations(mapping, source, target)
                    ]
            results.append(entry)
            exit_code = max(exit_code, 0 if verdict.is_proved else 1)
        return {"results": results, "exit_code": exit_code}

    def compose(self, request: dict | None = None) -> dict:
        """Compose two mappings (Theorem 8.2) and return the rendered result."""
        return self._run("compose", request, self._compose_body)

    def _compose_body(self, request: dict) -> dict:
        from repro.composition.compose import compose as compose_mappings
        from repro.mappings.io import parse_mapping, render_mapping

        first = request.get("first")
        second = request.get("second")
        if not isinstance(first, str) or not isinstance(second, str):
            raise RequestError(
                "request fields 'first' and 'second' must be mapping texts"
            )
        table = self.incremental.parses
        with self._context(request).activate():
            composed = compose_mappings(
                parse_mapping(first, table=table), parse_mapping(second, table=table)
            )
        return {"mapping": render_mapping(composed), "exit_code": 0}

    def lint(self, request: dict | None = None) -> dict:
        """Static diagnostics for one or more mappings (no solver runs
        unless ``request["fixes"]`` asks for verified quick-fixes, whose
        certification gate re-solves consistency)."""
        return self._run("lint", request, self._lint_body)

    def _lint_body(self, request: dict) -> dict:
        from repro.analysis import Severity, lint_mapping, merge_reports
        from repro.mappings.io import parse_mapping

        named = _named_texts(request, "mappings")
        context = self._context(request)
        table = self.incremental.parses
        parsed = [(name, parse_mapping(text, table=table)) for name, text in named]
        reports = [
            lint_mapping(mapping, context, name=name)
            for name, mapping in parsed
        ]
        strict = bool(request.get("strict"))
        min_severity = Severity.WARNING if request.get("quiet") else Severity.INFO
        response: dict[str, Any] = {
            "report": merge_reports(reports),
            "rendered": [
                {
                    "name": name,
                    "text": report.render_text(min_severity=min_severity),
                }
                for (name, __), report in zip(named, reports)
            ],
            "exit_code": max(r.exit_code(strict=strict) for r in reports),
        }
        if request.get("fixes"):
            from repro.analysis import fixes_for_report

            only_codes = request.get("only_codes")
            if only_codes is not None and not isinstance(only_codes, list):
                raise RequestError(
                    "request field 'only_codes' must be a list of SMxxx codes"
                )
            response["fixes"] = [
                {
                    "name": name,
                    "fixes": [
                        fix.to_dict()
                        for fix in fixes_for_report(
                            mapping, report, context, only_codes=only_codes
                        )
                    ],
                }
                for (name, mapping), report in zip(parsed, reports)
            ]
        return response

    def delta(self, request: dict | None = None) -> dict:
        """Incrementally re-check a mapping revision (``POST /delta``).

        ``{"name": ..., "mapping": <text>}`` applies one revision of the
        named mapping stream: the edit is diffed against the previous
        revision, and every verdict whose inputs are unchanged is served
        from the memo.  The response carries the full verdict set
        plus reuse accounting under ``"incremental"``.
        """
        return self._run("delta", request, self._delta_body)

    def _delta_body(self, request: dict) -> dict:
        from repro.analysis import Severity

        mapping_text = request.get("mapping")
        if not isinstance(mapping_text, str):
            raise RequestError("request field 'mapping' must be a string")
        name = str(request.get("name") or "default")
        result = self.incremental.update(
            name, mapping_text, budget=self._request_budget(request)
        )
        consistency = result.verdicts["consistency"]
        absolute = result.verdicts["absolutely_consistent"]
        return {
            "name": name,
            "revision": result.revision,
            "cold": result.cold,
            "verdicts": {
                label: _verdict_payload(verdict, request["request_id"])
                for label, verdict in result.verdicts.items()
            },
            "lint": {
                "text": result.lint.render_text(
                    min_severity=Severity.WARNING
                    if request.get("quiet")
                    else Severity.INFO
                ),
                "exit_code": result.lint.exit_code(
                    strict=bool(request.get("strict"))
                ),
            },
            "incremental": {
                "dirty": result.delta.dirty,
                "changed_stds": list(result.delta.changed_stds),
                "invalidated": result.invalidated,
                "reused": result.reused,
                "recompiled": result.recompiled,
                "elapsed": result.elapsed,
            },
            "exit_code": _exit_code(consistency, absolute),
        }

    def stats(self, request: dict | None = None) -> dict:
        """Session/cache/registry accounting (the daemon's ``GET /stats``)."""
        return self._run("stats", request, self._stats_body)

    def _stats_body(self, request: dict) -> dict:
        snapshot = self.registry.snapshot()
        with self._lock:
            requests = dict(self.requests)
        return {
            "session": {
                "uptime_seconds": time.time() - self.started_wall,
                "jobs": self.jobs,
                "cache_dir": self.cache_dir,
                "requests": requests,
            },
            "cache": self.cache.stats(),
            "cache_by_kind": self.cache.stats_by_kind(),
            "cache_entries_by_kind": self.cache.entries_by_kind(),
            "incremental": self.incremental.stats(),
            "flight": self.flight.stats(),
            "registry": {
                "families": len(snapshot),
                "series": sum(len(d["series"]) for d in snapshot.values()),
            },
            "exit_code": 0,
        }

    def selftest(self, request: dict | None = None) -> dict:
        """The self-checking exporter smoke behind ``repro stats`` (CI gate).

        Solves a built-in batch, certifies the decided verdicts, and
        validates the Prometheus/JSON exports plus the merged
        cross-process trace.  ``exit_code`` 1 on any regression.
        """
        return self._run("selftest", request, self._selftest_body)

    def _selftest_body(self, request: dict) -> dict:
        import json as json_module

        from repro.engine import certify
        from repro.mappings.io import parse_mapping
        from repro.obs import parse_prometheus

        jobs = self._jobs(request)
        run = next(self._selftests)
        problems: list[object] = []
        for copy in range(max(2, jobs)):
            mapping = parse_mapping(_SELFTEST_MAPPING.format(copy=f"s{run}_{copy}"))
            problems.append(ConsistencyProblem(mapping))
            problems.append(AbsoluteConsistencyProblem(mapping))
        context = self._context(request)
        with collecting("stats-selftest") as tree:
            batch = solve_many(problems, jobs=jobs, context=context)
            for verdict in batch:
                if not verdict.is_unknown:
                    certify(verdict)
        report = batch.report
        lines = [
            f"self-test: {report.problems} problems over {report.jobs} jobs "
            f"in {report.elapsed:.3f}s"
        ]

        failures: list[str] = []
        text = self.registry.render_prometheus()
        try:
            series = parse_prometheus(text)
        except ValueError as error:
            series = {}
            failures.append(f"prometheus export does not parse: {error}")
        names = {key.split("{", 1)[0] for key in series}
        required = list(_REQUIRED_SERIES)
        if jobs > 1:
            required += list(_REQUIRED_PARALLEL_SERIES)
        for name in required:
            if name not in names:
                failures.append(f"required series missing from export: {name}")
        try:
            json_module.loads(self.registry.render_json())
        except ValueError as error:
            failures.append(f"json export does not parse: {error}")

        trace_dict = tree.to_dict()
        solves = sum(
            1 for span in walk(trace_dict) if span["name"] == "solve"
        )
        if report.trace is None:
            failures.append("batch report carries no merged trace")
        if solves < report.problems:
            failures.append(
                f"trace covers {solves} solve spans for {report.problems} problems"
            )
        lines.append(f"prometheus export: {len(series)} series")
        lines.append(f"trace: {solves} solve spans over {report.chunks} chunks")
        return {
            "lines": lines,
            "failures": failures,
            "exit_code": 1 if failures else 0,
        }

    # -- flight-recorder reads (the daemon's /debug/* routes) ----------------
    #
    # These bypass _run on purpose: inspecting the recorder must not
    # record itself (a polling `repro top` would otherwise flush real
    # requests out of the ring), must never consume admission slots,
    # and is read-only by construction.

    def debug_requests(self, op: str | None = None, status: str | None = None,
                       min_ms: float | None = None, limit: int = 50) -> dict:
        """Recent request summaries from the flight recorder."""
        return {
            "requests": self.flight.requests(
                op=op, status=status, min_ms=min_ms, limit=limit
            ),
            "flight": self.flight.stats(),
        }

    def debug_request(self, trace_id: str) -> dict | None:
        """One full record (span tree included), or ``None`` if the
        trace was never recorded or has been evicted from the ring."""
        return self.flight.lookup(trace_id)

    def debug_slow(self, limit: int = 50) -> dict:
        """Recent slow-request summaries."""
        return {
            "slow": self.flight.slow(limit=limit),
            "threshold_ms": self.flight.slow_ms,
            "slow_log": self.flight.slow_log_path,
        }

    # -- generic dispatch (the daemon's routing table) ----------------------

    HANDLERS = ("check", "member", "compose", "lint", "delta", "stats", "selftest")

    def handle(self, command: str, request: dict | None = None) -> dict:
        """Dispatch *command* to its handler (raises for unknown commands)."""
        if command not in self.HANDLERS:
            raise RequestError(f"unknown service command {command!r}")
        return getattr(self, command)(request)
