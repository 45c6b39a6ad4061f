"""The lint orchestrator: run every analysis pass over a mapping.

:func:`lint_mapping` is the front door (the ``repro lint`` subcommand
and ``engine.solve``'s diagnostics both go through it).  It runs the
pass registry of :mod:`repro.analysis.passes` under a ``lint`` trace
span (one child span per pass) and records the ``repro_lint_*`` metric
series, mirroring the engine's ``repro_solves_total`` conventions.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.passes import PASSES
from repro.engine.budget import ExecutionContext, current_context
from repro.obs import REGISTRY, trace

if TYPE_CHECKING:
    from repro.mappings.mapping import SchemaMapping

_LINTS = REGISTRY.counter(
    "repro_lint_total",
    "Lint runs by worst-severity outcome (clean/info/warning/error)",
    ("outcome",),
)
_LINT_LATENCY = REGISTRY.histogram(
    "repro_lint_latency_seconds",
    "Wall-clock seconds per lint run",
)
_LINT_DIAGNOSTICS = REGISTRY.counter(
    "repro_lint_diagnostics_total",
    "Diagnostics emitted, by code and severity",
    ("code", "severity"),
)
#: The quick-fix engine's series (:mod:`repro.analysis.fixes`), registered
#: with the linter's so a process lists them before any fix is built.
_FIXES_PROPOSED = REGISTRY.counter(
    "repro_fixes_proposed_total",
    "Candidate quick-fixes built, by diagnostic code",
    ("code",),
)
_FIXES_VERIFIED = REGISTRY.counter(
    "repro_fixes_verified_total",
    "Quick-fixes that passed the apply/re-lint/solve verification gate",
    ("code",),
)
_FIXES_REJECTED = REGISTRY.counter(
    "repro_fixes_rejected_total",
    "Quick-fixes rejected by the verification gate, by code and reason",
    ("code", "reason"),
)

PassFn = Callable[["SchemaMapping", ExecutionContext | None], Iterable[Diagnostic]]


def _outcome(report_severity: Severity | None) -> str:
    if report_severity is None:
        return "clean"
    return str(report_severity)


def lint_mapping(
    mapping: "SchemaMapping",
    context: ExecutionContext | None = None,
    *,
    name: str = "",
    only: Sequence[str] | None = None,
) -> LintReport:
    """Run the analysis passes over *mapping* and aggregate a report.

    *context* supplies the compilation cache and budget for the
    pattern-satisfiability checks (the ambient engine context, then a
    fresh default, when omitted).  *only* restricts to a subset of pass
    names (``fragment``, ``dtd``, ``hygiene``, ``composition``,
    ``redundancy``) —
    ``engine.solve`` uses it to skip passes irrelevant to routing.
    When ``context.memo`` is set, a content-identical mapping gets the
    stored report back, under *name*, without re-running any pass.  A
    report is stored only if no budget limit fired while it was linted.
    """
    from repro.incremental import lint_key

    if context is None:
        context = current_context() or ExecutionContext()
    selected: list[tuple[str, PassFn]] = [
        (pass_name, pass_fn)
        for pass_name, pass_fn in PASSES
        if only is None or pass_name in only
    ]
    if only is not None:
        unknown = set(only) - {pass_name for pass_name, __ in PASSES}
        if unknown:
            raise ValueError(f"unknown lint pass(es): {sorted(unknown)}")
    pass_names = tuple(pass_name for pass_name, __ in selected)
    memo = context.memo
    key = None if memo is None else lint_key(mapping, pass_names, context.budget)
    cached = None if key is None else memo.lookup(key)
    if cached is not None:
        return cached if cached.name == name else replace(cached, name=name)
    diagnostics: list[Diagnostic] = []
    fired = context.limits_fired
    started = time.perf_counter()
    with context.activate(), trace("lint", mapping=name or None) as span:
        for pass_name, pass_fn in selected:
            with trace(f"lint-{pass_name}") as pass_span:
                found = tuple(pass_fn(mapping, context))
                pass_span.annotate(diagnostics=len(found))
            diagnostics.extend(found)
        span.annotate(diagnostics=len(diagnostics))
    elapsed = time.perf_counter() - started
    report = LintReport(
        fragment=str(mapping.signature()),
        diagnostics=tuple(diagnostics),
        name=name,
        elapsed=elapsed,
        passes=pass_names,
    )
    if key is not None and context.limits_fired == fired:
        # a report linted while a limit fired may lack the diagnostics of
        # the searches it cut short: never serve it to a later request
        memo.store(key, report)
    _LINTS.labels(outcome=_outcome(report.max_severity())).inc()
    _LINT_LATENCY.observe(elapsed)
    for diagnostic in diagnostics:
        _LINT_DIAGNOSTICS.labels(
            code=diagnostic.code, severity=str(diagnostic.severity)
        ).inc()
    return report
