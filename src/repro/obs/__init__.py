"""Observability for the solver engine: spans, metrics, profiling.

Three orthogonal, zero-dependency tools (see DESIGN.md §Observability):

* :mod:`repro.obs.spans` — hierarchical trace spans.  Install a
  collector with :func:`collecting`, record regions with :func:`trace`;
  spans capture monotonic timings, budget charges and compilation-cache
  deltas, serialize to plain dicts, and merge across the process
  boundary of ``solve_many`` workers.  Off by default, near-free when
  off.
* :mod:`repro.obs.metrics` — the process-global :data:`REGISTRY` of
  ``repro_*`` counters/gauges/histograms with Prometheus-text and JSON
  exporters, thread-safe and snapshot/merge-able across processes.
* :mod:`repro.obs.profile` — :func:`maybe_profile`, the per-solve
  cProfile wrapper gated behind ``REPRO_PROFILE=1``.
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` ring buffer of
  completed request traces + slow-request log that backs the daemon's
  ``/debug/*`` routes and ``repro top``.

The CLI surfaces all of it: ``--trace[=FILE]`` writes a JSONL span log,
``--metrics[=FILE]`` a registry export, ``--stats`` a registry-derived
summary, ``repro stats`` is the self-checking exporter smoke test, and
``repro top --url`` is the live daemon view.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".flight": ("FlightRecorder", "new_trace_id", "truncate_trace"),
    ".metrics": (
        "BUCKETS_ENV", "REGISTRY", "MetricError", "MetricsRegistry",
        "default_buckets", "diff_snapshots", "estimate_quantile",
        "observe_seconds", "parse_prometheus",
    ),
    ".profile": ("PROFILE_ENV", "maybe_profile", "profiling_enabled"),
    ".spans": (
        "NOOP_SPAN", "Span", "TraceTree", "ambient_tag", "bind_tags",
        "collecting", "current_span", "current_tags", "jsonl", "span_breakdown",
        "trace", "tracing_active", "truncated_span", "walk",
    ),
})
