"""Structured accounting of ``engine.solve`` / ``engine.solve_many`` calls."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.engine.budget import Budget


@dataclass
class SolveReport:
    """What ran, why, and what it cost.

    ``algorithm`` names the procedure the Figure-1/2 routing selected,
    ``reason`` the routing rationale (fragment facts), ``elapsed`` the
    wall-clock seconds, ``expansions`` the charged search steps, and
    ``cache`` the hit/miss/eviction deltas of the compilation cache over
    this solve.  When the solve ran under a trace collector
    (:func:`repro.obs.collecting`), ``trace`` holds the serialized span
    tree of the solve — plain picklable data, so it survives the trip
    back from a ``solve_many`` worker process.

    ``diagnostics`` carries the static classifier's fragment-level
    findings (:func:`repro.analysis.diagnostics_for_problem`):
    immutable :class:`~repro.analysis.Diagnostic` tuples, picklable for
    the same worker round trip.

    ``request_id`` is the service-layer request the solve ran under
    (read from the ambient :func:`repro.obs.bind_tags` binding), or
    ``None`` outside any request — it survives the worker round trip
    exactly like the trace, including crash/timeout synthetics.  It
    names the request that *computed* the verdict: a verdict served
    from a result memo is the stored object, report included, so a
    later request that is served it finds the first request's id here.
    The service's verdict payloads name the serving request instead.
    """

    problem: str
    algorithm: str
    reason: str
    elapsed: float = 0.0
    expansions: int = 0
    cache: dict[str, int] = field(default_factory=dict)
    budget: Budget = field(default_factory=Budget.default)
    trace: dict | None = field(default=None, repr=False)
    diagnostics: tuple = ()
    request_id: str | None = None

    def lines(self) -> list[str]:
        """Render for ``--stats`` output."""
        cache = self.cache or {}
        rendered = [
            f"algorithm: {self.algorithm} ({self.reason})",
            f"elapsed: {self.elapsed:.6f}s  expansions: {self.expansions}",
            "cache: "
            + "  ".join(f"{k}={cache.get(k, 0)}" for k in ("hits", "misses", "evictions")),
        ]
        for diagnostic in self.diagnostics:
            if diagnostic.severity:  # warnings and errors only in --stats
                rendered.append(diagnostic.render())
        return rendered


@dataclass
class BatchReport:
    """Aggregated accounting of one ``engine.solve_many`` batch.

    ``outcomes`` counts verdict kinds (``proved`` / ``refuted`` /
    ``unknown``), ``cache`` sums the per-chunk compilation-cache deltas
    across every worker (plus the driver, on the serial path),
    ``timeouts`` / ``crashes`` count tasks that came back as ``Unknown``
    with a ``worker-timeout`` / ``worker-crash`` reason, and ``retries``
    counts chunks that were re-run after a pool failure took out
    innocent bystanders.

    Under a trace collector, ``trace`` is the merged cross-process span
    tree: a ``solve_many`` root whose children are per-chunk spans
    (annotated with the worker pid and queue wait) wrapping the solve
    spans each worker captured and pickled back with its results.
    ``queue_wait_seconds`` sums the time chunks spent waiting between
    driver submission and worker pickup.
    """

    problems: int = 0
    jobs: int = 1
    chunks: int = 0
    elapsed: float = 0.0
    outcomes: Counter = field(default_factory=Counter)
    cache: Counter = field(default_factory=Counter)
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    queue_wait_seconds: float = 0.0
    trace: dict | None = field(default=None, repr=False)

    def merge_cache(self, stats: dict[str, int]) -> None:
        self.cache.update(stats)

    def lines(self) -> list[str]:
        """Render for ``--stats`` output."""
        outcome = "  ".join(
            f"{kind}={self.outcomes.get(kind, 0)}"
            for kind in ("proved", "refuted", "unknown")
        )
        cache = "  ".join(
            f"{k}={self.cache.get(k, 0)}"
            for k in ("hits", "misses", "disk_hits", "disk_stores")
        )
        return [
            f"batch: {self.problems} problems over {self.jobs} jobs "
            f"({self.chunks} chunks) in {self.elapsed:.6f}s",
            f"outcomes: {outcome}",
            f"cache: {cache}",
            f"recovery: timeouts={self.timeouts}  crashes={self.crashes}  "
            f"retries={self.retries}",
            f"queue-wait: {self.queue_wait_seconds:.6f}s total",
        ]
