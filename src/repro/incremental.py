"""Incremental re-solving: diff a mapping edit, reuse what did not change.

Compiled artifacts are content-keyed in the
:class:`~repro.engine.cache.CompilationCache` (and its disk tier); this
module adds the per-revision pieces and the result memo:

* :func:`fingerprint_mapping` reduces a mapping revision to its content
  digests (the whole mapping, each std, each DTD);
* :func:`diff_fingerprints` maps an edit to the parts it changed (stds
  changed or removed, DTDs changed);
* :class:`ResultMemo` holds decided verdicts and lint reports in one LRU.
  ``engine.solve`` and ``lint_mapping`` read and fill the memo of their
  context (``ExecutionContext.memo``, the only channel); without one
  they memoize nothing;
* :class:`IncrementalEngine` owns per-revision bookkeeping, the memo
  and the parse table (:attr:`IncrementalEngine.parses`, an :class:`LRU`
  that ``parse_mapping(text, table=)`` reads and fills: whole texts map
  to their mappings, DTD sections and std lines to their ``DTD`` and
  ``STD`` objects).  ``update(name, text)`` parses the revision through
  the table (so every DTD and std whose text is unchanged keeps its
  object, and the memos it carries), diffs it against the previous one,
  then re-solves the standard problem set — whole-mapping consistency
  and absolute consistency plus per-std source/target satisfiability —
  and re-lints.  A single-std edit of a 20-std mapping re-solves one std
  and reuses nineteen.  An :class:`~repro.service.session.EngineSession`
  parses every request's text through the same table and attaches the
  same memo to every request, so ``/check``, ``/lint``, ``/member``,
  ``/compose`` and ``/delta`` reuse each other's work: a repeated
  question costs a table lookup and a memo lookup.

Correctness story: memo keys are *content* digests plus the budget, so
a reused verdict is byte-for-byte the verdict a cold solve of identical
content would compute, and an edit never has to evict anything.  A hit
serves the stored verdict itself, uncopied and never mutated: its
report keeps the request that computed it, and the service payload
names the request it serves.  ``Unknown`` verdicts are never memoized —
a larger budget or a warmer cache may decide them.  Store rule for lint:
a lint report, and a std's hygiene diagnostics on the std, are stored
only if no budget limit fired while they were computed
(``ExecutionContext.limits_fired`` did not move).  A deadline bounds how
long a check may run, not what it computes, so deadline-bounded requests
(the daemon's) reuse per-std lint work like unbounded ones.  Memory is bounded by
the cache's LRU size (``REPRO_CACHE_SIZE`` / ``--cache-size``), which
also bounds the memo and the parse table; an eviction only costs a
recompute or a re-parse, and an undo edit back to a recent revision is
served from the memo.  The equivalence property (incremental ≡ cold,
both kernels) is pinned by ``tests/test_incremental.py`` and gated in
``benchmarks/bench_incremental.py --smoke``.

Front-ends: ``repro lint --watch`` (a :class:`FileWatcher` polling loop
in :mod:`repro.cli`) and the ``/delta`` handler of
:class:`~repro.service.session.EngineSession`.  Each delta runs under a
``delta`` trace span and moves the ``repro_incremental_{reused,
recompiled}_total`` counters plus the ``repro_delta_seconds`` histogram.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.engine.budget import Budget, ExecutionContext
from repro.engine.cache import (
    LRU,
    CompilationCache,
    dtd_digest,
    mapping_digest,
    pattern_digest,
    std_digests,
)
from repro.engine.diskcache import MISS
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    ConsistencyProblem,
    SatisfiabilityProblem,
)
from repro.obs import REGISTRY, observe_seconds, trace

if TYPE_CHECKING:
    from repro.analysis.diagnostics import LintReport
    from repro.engine.verdicts import Verdict
    from repro.mappings.mapping import SchemaMapping

_REUSED = REGISTRY.counter(
    "repro_incremental_reused_total",
    "Memoized results served instead of re-solving, by result kind",
    ("kind",),
)
_RECOMPILED = REGISTRY.counter(
    "repro_incremental_recompiled_total",
    "Results actually recomputed under the incremental engine, by kind",
    ("kind",),
)
_DELTA_SECONDS = REGISTRY.histogram(
    "repro_delta_seconds",
    "Wall-clock seconds per incremental delta update",
)


def _sha(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# fingerprints and deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingFingerprint:
    """A mapping revision reduced to its content digests."""

    digest: str
    std_digests: tuple[str, ...]
    source_digest: str
    target_digest: str


def fingerprint_mapping(mapping: "SchemaMapping") -> MappingFingerprint:
    """The content fingerprint of *mapping* (cheap: the digests are memoized)."""
    return MappingFingerprint(
        digest=mapping_digest(mapping),
        std_digests=std_digests(mapping),
        source_digest=dtd_digest(mapping.source_dtd),
        target_digest=dtd_digest(mapping.target_dtd),
    )


@dataclass(frozen=True)
class MappingDelta:
    """What an edit changed: which stds, how many removed, which DTDs."""

    changed_stds: tuple[int, ...]
    removed_stds: int
    source_dtd_changed: bool
    target_dtd_changed: bool
    cold: bool = False

    @property
    def dirty(self) -> int:
        """How many parts changed: stds changed or removed, DTDs changed."""
        return (
            len(self.changed_stds)
            + self.removed_stds
            + self.source_dtd_changed
            + self.target_dtd_changed
        )

    @property
    def unchanged(self) -> bool:
        return not self.cold and not self.dirty


def diff_fingerprints(
    old: MappingFingerprint | None, new: MappingFingerprint
) -> MappingDelta:
    """The delta from revision *old* to *new* (``old=None`` = cold start)."""
    if old is None:
        return MappingDelta(
            changed_stds=tuple(range(len(new.std_digests))),
            removed_stds=0,
            source_dtd_changed=True,
            target_dtd_changed=True,
            cold=True,
        )
    old_stds = set(old.std_digests)
    changed = tuple(
        index
        for index, digest in enumerate(new.std_digests)
        if digest not in old_stds
    )
    return MappingDelta(
        changed_stds=changed,
        removed_stds=len(old_stds - set(new.std_digests)),
        source_dtd_changed=old.source_digest != new.source_digest,
        target_dtd_changed=old.target_digest != new.target_digest,
    )


# ---------------------------------------------------------------------------
# the result memo: verdicts and lint reports, bounded by the cache's LRU size
# ---------------------------------------------------------------------------


def verdict_key(problem: object, budget: Budget) -> tuple | None:
    """The memo key of a supported problem (None: not memoizable).

    Budgets enter the key: a tighter budget may yield a different
    (Unknown) verdict, so verdicts are only reused under equal limits.
    """
    if isinstance(problem, ConsistencyProblem):
        return ("verdict", "consistency", mapping_digest(problem.mapping), budget)
    if isinstance(problem, AbsoluteConsistencyProblem):
        return ("verdict", "abscons", mapping_digest(problem.mapping), budget)
    if isinstance(problem, SatisfiabilityProblem):
        return ("verdict", "satisfiability", dtd_digest(problem.dtd),
                pattern_digest(problem.pattern), budget)
    return None


def lint_key(mapping: "SchemaMapping", passes: tuple[str, ...], budget: Budget) -> tuple:
    """The memo key of a whole-mapping :class:`LintReport` (budgets as above)."""
    return ("lint", mapping_digest(mapping), passes, budget)


class ResultMemo(LRU):
    """Decided verdicts and lint reports under content keys, in one :class:`LRU`.

    A key's first element (``verdict`` or ``lint``) labels the reuse
    counters.  ``Unknown`` verdicts are never stored: re-solving may
    decide them.
    """

    def lookup(self, key: tuple) -> object | None:
        value = self.get(key)
        if value is MISS:
            return None
        _REUSED.labels(kind=key[0]).inc()
        return value

    def store(self, key: tuple, value: object) -> None:
        _RECOMPILED.labels(kind=key[0]).inc()
        if not getattr(value, "is_unknown", False):
            self.put(key, value)


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------


@dataclass
class DeltaResult:
    """One ``update()``'s outcome: verdicts, lint, and reuse accounting."""

    name: str
    revision: str
    #: the revision as solved (its parts reused from the previous one)
    mapping: "SchemaMapping"
    delta: MappingDelta
    verdicts: dict[str, "Verdict"]
    lint: "LintReport"
    #: LRU evictions during the update: compiled ``artifacts`` from the
    #: cache, memoized ``results`` from the result memo
    invalidated: dict[str, int]
    reused: int
    recompiled: int
    elapsed: float
    #: seconds per pipeline phase: parse, fingerprint (fingerprint and
    #: diff), solve and lint
    phases: dict[str, float]

    @property
    def cold(self) -> bool:
        return self.delta.cold


class IncrementalEngine:
    """Per-revision state: fingerprints, the result memo, the parse
    table, the delta pipeline.

    One engine is owned by an :class:`~repro.service.session.EngineSession`
    (the ``/delta`` handler, also behind ``repro lint --watch``); it
    shares the session's compilation cache, and the session parses every
    request through its :attr:`parses` table and attaches its
    :attr:`memo` to every request, so one-shot requests and deltas reuse
    each other's parses, artifacts and results.  The memo and the table
    each hold at most the cache's ``max_entries``; parsed parts are
    shared by every stream and revision until the table evicts them.
    ``update`` is safe to call from concurrent handler threads.
    """

    #: Problem labels solved per revision, in response order.
    CHECKS = ("consistency", "absolutely_consistent")

    def __init__(
        self,
        cache: CompilationCache | None = None,
        budget: Budget | None = None,
    ) -> None:
        self.cache = cache if cache is not None else CompilationCache()
        self.budget = budget if budget is not None else Budget.default()
        self.memo = ResultMemo(self.cache.max_entries)
        #: parsed texts, DTD sections and std lines (``parse_mapping(text,
        #: table=)``), shared by every request of the owning session
        self.parses = LRU(self.cache.max_entries)
        self._revisions: dict[str, MappingFingerprint] = {}
        self._lock = threading.Lock()
        self.deltas = 0

    def _problems(self, mapping: "SchemaMapping") -> dict[str, object]:
        from repro.analysis.passes import satisfiability_pattern

        problems: dict[str, object] = {
            "consistency": ConsistencyProblem(mapping),
            "absolutely_consistent": AbsoluteConsistencyProblem(mapping),
        }
        for index, std in enumerate(mapping.stds):
            problems[f"std[{index}].source"] = SatisfiabilityProblem(
                mapping.source_dtd, satisfiability_pattern(std.source)
            )
            problems[f"std[{index}].target"] = SatisfiabilityProblem(
                mapping.target_dtd, satisfiability_pattern(std.target)
            )
        return problems

    def _evictions(self) -> dict[str, int]:
        return {"artifacts": self.cache.evictions, "results": self.memo.evictions}

    def update(
        self,
        name: str,
        mapping: "SchemaMapping | str",
        budget: Budget | None = None,
    ) -> DeltaResult:
        """Apply revision *mapping* of the stream *name* and re-solve.

        Returns the full verdict set for the revision; everything whose
        inputs are unchanged is served from the memo.  Given text, it is
        parsed through :attr:`parses`: DTD sections and std lines still
        in the table are not re-parsed, so their objects, and the memos
        those objects carry, are reused.
        """
        from repro.analysis.lint import lint_mapping
        from repro.engine.core import solve
        from repro.mappings.io import parse_mapping

        budget = budget if budget is not None else self.budget
        started = time.perf_counter()
        if isinstance(mapping, str):
            mapping = parse_mapping(mapping, table=self.parses)
        parsed = time.perf_counter()
        reused_before = _family_total(_REUSED)
        recompiled_before = _family_total(_RECOMPILED)
        evictions_before = self._evictions()
        new = fingerprint_mapping(mapping)
        with self._lock:
            old = self._revisions.get(name)
            self._revisions[name] = new
            self.deltas += 1
        delta = diff_fingerprints(old, new)
        with observe_seconds(_DELTA_SECONDS), trace(
            "delta", mapping=name, cold=delta.cold or None
        ) as span:
            fingerprinted = time.perf_counter()
            context = ExecutionContext(budget, cache=self.cache, memo=self.memo)
            verdicts = {
                label: solve(problem, context)
                for label, problem in self._problems(mapping).items()
            }
            solved = time.perf_counter()
            report = lint_mapping(mapping, context, name=name)
            invalidated = {
                part: count - evictions_before[part]
                for part, count in self._evictions().items()
            }
            span.annotate(
                dirty=delta.dirty,
                invalidated=invalidated["artifacts"] + invalidated["results"],
            )
        finished = time.perf_counter()
        return DeltaResult(
            name=name,
            revision=new.digest,
            mapping=mapping,
            delta=delta,
            verdicts=verdicts,
            lint=report,
            invalidated=invalidated,
            reused=int(_family_total(_REUSED) - reused_before),
            recompiled=int(_family_total(_RECOMPILED) - recompiled_before),
            elapsed=finished - started,
            phases={
                "parse": parsed - started,
                "fingerprint": fingerprinted - parsed,
                "solve": solved - fingerprinted,
                "lint": finished - solved,
            },
        )

    def stats(self) -> dict[str, int]:
        """Incremental health for ``/stats`` and ``/metrics`` consumers."""
        with self._lock:
            revisions = len(self._revisions)
            deltas = self.deltas
        memoized = self.memo.entries_by_kind()
        return {
            "revisions": revisions,
            "deltas": deltas,
            "memoized_verdicts": memoized.get("verdict", 0),
            "memoized_lints": memoized.get("lint", 0),
            "parse_entries": len(self.parses),
            "parse_evictions": self.parses.evictions,
        }


def _family_total(family) -> float:
    """Sum of one counter family's series (per-update reuse accounting)."""
    with family.registry._lock:
        return sum(child.value for child in family.children.values())


# ---------------------------------------------------------------------------
# file watching (the `repro lint --watch` substrate)
# ---------------------------------------------------------------------------


class FileWatcher:
    """Cheap stdlib change detection over a fixed set of files.

    ``poll()`` stats every path; only files whose (mtime, size) moved
    are re-read and content-digested, so an unchanged tree costs a few
    ``stat`` calls per tick and an editor's touch-without-change does
    not trigger a spurious re-lint.  Missing files (mid-save renames)
    are skipped until they reappear.
    """

    def __init__(self, paths: Sequence[str | Path]):
        self.paths = [Path(p) for p in paths]
        self._stamps: dict[Path, tuple[int, int]] = {}
        self._digests: dict[Path, str] = {}
        for path in self.paths:
            self._snapshot(path)

    def _snapshot(self, path: Path) -> None:
        try:
            stat = path.stat()
            self._stamps[path] = (stat.st_mtime_ns, stat.st_size)
            self._digests[path] = _sha(path.read_text())
        except OSError:
            pass

    def poll(self) -> list[Path]:
        """The paths whose *content* changed since the last poll."""
        changed: list[Path] = []
        for path in self.paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            stamp = (stat.st_mtime_ns, stat.st_size)
            if stamp == self._stamps.get(path):
                continue
            try:
                digest = _sha(path.read_text())
            except OSError:
                continue
            self._stamps[path] = stamp
            if digest != self._digests.get(path):
                self._digests[path] = digest
                changed.append(path)
        return changed
