"""Incremental re-solving: diff a mapping edit, invalidate its cone, reuse the rest.

Every edit used to pay a cold solve.  The compiled artifacts were
already content-keyed in the :class:`~repro.engine.cache.CompilationCache`
(and its disk tier), and since PR 8 every compile registers its input
digests in the cache's :class:`~repro.engine.depgraph.DependencyGraph` —
this module closes the loop:

* :func:`fingerprint_mapping` reduces a mapping revision to its input
  digests (one per std, per DTD production, per label/arity alphabet);
* :func:`diff_fingerprints` maps an edit to the set of **dirty** digests
  (the symmetric difference — old content that disappeared, new content
  that arrived);
* :class:`IncrementalEngine` owns the third piece: per-revision
  bookkeeping.  ``update(name, text)`` parses the revision (taking
  over the previous revision's DTD and std objects, and the memos they
  carry, wherever their text is unchanged), diffs it against the
  previous one, invalidates exactly the downstream cone
  (compiled artifacts out of both cache tiers via
  :meth:`CompilationCache.invalidate`, memoized verdicts and lint
  reports out of the in-process memos), then re-solves the standard
  problem set — whole-mapping consistency and absolute consistency plus
  per-std source/target satisfiability — and re-lints.  Decided verdicts
  whose inputs are untouched come straight out of the
  :class:`VerdictMemo` (consulted by ``engine.solve`` through
  ``context.memo``), so a single-std edit of a 20-std mapping re-solves
  one std and reuses nineteen.

Correctness story: memo keys are *content* digests (problem inputs plus
the budget), so a reused verdict is byte-for-byte the verdict a cold
solve of identical content would compute.  ``Unknown`` verdicts are
never memoized — a larger budget or a warmer cache may decide them, so
they are re-solved each time.  Invalidation is therefore hygiene (bound
memory, evict dead disk files), not a correctness requirement; the
equivalence property (incremental ≡ cold, both kernels) is pinned by
``tests/test_incremental.py`` and gated in
``benchmarks/bench_incremental.py --smoke``.

Front-ends: ``repro lint --watch`` (a :class:`FileWatcher` polling loop
in :mod:`repro.cli`) and the ``/delta`` handler of
:class:`~repro.service.session.EngineSession`.  Each delta runs under a
``delta`` trace span and moves the ``repro_incremental_{reused,
invalidated,recompiled}_total`` counters plus the ``repro_delta_seconds``
histogram.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.engine.budget import Budget, ExecutionContext
from repro.engine.cache import CompilationCache, cache_kind
from repro.engine.depgraph import (
    dtd_digest,
    dtd_digests,
    mapping_digest,
    mapping_digests,
    pattern_digest,
    std_digests,
)
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    ConsistencyProblem,
    SatisfiabilityProblem,
)
from repro.obs import REGISTRY, observe_seconds, trace
from repro.values import SkolemTerm

if TYPE_CHECKING:
    from repro.analysis.diagnostics import LintReport
    from repro.engine.verdicts import Verdict
    from repro.mappings.mapping import SchemaMapping
    from repro.patterns.ast import Pattern

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
_INVALIDATED = REGISTRY.counter(
    "repro_incremental_invalidated_total",
    "Artifacts evicted by delta invalidation, by artifact kind",
    ("kind",),
)
_DELTA_SECONDS = REGISTRY.histogram(
    "repro_delta_seconds",
    "Wall-clock seconds per incremental delta update",
)
_DEPGRAPH_ARTIFACTS = REGISTRY.gauge(
    "repro_depgraph_artifacts",
    "Artifacts currently registered in the dependency graph",
)

#: Memo-owned cache kinds: these keys live in the in-process memos, not
#: in the compilation cache's entry map or on disk.
_RESULT_KINDS = frozenset({"verdict", "lint-report"})


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
    source_digests: frozenset[str]
    target_digests: frozenset[str]
    pattern_digests: frozenset[str]

    @property
    def inputs(self) -> frozenset[str]:
        """Every input digest of the revision (the differ's universe)."""
        return (
            self.source_digests
            | self.target_digests
            | self.pattern_digests
            | frozenset(self.std_digests)
        )


def fingerprint_mapping(mapping: "SchemaMapping") -> MappingFingerprint:
    """The content fingerprint of *mapping* (cheap: memoized DTD digests).

    Pattern digests cover both the raw std patterns and their
    value-stripped (``SM°``) projections — the two forms compiled
    artifacts actually register as inputs — and a pattern shared by two
    stds only turns dirty when *every* user of it changes, so shared
    closure automata survive single-std edits.
    """
    patterns: set[str] = set()
    for std in mapping.stds:
        patterns.update(std._memo("pattern-digests", lambda: tuple(
            pattern_digest(form)
            for pattern in (std.source, std.target)
            for form in (pattern, pattern.strip_values())
        )))
    return MappingFingerprint(
        digest=mapping_digest(mapping),
        std_digests=std_digests(mapping),
        source_digests=dtd_digests(mapping.source_dtd),
        target_digests=dtd_digests(mapping.target_dtd),
        pattern_digests=frozenset(patterns),
    )


@dataclass(frozen=True)
class MappingDelta:
    """What an edit changed, in digest terms.

    ``dirty`` is the symmetric difference of the two revisions' input
    digests — digests whose content disappeared (their artifacts are
    stale) plus digests that are new (nothing compiled yet).  The
    invalidation cone of ``dirty`` is exactly the set of artifacts an
    edit can have made stale.
    """

    dirty: frozenset[str]
    changed_stds: tuple[int, ...]
    removed_stds: int
    source_dtd_changed: bool
    target_dtd_changed: bool
    cold: bool = False

    @property
    def unchanged(self) -> bool:
        return not self.cold and not self.dirty


def diff_fingerprints(
    old: MappingFingerprint | None, new: MappingFingerprint
) -> MappingDelta:
    """The delta from revision *old* to *new* (``old=None`` = cold start)."""
    if old is None:
        return MappingDelta(
            dirty=new.inputs,
            changed_stds=tuple(range(len(new.std_digests))),
            removed_stds=0,
            source_dtd_changed=True,
            target_dtd_changed=True,
            cold=True,
        )
    dirty = old.inputs ^ new.inputs
    old_stds = set(old.std_digests)
    changed = tuple(
        index
        for index, digest in enumerate(new.std_digests)
        if digest not in old_stds
    )
    return MappingDelta(
        dirty=frozenset(dirty),
        changed_stds=changed,
        removed_stds=len(old_stds - set(new.std_digests)),
        source_dtd_changed=old.source_digests != new.source_digests,
        target_dtd_changed=old.target_digests != new.target_digests,
    )


# ---------------------------------------------------------------------------
# memos: verdicts and lint reports, registered in the dependency graph
# ---------------------------------------------------------------------------


class VerdictMemo:
    """Decided verdicts keyed by problem content + budget.

    ``engine.solve`` consults an attached memo (``context.memo``) before
    routing and stores every decided verdict afterwards; each stored key
    is registered in the dependency graph under the problem's input
    digests, so delta invalidation drops exactly the verdicts an edit
    could change.  ``Unknown`` verdicts are never stored (re-solving may
    decide them), and unsupported problem types simply bypass the memo.
    """

    def __init__(self, graph) -> None:
        self._graph = graph
        self._entries: dict[Hashable, "Verdict"] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(problem: object, budget: Budget) -> tuple | None:
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

    @staticmethod
    def _inputs(problem: object) -> frozenset[str]:
        """The input digests a memoized verdict of *problem* depends on."""
        if isinstance(problem, SatisfiabilityProblem):
            return dtd_digests(problem.dtd) | {pattern_digest(problem.pattern)}
        return mapping_digests(problem.mapping)

    def lookup(self, problem: object, budget: Budget) -> "Verdict | None":
        key = self._key(problem, budget)
        if key is None:
            return None
        with self._lock:
            verdict = self._entries.get(key)
        if verdict is not None:
            _REUSED.labels(kind="verdict").inc()
        return verdict

    def store(self, problem: object, budget: Budget, verdict: "Verdict") -> None:
        _RECOMPILED.labels(kind="verdict").inc()
        if verdict.is_unknown:
            return
        key = self._key(problem, budget)
        if key is None:
            return
        with self._lock:
            self._entries[key] = verdict
        self._graph.record(key, self._inputs(problem))

    def drop(self, key: Hashable) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LintMemo:
    """Whole-mapping :class:`LintReport` objects, invalidated like verdicts."""

    def __init__(self, graph) -> None:
        self._graph = graph
        self._entries: dict[Hashable, "LintReport"] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(mapping: "SchemaMapping", passes: tuple[str, ...]) -> tuple:
        return ("lint-report", mapping_digest(mapping), passes)

    def lookup(
        self, mapping: "SchemaMapping", passes: tuple[str, ...]
    ) -> "LintReport | None":
        with self._lock:
            report = self._entries.get(self._key(mapping, passes))
        if report is not None:
            _REUSED.labels(kind="lint").inc()
        return report

    def store(
        self,
        mapping: "SchemaMapping",
        passes: tuple[str, ...],
        report: "LintReport",
    ) -> None:
        _RECOMPILED.labels(kind="lint").inc()
        key = self._key(mapping, passes)
        with self._lock:
            self._entries[key] = report
        self._graph.record(key, mapping_digests(mapping))

    def drop(self, key: Hashable) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------


def _sat_pattern(pattern: "Pattern") -> "Pattern":
    # Skolem terms (legal on target sides) are outside Lemma 4.1;
    # stripping values keeps the check sound, mirroring the linter's
    # dead/unsafe-std probe.
    if any(isinstance(term, SkolemTerm) for term in pattern.terms()):
        return pattern.strip_values()
    return pattern


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
    invalidated: dict[str, int]
    reused: int
    recompiled: int
    elapsed: float
    #: seconds per pipeline phase: parse, fingerprint (fingerprint, diff
    #: and invalidation), solve and lint
    phases: dict[str, float]

    @property
    def cold(self) -> bool:
        return self.delta.cold


class IncrementalEngine:
    """Per-revision state: fingerprints, memos, and the delta pipeline.

    One engine is owned by an :class:`~repro.service.session.EngineSession`
    (the ``/delta`` handler) or by a ``repro lint --watch`` loop; it
    shares the session's compilation cache, so artifact reuse spans
    one-shot requests and deltas alike.  ``update`` is safe to call from
    concurrent handler threads.
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
        self.verdicts = VerdictMemo(self.cache.depgraph)
        self.lints = LintMemo(self.cache.depgraph)
        self._revisions: dict[str, MappingFingerprint] = {}
        #: per stream: the parsed sections of its last revision (see
        #: ``parse_mapping(reuse=)``)
        self._sections: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.deltas = 0

    # -- invalidation -------------------------------------------------------

    def invalidate(self, dirty: Iterable[str]) -> dict[str, int]:
        """Evict the downstream cone of *dirty* from every tier.

        Compiled artifacts leave the memory LRU *and* the disk tier
        (:meth:`CompilationCache.invalidate`); memoized verdicts and
        lint reports leave their memos.  Siblings stay warm.
        """
        dirty = frozenset(dirty)
        cone = self.cache.depgraph.cone(dirty)
        counts = {"artifacts": 0, "results": 0, "memory": 0, "disk": 0}
        for key in cone:
            kind = cache_kind(key)
            if kind in _RESULT_KINDS:
                if self.verdicts.drop(key) or self.lints.drop(key):
                    counts["results"] += 1
                self.cache.depgraph.discard(key)
                _INVALIDATED.labels(kind=kind).inc()
            else:
                dropped = self.cache.evict(key)
                counts["artifacts"] += 1
                counts["memory"] += dropped["memory"]
                counts["disk"] += dropped["disk"]
                _INVALIDATED.labels(kind=kind).inc()
        return counts

    # -- the delta pipeline -------------------------------------------------

    def _problems(self, mapping: "SchemaMapping") -> dict[str, object]:
        problems: dict[str, object] = {
            "consistency": ConsistencyProblem(mapping),
            "absolutely_consistent": AbsoluteConsistencyProblem(mapping),
        }
        for index, std in enumerate(mapping.stds):
            problems[f"std[{index}].source"] = SatisfiabilityProblem(
                mapping.source_dtd, _sat_pattern(std.source)
            )
            problems[f"std[{index}].target"] = SatisfiabilityProblem(
                mapping.target_dtd, _sat_pattern(std.target)
            )
        return problems

    def update(
        self,
        name: str,
        mapping: "SchemaMapping | str",
        budget: Budget | None = None,
    ) -> DeltaResult:
        """Apply revision *mapping* of the stream *name* and re-solve.

        Returns the full verdict set for the revision; everything whose
        inputs the edit did not touch is served from the memos.  Given
        text, the DTD sections and std lines the stream's previous
        revision already had are not re-parsed: their objects, and the
        memos those objects carry, are reused.
        """
        from repro.analysis.lint import lint_mapping
        from repro.engine.core import solve
        from repro.mappings.io import parse_mapping

        budget = budget if budget is not None else self.budget
        started = time.perf_counter()
        if isinstance(mapping, str):
            with self._lock:
                sections = dict(self._sections.get(name, ()))
            mapping = parse_mapping(mapping, reuse=sections)
            with self._lock:
                self._sections[name] = sections
        parsed = time.perf_counter()
        reused_before = _family_total(_REUSED)
        recompiled_before = _family_total(_RECOMPILED)
        new = fingerprint_mapping(mapping)
        with self._lock:
            old = self._revisions.get(name)
            self._revisions[name] = new
            self.deltas += 1
        delta = diff_fingerprints(old, new)
        with observe_seconds(_DELTA_SECONDS), trace(
            "delta", mapping=name, cold=delta.cold or None
        ) as span:
            invalidated = (
                self.invalidate(delta.dirty)
                if delta.dirty and not delta.cold
                else {"artifacts": 0, "results": 0, "memory": 0, "disk": 0}
            )
            fingerprinted = time.perf_counter()
            context = ExecutionContext(
                budget, cache=self.cache, memo=self.verdicts
            )
            verdicts = {
                label: solve(problem, context)
                for label, problem in self._problems(mapping).items()
            }
            solved = time.perf_counter()
            report = lint_mapping(
                mapping, context, name=name, memo=self.lints
            )
            span.annotate(
                dirty=len(delta.dirty),
                invalidated=invalidated["artifacts"] + invalidated["results"],
            )
        finished = time.perf_counter()
        _DEPGRAPH_ARTIFACTS.set(len(self.cache.depgraph))
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
        return {
            "revisions": revisions,
            "deltas": deltas,
            "memoized_verdicts": len(self.verdicts),
            "memoized_lints": len(self.lints),
            **{f"depgraph_{k}": v for k, v in self.cache.depgraph.stats().items()},
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
