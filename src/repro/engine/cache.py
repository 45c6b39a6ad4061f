"""The content-hash-keyed compilation cache shared by every procedure.

Solvers spend their time in compiled artifacts — DTD automata, pattern
closure automata, determinized production DFAs, DTD classifications and
the achievable trigger-set tables read off their products.  Each artifact
depends only on the *content* of its inputs, so the cache keys are content
hashes (a DTD's deterministic ``repr``; patterns hash structurally), and
two structurally equal DTDs hit the same entry regardless of object
identity.  A benchmark sweep or CLI session compiles each artifact once.

The cache is a bounded LRU with exact hit/miss/eviction counters
(``--stats`` prints them).  ``CompilationCache(enabled=False)`` gives the
measured-off mode the Figure-1 benchmarks compare against.  An optional
:class:`~repro.engine.diskcache.DiskCacheTier` sits under the LRU so
compiled artifacts survive the interpreter (and are shared by the worker
processes of :func:`repro.engine.parallel.solve_many`): a memory miss
consults the disk before building, and every build is written back.

Defaults are environment-configurable: ``REPRO_CACHE_SIZE`` overrides the
LRU capacity (default 256) and ``REPRO_CACHE_DIR`` attaches a disk tier
to the process-wide :data:`DEFAULT_CACHE`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.automata.bitset import BitsetClosureAutomaton, BitsetDTDAutomaton
from repro.automata.dtd_automaton import DTDAutomaton
from repro.automata.duta import ProductAutomaton, reachable_states
from repro.automata.pattern_automaton import PatternClosureAutomaton
from repro.engine.depgraph import (
    DependencyGraph,
    alphabet_digest,
    dtd_digests,
    pattern_digest,
    production_digest,
)
from repro.engine.diskcache import MISS, DiskCacheTier
from repro.kernel import BITSET, PURE, select_kernel

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
from repro.obs import REGISTRY, trace
from repro.patterns.ast import Pattern
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode

#: Per-kind cache traffic in the global registry (kind = key[0]: the
#: artifact family — "closure", "dtd-automaton", "regex-dfa", ...).
_CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total",
    "Compilation-cache memory hits by artifact kind",
    ("kind",),
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total",
    "Compilation-cache builds (memory+disk misses) by artifact kind",
    ("kind",),
)
_CACHE_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "LRU evictions from the in-memory compilation cache",
)
_COMPILE_SECONDS = REGISTRY.histogram(
    "repro_compile_seconds",
    "Wall-clock seconds spent building one compiled artifact, by kind",
    ("kind",),
)
_DISK_LOAD_SECONDS = REGISTRY.histogram(
    "repro_cache_disk_load_seconds",
    "Wall-clock seconds per disk-tier read (hit or miss)",
)
_DISK_HITS = REGISTRY.counter(
    "repro_cache_disk_hits_total",
    "Disk-tier hits (artifact loaded instead of rebuilt)",
)
_DISK_STORES = REGISTRY.counter(
    "repro_cache_disk_stores_total",
    "Artifacts written back to the disk tier",
)
_INVALIDATED = REGISTRY.counter(
    "repro_incremental_invalidated_total",
    "Artifacts evicted by delta invalidation, by artifact kind",
    ("kind",),
)


def cache_kind(key: Hashable) -> str:
    """The artifact family of a cache key (its leading tag string)."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return "other"

#: Environment overrides for the default cache configuration.
CACHE_SIZE_ENV = "REPRO_CACHE_SIZE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_MAX_ENTRIES = 256


def env_cache_size(default: int = DEFAULT_MAX_ENTRIES) -> int:
    """The LRU capacity from ``REPRO_CACHE_SIZE`` (malformed → default)."""
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None:
        return default
    try:
        size = int(raw)
    except ValueError:
        return default
    return size if size > 0 else default


class CompilationCache:
    """Bounded LRU of compiled artifacts, keyed by input content.

    ``max_entries=None`` reads ``REPRO_CACHE_SIZE`` (default 256).
    *disk* is an optional :class:`DiskCacheTier` consulted on memory
    misses; ``misses`` then counts actual builds, with disk traffic
    reported separately in :meth:`stats`.

    The cache is **thread-safe**: one warm instance is shared by every
    handler thread of the ``repro serve`` daemon, so the LRU order, the
    entry map and the counters mutate only under an internal lock.
    Builds deliberately run *outside* the lock — a slow compilation on
    one thread must not serialize every other thread's hits.  Two
    threads racing the same missing key may both build it (the second
    store wins); artifacts are content-keyed and interchangeable, so
    the worst case is a redundant build, never a wrong answer.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        enabled: bool = True,
        disk: DiskCacheTier | None = None,
    ):
        self.max_entries = env_cache_size() if max_entries is None else max_entries
        self.enabled = enabled
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hits_by_kind: Counter[str] = Counter()
        self.misses_by_kind: Counter[str] = Counter()
        self.depgraph = DependencyGraph()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        """Pickle without the lock (a fresh one is created on unpickle)."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def lookup(
        self,
        key: Hashable,
        build: Callable[[], object],
        deps: Iterable[str] | None = None,
    ) -> object:
        """The cached artifact under *key*, building (and storing) on miss.

        *deps* are the artifact's input digests (see
        :mod:`repro.engine.depgraph`); they are registered in the
        dependency graph whenever the artifact enters the cache, so a
        later delta invalidation can evict exactly the downstream cone
        of an edit.  Omitting *deps* keeps the artifact out of the
        graph (it is then immune to invalidation — correct, because
        content-keyed entries are never *wrong*, only possibly stale).
        """
        kind = cache_kind(key)
        if self.enabled:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    self.hits_by_kind[kind] += 1
                    self._entries.move_to_end(key)
                    value = self._entries[key]
                    _CACHE_HITS.labels(kind=kind).inc()
                    return value
        if self.enabled and self.disk is not None:
            started = time.perf_counter()
            value = self.disk.get(key)
            _DISK_LOAD_SECONDS.observe(time.perf_counter() - started)
            if value is not MISS:
                _DISK_HITS.inc()
                self._store(key, value, deps)
                return value
        with self._lock:
            self.misses += 1
            self.misses_by_kind[kind] += 1
        _CACHE_MISSES.labels(kind=kind).inc()
        with trace("compile", kind=kind):
            started = time.perf_counter()
            value = build()
            build_seconds = time.perf_counter() - started
        _COMPILE_SECONDS.labels(kind=kind).observe(build_seconds)
        if self.enabled:
            self._store(key, value, deps)
            if self.disk is not None:
                if self.disk.put(key, value):
                    _DISK_STORES.inc()
        return value

    def _store(
        self, key: Hashable, value: object, deps: Iterable[str] | None = None
    ) -> None:
        if deps is not None:
            self.depgraph.record(key, deps)
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                # LRU-evicted artifacts stay in the graph (and on disk):
                # they can come back from the disk tier, so they must
                # remain reachable by a later invalidation.
                self._entries.popitem(last=False)
                self.evictions += 1
                _CACHE_EVICTIONS.inc()

    def evict(self, key: Hashable) -> dict[str, bool]:
        """Drop *key* from the memory tier, the disk tier and the graph."""
        with self._lock:
            in_memory = self._entries.pop(key, MISS) is not MISS
        on_disk = self.disk.evict(key) if self.disk is not None else False
        self.depgraph.discard(key)
        return {"memory": in_memory, "disk": on_disk}

    def invalidate(self, dirty: Iterable[str]) -> dict[str, int]:
        """Evict every artifact compiled from a dirty input digest.

        Walks the downstream cone of *dirty* in the dependency graph
        and evicts each artifact from **both** tiers, so neither the
        LRU nor a later session boot can resurrect a stale entry.
        Returns eviction counts; sibling artifacts (no dirty input)
        are untouched and stay warm.
        """
        cone = self.depgraph.cone(dirty)
        counts = {"artifacts": len(cone), "memory": 0, "disk": 0}
        for key in cone:
            dropped = self.evict(key)
            counts["memory"] += dropped["memory"]
            counts["disk"] += dropped["disk"]
            _INVALIDATED.labels(kind=cache_kind(key)).inc()
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            stats = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
        if self.disk is not None:
            stats.update(self.disk.stats())
        return stats

    def stats_by_kind(self) -> dict[str, dict[str, int]]:
        """Hit/miss counts broken down by artifact kind (this instance).

        The process-global registry carries the same breakdown summed
        over every cache instance; this is the per-instance view the
        ``--stats`` accounting reads.
        """
        with self._lock:
            kinds = sorted(set(self.hits_by_kind) | set(self.misses_by_kind))
            return {
                kind: {
                    "hits": self.hits_by_kind.get(kind, 0),
                    "misses": self.misses_by_kind.get(kind, 0),
                }
                for kind in kinds
            }

    def entries_by_kind(self) -> dict[str, int]:
        """Live in-memory entry counts per artifact kind (``/stats``)."""
        with self._lock:
            counts: Counter[str] = Counter(
                cache_kind(key) for key in self._entries
            )
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self.depgraph.clear()


def cache_from_env() -> CompilationCache:
    """A cache configured by ``REPRO_CACHE_SIZE`` / ``REPRO_CACHE_DIR``."""
    directory = os.environ.get(CACHE_DIR_ENV)
    disk = DiskCacheTier(directory) if directory else None
    return CompilationCache(disk=disk)


#: The process-wide cache used when no :class:`ExecutionContext` overrides it.
DEFAULT_CACHE = cache_from_env()


def resolve_cache(context: "ExecutionContext | None" = None) -> CompilationCache:
    """The cache of the (explicit or ambient) context, or the default."""
    from repro.engine.budget import resolve_context

    resolved = resolve_context(context)
    return resolved.cache if resolved is not None else DEFAULT_CACHE


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------


def dtd_key(dtd: DTD) -> str:
    """A content key for a DTD: its deterministic ``repr`` (sorted rows).

    Computed once per object (memoized on the instance), equal across
    distinct objects with identical content.
    """
    key = getattr(dtd, "_content_key", None)
    if key is None:
        key = repr(dtd)
        dtd._content_key = key
    return key


def patterns_key(patterns: Iterable[Pattern]) -> tuple:
    """Patterns are frozen dataclasses — they *are* their content."""
    return tuple(patterns)


# ---------------------------------------------------------------------------
# compiled artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DTDClassification:
    """The schema-class facts routing decisions keep re-deriving."""

    recursive: bool
    nested_relational: bool
    strictly_nested_relational: bool


def dtd_classification(
    dtd: DTD, context: "ExecutionContext | None" = None
) -> DTDClassification:
    """Cached recursive / nested-relational classification of a DTD."""
    cache = resolve_cache(context)
    return cache.lookup(
        ("classification", dtd_key(dtd)),
        lambda: DTDClassification(
            recursive=dtd.is_recursive(),
            nested_relational=dtd.is_nested_relational(),
            strictly_nested_relational=dtd.is_strictly_nested_relational(),
        ),
        deps=dtd_digests(dtd),
    )


def regex_dfa(
    dtd: DTD, label: str, alphabet: frozenset[str],
    context: "ExecutionContext | None" = None,
) -> Any:
    """The determinized production DFA of *label*, total over *alphabet*."""
    cache = resolve_cache(context)
    return cache.lookup(
        ("regex-dfa", dtd_key(dtd), label, alphabet),
        lambda: dtd.production_nfa(label).determinize(alphabet),
        deps=(production_digest(dtd, label), alphabet_digest(dtd)),
    )


class CompiledDTDAutomaton(DTDAutomaton):
    """A :class:`DTDAutomaton` stepping through cached production DFAs.

    The subset construction is paid once per (DTD, alphabet) and stored in
    the compilation cache; ``step_horizontal`` then becomes two dict
    lookups instead of an NFA subset union.  DFA states are the same
    frozensets the NFA stepping produces, so pruning and state identity
    are unchanged.
    """

    def __init__(self, dtd: DTD, extra_labels: Iterable[str] = (),
                 context: "ExecutionContext | None" = None):
        super().__init__(dtd, extra_labels)
        alphabet = self._labels
        self._dfas = {
            label: regex_dfa(dtd, label, alphabet, context)
            for label in dtd.productions
        }

    def initial_horizontal(self, label: str) -> Any:
        dfa = self._dfas.get(label)
        if dfa is None:
            return None  # unknown label: sink
        return (dfa.initial, True)

    def step_horizontal(self, label: str, hstate: Any, child_state: Any) -> Any:
        if hstate is None:
            return None
        subset, children_ok = hstate
        child_label, child_ok = child_state
        return (
            self._dfas[label].transitions[subset][child_label],
            children_ok and child_ok,
        )

    def finish(self, label: str, hstate: Any) -> tuple[str, bool]:
        if hstate is None:
            return (label, False)
        subset, children_ok = hstate
        return (label, children_ok and subset in self._dfas[label].accepting)


def dtd_automaton(
    dtd: DTD, extra_labels: frozenset[str] = frozenset(),
    context: "ExecutionContext | None" = None,
    kernel: str = PURE,
) -> DTDAutomaton:
    """A cached conformance automaton for *dtd* over its labels + extras.

    *kernel* selects the implementation: ``"pure"`` (the default — keys
    and artifacts are byte-identical to the pre-kernel cache) or
    ``"bitset"`` for the integer-encoded fast path.  The two kernels use
    distinct artifact kinds, so a disk tier never serves one in place of
    the other.
    """
    cache = resolve_cache(context)
    if kernel == BITSET:
        return cache.lookup(
            ("bitset-dtd-automaton", dtd_key(dtd), frozenset(extra_labels)),
            lambda: BitsetDTDAutomaton(dtd, extra_labels),
            deps=dtd_digests(dtd),
        )
    return cache.lookup(
        ("dtd-automaton", dtd_key(dtd), frozenset(extra_labels)),
        lambda: CompiledDTDAutomaton(dtd, extra_labels, context),
        deps=dtd_digests(dtd),
    )


def closure_automaton(
    patterns: Iterable[Pattern],
    dtd: DTD,
    extra_labels: frozenset[str] = frozenset(),
    with_arity: bool = True,
    context: "ExecutionContext | None" = None,
    kernel: str = PURE,
) -> PatternClosureAutomaton:
    """A cached pattern closure automaton over *dtd*'s label alphabet.

    See :func:`dtd_automaton` for the *kernel* contract.
    """
    cache = resolve_cache(context)
    patterns = tuple(patterns)
    # closures read only the label/arity alphabet off the DTD, so their
    # dependency set is the alphabet digest plus the patterns — editing a
    # production's content model leaves them warm.
    deps = frozenset(
        {alphabet_digest(dtd)} | {pattern_digest(p) for p in patterns}
    )
    if kernel == BITSET:
        return cache.lookup(
            (
                "bitset-closure",
                dtd_key(dtd),
                patterns,
                frozenset(extra_labels),
                with_arity,
            ),
            lambda: BitsetClosureAutomaton(
                patterns,
                extra_labels=dtd.labels | frozenset(extra_labels),
                arity_of=dtd.arity if with_arity else None,
            ),
            deps=deps,
        )
    return cache.lookup(
        ("closure", dtd_key(dtd), patterns, frozenset(extra_labels), with_arity),
        lambda: PatternClosureAutomaton(
            patterns,
            extra_labels=dtd.labels | frozenset(extra_labels),
            arity_of=dtd.arity if with_arity else None,
        ),
        deps=deps,
    )


def automata_size(dtd: DTD, patterns: Iterable[Pattern]) -> int:
    """The kernel-selection size of an automata problem.

    Subpattern count plus alphabet size — the quantities that scale the
    closure-automaton state space and the per-step work.
    """
    return sum(p.size for p in patterns) + len(dtd.labels)


def achievable_sets(
    dtd: DTD,
    patterns: Iterable[Pattern],
    extra_labels: frozenset[str] = frozenset(),
    with_arity: bool = True,
    context: "ExecutionContext | None" = None,
) -> dict[frozenset[int], TreeNode]:
    """All achievable ``{satisfied pattern indices}`` with a witness each.

    One reachability pass over the product of the DTD automaton and the
    closure automaton of *patterns*, pruning states whose DTD component is
    dead (a non-conforming subtree never occurs inside a conforming tree).
    This table is what the Section-5/6/7 trigger-set algorithms consume;
    caching it is the big win on repeated-DTD sweeps, since the reachability
    pass *is* the exponential part.

    The automata kernel (pure vs bitset, chosen by problem size alone)
    is part of the cache key: the table's
    *content* is kernel-independent, but witnesses may legitimately
    differ between kernels, so artifacts are never reused across them.
    """
    from repro.engine.budget import resolve_context

    cache = resolve_cache(context)
    patterns = tuple(patterns)
    kernel = select_kernel("automata", automata_size(dtd, patterns))
    key = (
        "achievable",
        dtd_key(dtd),
        patterns,
        frozenset(extra_labels),
        with_arity,
        kernel,
    )
    if cache.enabled and key in cache._entries:
        return cache.lookup(key, lambda: None)  # pure hit, no charging

    resolved = resolve_context(context)
    charge = resolved.charge if resolved is not None else None

    def build() -> dict[frozenset[int], TreeNode]:
        closure = closure_automaton(
            patterns, dtd, extra_labels, with_arity, context, kernel=kernel
        )
        conformance = dtd_automaton(
            dtd, frozenset(extra_labels), context, kernel=kernel
        )
        product = ProductAutomaton([conformance, closure])
        realized = reachable_states(
            product,
            prune=lambda state: not conformance.state_ok(state[0]),
            prune_horizontal=lambda label, h: conformance.horizontal_dead(h[0]),
            charge=charge,
        )
        sets: dict[frozenset[int], TreeNode] = {}
        for state, witness in realized.items():
            if conformance.is_accepting(state[0]):
                sets.setdefault(closure.trigger_set(state[1]), witness)
        return sets

    return cache.lookup(
        key,
        build,
        deps=dtd_digests(dtd) | {pattern_digest(p) for p in patterns},
    )
