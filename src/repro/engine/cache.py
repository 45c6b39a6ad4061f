"""The content-hash-keyed compilation cache shared by every procedure.

Solvers spend their time in compiled artifacts — the bitset DTD automata
and pattern closure automata of :mod:`repro.automata.bitset`, DTD
classifications and the achievable trigger-set tables read off their
products.  Each artifact depends only on the *content* of its inputs, so
the cache keys are content hashes (a DTD's deterministic ``repr``;
patterns hash structurally), and two structurally equal DTDs hit the same
entry regardless of object identity.  A benchmark sweep or CLI session compiles each artifact once.

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

The content digests at the bottom (:func:`dtd_digest`,
:func:`mapping_digest`, ...) key the warm engine's result memo, which is
bounded by the same :class:`LRU` policy and size.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.automata.bitset import BitsetClosureAutomaton, BitsetDTDAutomaton
from repro.automata.duta import ProductAutomaton, reachable_states

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
    from repro.engine.diskcache import DiskCacheTier
    from repro.mappings.mapping import SchemaMapping
    from repro.mappings.std import STD
from repro.obs import REGISTRY, trace
from repro.patterns.ast import Pattern
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode

#: Per-kind cache traffic in the global registry (kind = key[0]: the
#: artifact family — "bitset-closure", "achievable", ...).
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


#: Sentinel distinguishing "no entry" from a cached ``None`` (the LRU's
#: and the disk tier's).
MISS = object()


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


class LRU:
    """A thread-safe map of at most ``max_entries`` entries.

    ``max_entries=None`` reads ``REPRO_CACHE_SIZE`` (default 256).  A read
    marks its entry most recently used; a store past capacity drops the
    least recently used entries and counts them in ``evictions``.  The
    compilation cache and the warm engine's result memo and parse table
    share this one policy.
    """

    def __init__(self, max_entries: int | None = None):
        self.max_entries = env_cache_size() if max_entries is None else max_entries
        self.evictions = 0
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

    def get(self, key: Hashable, default: object = MISS) -> object:
        """The entry under *key*, or *default* (:data:`MISS`)."""
        with self._lock:
            value = self._entries.get(key, MISS)
            if value is MISS:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> int:
        """Store *value* under *key*; returns how many entries it evicted."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = max(0, len(self._entries) - self.max_entries)
            for __ in range(evicted):
                self._entries.popitem(last=False)
            self.evictions += evicted
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries_by_kind(self) -> dict[str, int]:
        """Live entry counts per key kind (``/stats``)."""
        with self._lock:
            counts: Counter[str] = Counter(
                cache_kind(key) for key in self._entries
            )
        return dict(sorted(counts.items()))


class CompilationCache(LRU):
    """Bounded LRU of compiled artifacts, keyed by input content.

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
        super().__init__(max_entries)
        self.enabled = enabled
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self.hits_by_kind: Counter[str] = Counter()
        self.misses_by_kind: Counter[str] = Counter()

    def lookup(self, key: Hashable, build: Callable[[], object]) -> object:
        """The cached artifact under *key*, building (and storing) on miss."""
        kind = cache_kind(key)
        if self.enabled:
            with self._lock:
                value = self.get(key)
                if value is not MISS:
                    self.hits += 1
                    self.hits_by_kind[kind] += 1
            if value is not MISS:
                _CACHE_HITS.labels(kind=kind).inc()
                return value
        if self.enabled and self.disk is not None:
            started = time.perf_counter()
            value = self.disk.get(key)
            _DISK_LOAD_SECONDS.observe(time.perf_counter() - started)
            if value is not MISS:
                _DISK_HITS.inc()
                self._store(key, value)
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
            self._store(key, value)
            if self.disk is not None:
                if self.disk.put(key, value):
                    _DISK_STORES.inc()
        return value

    def _store(self, key: Hashable, value: object) -> None:
        evicted = self.put(key, value)
        if evicted:
            _CACHE_EVICTIONS.inc(evicted)

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


def cache_from_env() -> CompilationCache:
    """A cache configured by ``REPRO_CACHE_SIZE`` / ``REPRO_CACHE_DIR``."""
    directory = os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return CompilationCache()
    from repro.engine.diskcache import DiskCacheTier

    return CompilationCache(disk=DiskCacheTier(directory))


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


def _sha(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


def dtd_digest(dtd: DTD) -> str:
    """A short digest of :func:`dtd_key` (memoized on the instance)."""
    cached = getattr(dtd, "_digest", None)
    if cached is None:
        cached = dtd._digest = f"dtd:{_sha(dtd_key(dtd))}"
    return cached


@lru_cache(maxsize=4096)
def pattern_digest(pattern: Pattern) -> str:
    """The content digest of a tree pattern (frozen dataclass ``repr``)."""
    return f"pat:{_sha(repr(pattern))}"


def std_digest(std: "STD") -> str:
    """The content digest of one source-to-target dependency (memoized)."""
    return std._memo("digest", lambda: f"std:{_sha(repr(std))}")


def std_digests(mapping: "SchemaMapping") -> tuple[str, ...]:
    """The digest of every std of *mapping*, in order (memoized on it)."""
    return mapping._memo(
        "_std_digests", lambda: tuple(std_digest(std) for std in mapping.stds)
    )


def mapping_digest(mapping: "SchemaMapping") -> str:
    """One digest of a whole mapping: both DTDs and the std list (memoized)."""
    return mapping._memo("_digest", lambda: "map:" + _sha("||".join((
        dtd_digest(mapping.source_dtd),
        dtd_digest(mapping.target_dtd),
        *std_digests(mapping),
    ))))


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
    )


def dtd_automaton(
    dtd: DTD, context: "ExecutionContext | None" = None
) -> BitsetDTDAutomaton:
    """The cached conformance automaton of *dtd*, over the DTD's own labels.

    One automaton per DTD per cache.  Every search it takes part in is a
    conforming one (``reachable_states(conformance=...)``), which never
    realizes a label without a production, so the labels a pattern names
    beyond the DTD's would only widen the DFA rows and split the key.
    """
    cache = resolve_cache(context)
    return cache.lookup(
        ("bitset-dtd-automaton", dtd_key(dtd)),
        lambda: BitsetDTDAutomaton(dtd),
    )


def closure_automaton(
    patterns: Iterable[Pattern],
    dtd: DTD,
    context: "ExecutionContext | None" = None,
) -> BitsetClosureAutomaton:
    """A cached pattern closure automaton over *dtd*'s labels and the patterns'.

    Arities come from *dtd*; they only gate subpatterns that bind attributes.
    """
    cache = resolve_cache(context)
    patterns = tuple(patterns)
    return cache.lookup(
        ("bitset-closure", dtd_key(dtd), patterns),
        lambda: BitsetClosureAutomaton(
            patterns, extra_labels=dtd.labels, arity_of=dtd.arity
        ),
    )


def achievable_sets(
    dtd: DTD,
    patterns: Iterable[Pattern],
    context: "ExecutionContext | None" = None,
) -> dict[frozenset[int], TreeNode]:
    """All achievable ``{satisfied pattern indices}`` with a witness each.

    One conforming-product reachability pass over the DTD automaton and
    the closure automaton of *patterns*: ``conformance=`` prunes states
    whose DTD component is dead (a non-conforming subtree never occurs
    inside a conforming tree) and steps a child only under parents whose
    content model can read its label.  Only the first state found for
    each trigger set has its witness built.
    This table is what the Section-5/6/7 trigger-set algorithms consume;
    caching it is the big win on repeated-DTD sweeps, since the reachability
    pass *is* the exponential part.  The key is the DTD and the pattern
    tuple alone (arities always come from the DTD, see
    :func:`closure_automaton`), so CONS and ABSCONS° over one mapping
    share one entry per schema side (:func:`trigger_tables`).
    :func:`repro.verification.reachability.achievable_sets_reference`
    computes the same table over the plain automata, uncached.
    """
    from repro.engine.budget import resolve_context

    cache = resolve_cache(context)
    patterns = tuple(patterns)
    key = ("achievable", dtd_key(dtd), patterns)
    if cache.enabled and key in cache._entries:
        return cache.lookup(key, lambda: None)  # pure hit, no charging

    resolved = resolve_context(context)
    charge = resolved.charge if resolved is not None else None

    def build() -> dict[frozenset[int], TreeNode]:
        closure = closure_automaton(patterns, dtd, context)
        conformance = dtd_automaton(dtd, context)
        realized = reachable_states(
            ProductAutomaton([conformance, closure]),
            conformance=conformance,
            charge=charge,
        )
        sets: dict[frozenset[int], TreeNode] = {}
        for state in realized:
            if conformance.is_accepting(state[0]):
                triggered = closure.trigger_set(state[1])
                if triggered not in sets:
                    sets[triggered] = realized[state]
        return sets

    return cache.lookup(key, build)


def trigger_tables(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> tuple[dict[frozenset[int], TreeNode], dict[frozenset[int], TreeNode]]:
    """The :func:`achievable_sets` tables of *mapping*'s source and target
    sides: the one table per side that CONS (Theorem 5.2), ABSCONS°
    (Proposition 6.1) and their ``certify()`` re-runs all read."""
    stds = mapping.stds
    return (
        achievable_sets(mapping.source_dtd, [std.source for std in stds], context),
        achievable_sets(mapping.target_dtd, [std.target for std in stds], context),
    )
