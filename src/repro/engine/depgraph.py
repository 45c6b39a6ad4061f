"""The artifact dependency graph behind incremental re-solving.

The :class:`~repro.engine.cache.CompilationCache` is content-keyed, so a
*changed* input never produces a wrong artifact — but until this module
the engine had no idea which artifacts an edit made *stale*.  Every
``lookup`` that builds (or disk-loads) an artifact now registers the
**input digests** the artifact was compiled from — one digest per DTD
production, one per pattern, one for the label/arity alphabet — in a
:class:`DependencyGraph`.  A mapping edit is then diffed down to a set
of dirty input digests, and invalidation walks only the downstream cone
of those digests: the artifacts (and memoized verdicts / lint reports)
compiled from a changed production or pattern are evicted from both
cache tiers, while every sibling artifact stays warm.

The graph is bipartite (input digest → artifact key) and flat: composite
artifacts such as the achievable trigger-set tables register the *union*
of their inputs' digests, so one hop covers the whole cone.  Digests are
prefixed by their input family (``prod:`` / ``alpha:`` / ``root:`` /
``pat:`` / ``std:`` / ``map:``), purely for debuggability — equality is
all the invalidator needs.

Everything here is stdlib, thread-safe, and picklable (the graph rides
inside the compilation cache, which ships to ``solve_many`` workers).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from hashlib import sha256
from typing import TYPE_CHECKING, Hashable, Iterable

if TYPE_CHECKING:
    from repro.mappings.mapping import SchemaMapping
    from repro.mappings.std import STD
    from repro.patterns.ast import Pattern
    from repro.xmlmodel.dtd import DTD


# ---------------------------------------------------------------------------
# input digests
# ---------------------------------------------------------------------------


def _sha(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


def production_digest(dtd: "DTD", label: str) -> str:
    """The content digest of one DTD production row (regex + attributes).

    Two DTDs declaring the same production for *label* share the digest,
    exactly as they share the compiled production DFA.
    """
    attrs = ",".join(dtd.attributes.get(label, ()))
    return f"prod:{_sha(f'{label}({attrs}) -> {dtd.productions[label]}')}"


def alphabet_digest(dtd: "DTD") -> str:
    """The digest of the DTD's label/arity alphabet (plus its root).

    This is what pattern closure automata and production DFAs read off a
    DTD besides individual productions: the set of labels, their
    attribute arities and the distinguished root.  Editing one
    production's *regex* leaves it unchanged, so closure automata stay
    warm across pure content-model edits.
    """
    rows = sorted((label, dtd.arity(label)) for label in dtd.labels)
    return f"alpha:{_sha(f'{dtd.root}|{rows}')}"


def dtd_digests(dtd: "DTD") -> frozenset[str]:
    """Every input digest of *dtd*: per-production rows plus the alphabet.

    Memoized on the instance (and shed on pickling, like the content
    key) — fingerprinting is on the per-edit hot path.
    """
    cached = getattr(dtd, "_input_digests", None)
    if cached is None:
        cached = frozenset(
            {alphabet_digest(dtd)}
            | {production_digest(dtd, label) for label in dtd.productions}
        )
        dtd._input_digests = cached
    return cached


def dtd_digest(dtd: "DTD") -> str:
    """One digest summarizing a whole DTD (used in memo keys).

    Hashes the DTD's content key once and memoizes the digest on the
    instance (shed on pickling, like the content key).
    """
    cached = getattr(dtd, "_digest", None)
    if cached is None:
        # imported here: repro.engine.cache imports this module
        from repro.engine.cache import dtd_key

        cached = f"dtd:{_sha(dtd_key(dtd))}"
        dtd._digest = cached
    return cached


@lru_cache(maxsize=4096)
def pattern_digest(pattern: "Pattern") -> str:
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
    """One digest summarizing a whole mapping (DTDs + the std list).

    Whole-mapping artifacts (consistency verdicts, lint reports) depend
    on this plus every constituent digest; the summary keys them.
    Memoized on the mapping (shed on pickling), like the DTD digests.
    """
    return mapping._memo("_digest", lambda: "map:" + _sha("||".join((
        dtd_digest(mapping.source_dtd),
        dtd_digest(mapping.target_dtd),
        *std_digests(mapping),
    ))))


def mapping_digests(mapping: "SchemaMapping") -> frozenset[str]:
    """Every input digest a whole-mapping artifact depends on (memoized)."""
    return mapping._memo("_input_digests", lambda: frozenset(
        dtd_digests(mapping.source_dtd)
        | dtd_digests(mapping.target_dtd)
        | set(std_digests(mapping))
    ))


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------


class DependencyGraph:
    """A thread-safe bipartite map: input digest ⇄ dependent artifact keys.

    ``record`` is called on every artifact build (cheap: set inserts);
    ``cone`` answers the invalidator's only question — *which artifacts
    were compiled from any of these dirty inputs?* — in one hop, because
    composite artifacts register flattened input sets.  ``discard``
    keeps the graph in step with cache eviction so it cannot grow past
    the artifacts that actually exist.
    """

    def __init__(self) -> None:
        self._down: dict[str, set[Hashable]] = {}
        self._up: dict[Hashable, frozenset[str]] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record(self, key: Hashable, digests: Iterable[str]) -> None:
        """Register that artifact *key* was compiled from *digests*."""
        digests = frozenset(digests)
        if not digests:
            return
        with self._lock:
            previous = self._up.get(key)
            if previous == digests:
                return
            if previous:
                for digest in previous - digests:
                    self._drop_edge(digest, key)
            self._up[key] = digests
            for digest in digests:
                self._down.setdefault(digest, set()).add(key)

    def _drop_edge(self, digest: str, key: Hashable) -> None:
        dependents = self._down.get(digest)
        if dependents is not None:
            dependents.discard(key)
            if not dependents:
                del self._down[digest]

    def cone(self, dirty: Iterable[str]) -> set[Hashable]:
        """All recorded artifact keys depending on any dirty digest."""
        stale: set[Hashable] = set()
        with self._lock:
            for digest in dirty:
                stale.update(self._down.get(digest, ()))
        return stale

    def dependencies(self, key: Hashable) -> frozenset[str]:
        """The input digests recorded for *key* (empty if unknown)."""
        with self._lock:
            return self._up.get(key, frozenset())

    def discard(self, key: Hashable) -> None:
        """Forget *key* (evicted artifact) and its edges."""
        with self._lock:
            digests = self._up.pop(key, None)
            if digests:
                for digest in digests:
                    self._drop_edge(digest, key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._up)

    def clear(self) -> None:
        with self._lock:
            self._down.clear()
            self._up.clear()

    def stats(self) -> dict[str, int]:
        """Graph size for ``/stats``: inputs, artifacts and edge count."""
        with self._lock:
            return {
                "inputs": len(self._down),
                "artifacts": len(self._up),
                "edges": sum(len(d) for d in self._up.values()),
            }
