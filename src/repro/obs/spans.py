"""Hierarchical trace spans: where a solve's time and budget actually went.

A *span* is one named, timed region of work — a solve, a compilation, a
certify pass, a worker chunk.  Spans nest: whatever is opened while a
span is live becomes its child, so one solve produces a tree like::

    solve(problem=ConsistencyProblem, algorithm=cons-automata)
      compile(kind=bitset-closure)
      compile(kind=bitset-dtd-automaton)
      compile(kind=achievable)

Each span records monotonic wall-clock timing (``time.perf_counter``),
the budget charges (:attr:`Span.expansions`) and the compilation-cache
hit/miss deltas accrued while it was open, read from the ambient
:class:`~repro.engine.budget.ExecutionContext` when one is active.

Tracing is **opt-in and cheap when off**: :func:`trace` is a no-op
(returning the shared :data:`NOOP_SPAN`) unless a collector is installed
with :func:`collecting`.  The collector stack is thread-local, so
concurrent threads trace independently.

Spans serialize to plain dicts (:meth:`Span.to_dict`) that pickle across
process boundaries — :func:`repro.engine.parallel.solve_many` workers
ship their span trees back with each result and the driver stitches them
into one cross-process trace.  :func:`jsonl_lines` flattens a span tree
into one JSON object per span (``id`` / ``parent`` links) for the CLI's
``--trace`` output.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: Cache-stat keys whose per-span deltas are worth recording.
_CACHE_KEYS = ("hits", "misses", "evictions", "disk_hits", "disk_stores")


def _ambient_context():
    """The active solver context, or None (lazy import: obs must not
    depend on the engine at module level — the engine imports obs)."""
    from repro.engine.budget import current_context

    return current_context()


class Span:
    """One timed region; mutable while open, plain data once closed."""

    __slots__ = (
        "name",
        "attrs",
        "start",
        "wall",
        "duration",
        "expansions",
        "cache",
        "children",
        "truncated",
        "_expansions_before",
        "_cache_before",
    )

    is_noop = False

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        tags = _STATE.tags
        if tags:
            self.attrs = dict(tags)
            if attrs:
                self.attrs.update(attrs)
        else:
            self.attrs = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.wall = time.time()
        self.duration = 0.0
        self.expansions = 0
        self.cache: dict[str, int] = {}
        self.children: list = []  # Span objects or adopted plain dicts
        self.truncated = False
        context = _ambient_context()
        if context is not None:
            self._expansions_before = context.expansions
            self._cache_before = context.cache.stats()
        else:
            self._expansions_before = None
            self._cache_before = None

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered after the span opened (e.g. the
        routing decision made mid-solve)."""
        self.attrs.update(attrs)

    def adopt(self, child: dict) -> None:
        """Attach an already-serialized span tree (a worker's) as a child."""
        self.children.append(child)

    def close(self) -> None:
        self.duration = time.perf_counter() - self.start
        context = _ambient_context()
        if context is not None and self._expansions_before is not None:
            self.expansions = context.expansions - self._expansions_before
            after = context.cache.stats()
            before = self._cache_before
            self.cache = {
                key: after.get(key, 0) - before.get(key, 0)
                for key in _CACHE_KEYS
                if after.get(key, 0) != before.get(key, 0)
            }

    def to_dict(self) -> dict:
        """A plain, picklable, JSON-able rendering of the span tree."""
        record = {
            "name": self.name,
            "attrs": self.attrs,
            "wall": self.wall,
            "duration": self.duration,
            "expansions": self.expansions,
            "cache": self.cache,
            "children": [
                child.to_dict() if isinstance(child, Span) else child
                for child in self.children
            ],
        }
        if self.truncated:
            record["truncated"] = True
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()
    is_noop = True
    name = ""
    duration = 0.0
    truncated = False

    def annotate(self, **attrs) -> None:
        pass

    def adopt(self, child: dict) -> None:
        pass

    def to_dict(self) -> dict | None:  # pragma: no cover - never persisted
        return None


NOOP_SPAN = _NoopSpan()


class TraceTree:
    """The root of one collected trace, with traversal helpers.

    :meth:`on_close` registers completion hooks — callables fired with
    the tree once the root span has closed (timings final).  This is how
    the flight recorder sees every request trace without the service
    layer threading callbacks through handler signatures.  A hook that
    raises is swallowed: observability must never fail the request it
    observes.
    """

    def __init__(self, root: Span):
        self.root = root
        self._close_hooks: list = []

    def on_close(self, hook) -> None:
        """Call ``hook(tree)`` after the root span closes."""
        self._close_hooks.append(hook)

    def spans(self) -> Iterator[Span]:
        """Preorder traversal of the *live* (non-adopted) spans."""
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(
                child for child in reversed(span.children)
                if isinstance(child, Span)
            )

    def total_seconds(self) -> float:
        return self.root.duration

    def to_dict(self) -> dict:
        return self.root.to_dict()

    def jsonl(self) -> str:
        return jsonl(self.to_dict())


class _CollectorState(threading.local):
    def __init__(self):
        self.stack: list[Span] = []
        self.tags: dict = {}


_STATE = _CollectorState()


def tracing_active() -> bool:
    """Is a collector installed on this thread?"""
    return bool(_STATE.stack)


def current_tags() -> dict:
    """The ambient span tags bound on this thread (empty outside any
    :func:`bind_tags` block)."""
    return dict(_STATE.tags)


def ambient_tag(name: str, default=None):
    """One ambient tag without copying the tag dict (hot-path friendly:
    this is how ``engine.solve`` reads the trace ID for its latency
    exemplar on every solve)."""
    return _STATE.tags.get(name, default)


@contextmanager
def bind_tags(**tags) -> Iterator[None]:
    """Stamp *tags* onto every span opened on this thread while active.

    This is how a request ID travels end-to-end: the service layer binds
    ``request=<id>`` around a handler, and every span the handler opens —
    solves, compiles, certify passes — carries the tag without any
    signature widening.  ``solve_many`` re-binds the driver's tags inside
    its worker processes, so cross-process chunk and solve spans carry
    them too.  Bindings nest; inner bindings win on key collisions and
    are restored on exit.
    """
    previous = _STATE.tags
    merged = dict(previous)
    merged.update(tags)
    _STATE.tags = merged
    try:
        yield
    finally:
        _STATE.tags = previous


@contextmanager
def collecting(name: str, **attrs) -> Iterator[TraceTree]:
    """Install a trace collector; yields the :class:`TraceTree` being built.

    The tree's root span covers the whole ``with`` block; every
    :func:`trace` opened inside (on this thread) nests under it.  The
    root's timing is final only after the block exits.

    Collectors nest: inside an active collector, the new root also
    becomes a child span of the enclosing one, so an outer ``--trace``
    sees the whole request subtree while the inner collector (the
    always-on flight recorder's) still gets its own tree.  Spans are
    shared, not copied — each is recorded once.
    """
    root = Span(name, attrs)
    tree = TraceTree(root)
    stack = _STATE.stack
    if stack:
        stack[-1].children.append(root)
    _STATE.stack.append(root)
    try:
        yield tree
    finally:
        _STATE.stack.pop()
        root.close()
        for hook in tree._close_hooks:
            try:
                hook(tree)
            except Exception:  # a broken observer must not fail the work
                pass


@contextmanager
def trace(name: str, **attrs) -> Iterator[Span]:
    """Record one span under the current collector (no-op when none)."""
    stack = _STATE.stack
    if not stack:
        yield NOOP_SPAN
        return
    span = Span(name, attrs)
    parent = stack[-1]
    parent.children.append(span)
    stack.append(span)
    try:
        yield span
    finally:
        stack.pop()
        span.close()


def current_span() -> Span | _NoopSpan:
    """The innermost open span, or the no-op span outside any collector."""
    return _STATE.stack[-1] if _STATE.stack else NOOP_SPAN


# ---------------------------------------------------------------------------
# serialized-tree helpers (work on to_dict() output, incl. adopted children)
# ---------------------------------------------------------------------------


def walk(tree: dict) -> Iterator[dict]:
    """Preorder traversal of a serialized span tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.get("children", ())))


def span_breakdown(tree: dict) -> dict[str, float]:
    """Total seconds per span name over a serialized tree.

    Durations are inclusive of children, so the breakdown answers "how
    much wall-clock had a span of this name open", not a partition.
    """
    totals: dict[str, float] = {}
    for node in walk(tree):
        name = node.get("name", "?")
        totals[name] = totals.get(name, 0.0) + float(node.get("duration", 0.0))
    return totals


def jsonl(tree: dict) -> str:
    """Flatten a serialized span tree to JSONL: one span per line.

    Lines carry ``id`` (preorder) and ``parent`` (-1 for the root) so the
    hierarchy survives the flattening; ``children`` is dropped.
    """
    lines: list[str] = []
    stack: list[tuple[dict, int]] = [(tree, -1)]
    next_id = 0
    while stack:
        node, parent = stack.pop()
        node_id = next_id
        next_id += 1
        record = {key: value for key, value in node.items() if key != "children"}
        record["id"] = node_id
        record["parent"] = parent
        lines.append(json.dumps(record, sort_keys=True, default=repr))
        for child in reversed(node.get("children", ())):
            stack.append((child, node_id))
    return "\n".join(lines) + "\n"


def truncated_span(name: str, duration: float = 0.0, **attrs) -> dict:
    """A serialized placeholder span for work whose real trace was lost
    (a crashed or hung worker) — observability must not drop silently."""
    return {
        "name": name,
        "attrs": attrs,
        "wall": time.time(),
        "duration": duration,
        "expansions": 0,
        "cache": {},
        "children": [],
        "truncated": True,
    }
