"""Resource budgets and execution contexts for the solver engine.

Every decision procedure in the library runs under an
:class:`ExecutionContext`: a :class:`Budget` (tree-size bounds, a
node-expansion limit, a wall-clock deadline) plus the shared
:class:`~repro.engine.cache.CompilationCache` and the expansion counters
the :class:`~repro.engine.report.SolveReport` reads off afterwards.

The budget replaces the ad-hoc ``max_source_size`` / ``max_target_size`` /
``limit`` parameters the solver modules used to grow independently; the
single source of default bounds is :meth:`Budget.default`.

Exhaustion is signalled internally by :class:`BudgetExceeded` (a
:class:`~repro.errors.BoundExceededError`, so legacy ``except`` clauses
still apply); :func:`repro.engine.core.solve` catches it and returns an
``Unknown`` verdict — bound exhaustion never escapes as an exception from
the engine's public surface.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterator

from repro.errors import BoundExceededError

if TYPE_CHECKING:
    from repro.engine.cache import CompilationCache


class BudgetExceeded(BoundExceededError):
    """Internal control flow: a budget limit was hit mid-search.

    Derives from :class:`BoundExceededError` so code written against the
    old bounded procedures keeps catching it; the engine converts it into
    an ``Unknown`` verdict before returning.
    """


@dataclass(frozen=True)
class Budget:
    """Resource limits for one solver invocation.

    ``max_source_size`` / ``max_target_size`` bound enumerated source and
    target trees, ``max_mid_size`` bounds composition intermediates
    (``None`` = the per-instance heuristic), ``max_chain_size`` bounds the
    trees of a bounded composition-consistency chain, ``expansion_limit``
    guards pattern-expansion blowup, ``max_expansions`` caps charged
    search steps (enumerated candidate trees + realized automaton states)
    and ``deadline_seconds`` is a wall-clock limit for the whole solve.
    """

    max_source_size: int = 6
    max_target_size: int = 6
    max_mid_size: int | None = None
    max_chain_size: int = 5
    expansion_limit: int = 10_000
    max_expansions: int | None = None
    deadline_seconds: float | None = None

    @classmethod
    def default(cls) -> "Budget":
        """The library-wide default bounds (one place, not five modules)."""
        return _DEFAULT_BUDGET

    def with_(self, **overrides: int) -> "Budget":
        """A copy with some limits replaced."""
        return replace(self, **overrides)

    def __hash__(self) -> int:
        # hashed once: a budget is part of every result-memo key, and a
        # tuple key re-hashes its elements on each lookup
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple(self.__dict__[f.name] for f in fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        """Pickle the limits only: the cached hash is per-process."""
        return {f.name: self.__dict__[f.name] for f in fields(self)}


_DEFAULT_BUDGET = Budget()


class ExecutionContext:
    """A budget plus the mutable accounting of one solver run.

    Passed explicitly through the solver layers (every public procedure
    takes ``context=None``); :meth:`activate` additionally installs the
    context ambiently so deep helpers (tree enumeration loops, automaton
    reachability) can charge it without widening every signature.
    """

    def __init__(self, budget: Budget | None = None,
                 cache: "CompilationCache | None" = None,
                 memo: object | None = None):
        from repro.engine.cache import DEFAULT_CACHE

        self.budget = budget if budget is not None else Budget.default()
        self.cache = cache if cache is not None else DEFAULT_CACHE
        #: Optional result memo (:class:`repro.incremental.ResultMemo`):
        #: when set, ``engine.solve`` and ``lint_mapping`` return stored
        #: results for content-identical inputs instead of recomputing.
        self.memo = memo
        self.expansions = 0
        #: How many times :meth:`charge` raised.  A computation during which
        #: this count stays put ran to its end, so its result is the one an
        #: unbounded run computes: memos store only such results.
        self.limits_fired = 0
        self._deadline_at: float | None = None
        self.start_clock()

    def start_clock(self) -> None:
        """(Re)arm the wall-clock deadline from now."""
        if self.budget.deadline_seconds is not None:
            self._deadline_at = time.monotonic() + self.budget.deadline_seconds
        else:
            self._deadline_at = None

    def charge(self, steps: int = 1) -> None:
        """Account *steps* search expansions; raise when the budget is out."""
        self.expansions += steps
        limit = self.budget.max_expansions
        if limit is not None and self.expansions > limit:
            self.limits_fired += 1
            raise BudgetExceeded(
                f"expansion budget of {limit} exhausted", bound=limit
            )
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            self.limits_fired += 1
            raise BudgetExceeded(
                f"deadline of {self.budget.deadline_seconds}s exhausted"
            )

    @contextmanager
    def activate(self) -> Iterator["ExecutionContext"]:
        """Install this context ambiently for the duration of a solve."""
        _ACTIVE.append(self)
        try:
            yield self
        finally:
            _ACTIVE.pop()


_ACTIVE: list[ExecutionContext] = []


def current_context() -> ExecutionContext | None:
    """The innermost ambient context, or None outside any solve."""
    return _ACTIVE[-1] if _ACTIVE else None


def resolve_context(context: ExecutionContext | None) -> ExecutionContext | None:
    """An explicit context wins; otherwise fall back to the ambient one."""
    return context if context is not None else current_context()


def resolve_budget(context: ExecutionContext | None) -> Budget:
    resolved = resolve_context(context)
    return resolved.budget if resolved is not None else Budget.default()
