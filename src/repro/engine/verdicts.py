"""The verdict algebra: ``Proved`` / ``Refuted`` / ``Unknown``.

Every decision procedure in the library answers with a :class:`Verdict`
instead of the old mix of bools, witness-or-``None`` tuples and
:class:`~repro.errors.BoundExceededError` control flow:

* ``Proved(certificate)`` — the property holds, and the certificate is
  evidence an independent checker can re-validate;
* ``Refuted(certificate)`` — the property fails, with evidence;
* ``Unknown(reason, bound_exhausted=...)`` — the applicable procedure is
  incomplete (bounded search, undecidable class) and its budget ran out.

Verdicts are drop-in truthy: ``bool(Proved(...))`` is True,
``bool(Refuted(...))`` is False, and ``bool(Unknown(...))`` raises
:class:`~repro.errors.UnknownVerdictError` — forcing callers that treat a
tri-state as a bool to confront the third value.  ``==`` compares the
decision against another verdict or a plain bool (``Unknown`` equals
neither True nor False).

Certificate types are per-problem frozen dataclasses; the independent
re-checker lives in :mod:`repro.engine.certify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import UnknownVerdictError

if TYPE_CHECKING:
    from repro.engine.report import SolveReport
    from repro.xmlmodel.tree import TreeNode


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    """``(T, T') ∈ [[M]]`` — proves consistency (re-check: membership)."""

    source: "TreeNode"
    target: "TreeNode"


@dataclass(frozen=True)
class WitnessChain:
    """``T_1, ..., T_n`` with each consecutive pair a solution — proves
    consistency of a composition chain."""

    trees: tuple["TreeNode", ...]


@dataclass(frozen=True)
class MiddleTree:
    """``T_2`` with ``(T_1,T_2) ∈ [[M12]]`` and ``(T_2,T_3) ∈ [[M23]]`` —
    proves composition membership."""

    middle: "TreeNode"


@dataclass(frozen=True)
class SatisfyingTree:
    """A conforming tree matching the pattern — proves satisfiability."""

    tree: "TreeNode"


@dataclass(frozen=True)
class SeparatingTree:
    """A conforming tree matching all positives and no negatives —
    proves separability (refutes containment)."""

    tree: "TreeNode"


@dataclass(frozen=True)
class Counterexample:
    """A conforming source tree with no solution — refutes ABSCONS."""

    source: "TreeNode"


@dataclass(frozen=True)
class RigidityExplanation:
    """The Theorem-6.3 rigidity problems — refutes ABSCONS in PTIME."""

    problems: tuple[str, ...]


@dataclass(frozen=True)
class TriggerRefutation:
    """A source tree whose triggered stds no conforming target covers —
    refutes consistency.  ``std_indices`` are the triggered stds."""

    source: "TreeNode"
    std_indices: tuple[int, ...]


@dataclass(frozen=True)
class ObligationsMet:
    """All source-side obligations found a target match — proves membership."""

    obligations: int


@dataclass(frozen=True)
class ViolationWitness:
    """An exported source valuation with no target extension — refutes
    membership.  ``valuation`` is a sorted tuple of (variable name, value)."""

    std_index: int
    valuation: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class ConformanceFailure:
    """A tree fails DTD conformance — refutes membership/composition."""

    side: str  # "source" | "target" | "middle" | "final"
    detail: str = ""


@dataclass(frozen=True)
class AnalysisCertificate:
    """An exact algorithm's claim with no small witness object.

    ``certify()`` validates these by an independent deterministic second
    run of the named analysis; *detail* records what the run must find.
    """

    algorithm: str
    detail: str = ""


Certificate = object


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Verdict:
    """Base class; use :class:`Proved`, :class:`Refuted` or :class:`Unknown`."""

    #: attached by ``engine.solve``: how the verdict was produced.
    report: Optional["SolveReport"] = field(default=None, init=False, repr=False)
    #: attached by ``engine.solve``: the problem instance, for ``certify()``.
    problem: object = field(default=None, init=False, repr=False)

    @property
    def is_proved(self) -> bool:
        return isinstance(self, Proved)

    @property
    def is_refuted(self) -> bool:
        return isinstance(self, Refuted)

    @property
    def is_unknown(self) -> bool:
        return isinstance(self, Unknown)

    def decision(self) -> bool | None:
        """True / False / None for proved / refuted / unknown."""
        if isinstance(self, Proved):
            return True
        if isinstance(self, Refuted):
            return False
        return None

    def __bool__(self) -> bool:
        decision = self.decision()
        if decision is None:
            reason = getattr(self, "reason", "")
            raise UnknownVerdictError(
                f"verdict is Unknown ({reason}); test .is_unknown / .decision() "
                "instead of treating it as a bool"
            )
        return decision

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Verdict):
            return self.decision() == other.decision()
        if isinstance(other, bool):
            return self.decision() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.decision())


@dataclass(eq=False, repr=False)
class Proved(Verdict):
    certificate: Certificate = None

    def __repr__(self) -> str:
        return f"Proved({type(self.certificate).__name__})"


@dataclass(eq=False, repr=False)
class Refuted(Verdict):
    certificate: Certificate = None

    def __repr__(self) -> str:
        return f"Refuted({type(self.certificate).__name__})"


@dataclass(eq=False, repr=False)
class Unknown(Verdict):
    reason: str = ""
    bound_exhausted: bool = False

    def __repr__(self) -> str:
        flag = ", bound_exhausted" if self.bound_exhausted else ""
        return f"Unknown({self.reason!r}{flag})"
