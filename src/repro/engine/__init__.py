"""The solver engine: budgets, compilation caching, certified verdicts.

Every decision procedure in the library routes through this layer:

* :mod:`repro.engine.verdicts` — the ``Proved`` / ``Refuted`` / ``Unknown``
  result algebra with per-problem certificates;
* :mod:`repro.engine.budget` — :class:`Budget` (the single home of the
  default bounds) and :class:`ExecutionContext` (budget + cache + cost
  accounting, threaded through every solver);
* :mod:`repro.engine.cache` — the content-hash-keyed
  :class:`CompilationCache` of DTD automata, closure automata,
  classifications and achievable trigger-set tables, its
  :class:`~repro.engine.cache.LRU` policy (which also bounds the
  warm engine's result memo) and the content digests keying it;
* :mod:`repro.engine.core` — :func:`solve`, the front door routing each
  :mod:`problem <repro.engine.problems>` to the strongest applicable
  algorithm per Figures 1–2 and attaching a
  :class:`~repro.engine.report.SolveReport`;
* :mod:`repro.engine.diskcache` — the opt-in, content-keyed on-disk tier
  under the compilation cache (atomic writes, version-stamped keys,
  corruption-tolerant reads);
* :mod:`repro.engine.parallel` — :func:`solve_many`, the batch front
  door fanning independent solves over a process pool with per-task
  timeout/crash containment and aggregated statistics;
* :mod:`repro.engine.certify` — independent re-validation of
  certificates.
"""

from repro.engine.budget import (
    Budget,
    BudgetExceeded,
    ExecutionContext,
    current_context,
)
from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    DTDClassification,
    achievable_sets,
    cache_from_env,
    closure_automaton,
    dtd_automaton,
    dtd_classification,
    mapping_digest,
    pattern_digest,
    std_digest,
)
from repro.engine.certify import CertificationError, certify
from repro.engine.core import (
    nested_ptime_applicable,
    register_route,
    solve,
    uses_constants,
)
from repro.engine.diskcache import CACHE_FORMAT_VERSION, DiskCacheTier
from repro.engine.parallel import (
    WORKER_CRASH,
    WORKER_TIMEOUT,
    BatchResult,
    solve_many,
)
from repro.engine.problems import (
    AbsoluteConsistencyProblem,
    CompositionConsistencyProblem,
    CompositionMembershipProblem,
    ConsistencyProblem,
    MembershipProblem,
    Problem,
    SatisfiabilityProblem,
    SeparationProblem,
)
from repro.engine.report import BatchReport, SolveReport
from repro.engine.verdicts import (
    AnalysisCertificate,
    ComposedMapping,
    ConformanceFailure,
    Counterexample,
    MiddleTree,
    ObligationsMet,
    Proved,
    Refuted,
    RigidityExplanation,
    SatisfyingTree,
    SeparatingTree,
    TriggerRefutation,
    Unknown,
    Verdict,
    ViolationWitness,
    WitnessChain,
    WitnessPair,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "ExecutionContext",
    "current_context",
    "CompilationCache",
    "DEFAULT_CACHE",
    "DTDClassification",
    "achievable_sets",
    "closure_automaton",
    "dtd_automaton",
    "dtd_classification",
    "CertificationError",
    "certify",
    "mapping_digest",
    "pattern_digest",
    "std_digest",
    "solve",
    "solve_many",
    "register_route",
    "uses_constants",
    "nested_ptime_applicable",
    "cache_from_env",
    "CACHE_FORMAT_VERSION",
    "DiskCacheTier",
    "BatchResult",
    "BatchReport",
    "WORKER_CRASH",
    "WORKER_TIMEOUT",
    "SolveReport",
    "Problem",
    "ConsistencyProblem",
    "AbsoluteConsistencyProblem",
    "MembershipProblem",
    "CompositionMembershipProblem",
    "CompositionConsistencyProblem",
    "SatisfiabilityProblem",
    "SeparationProblem",
    "Verdict",
    "Proved",
    "Refuted",
    "Unknown",
    "AnalysisCertificate",
    "ComposedMapping",
    "ConformanceFailure",
    "Counterexample",
    "MiddleTree",
    "ObligationsMet",
    "RigidityExplanation",
    "SatisfyingTree",
    "SeparatingTree",
    "TriggerRefutation",
    "ViolationWitness",
    "WitnessChain",
    "WitnessPair",
]
