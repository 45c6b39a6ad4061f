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
  :class:`~repro.engine.report.SolveReport`, and :func:`solve_many`, its
  batch form;
* :mod:`repro.engine.diskcache` — the opt-in, content-keyed on-disk tier
  under the compilation cache (atomic writes, version-stamped keys,
  corruption-tolerant reads);
* :mod:`repro.engine.parallel` — the process pool behind
  :func:`solve_many` with workers: per-task timeout/crash containment
  and aggregated statistics;
* :mod:`repro.engine.certify` — independent re-validation of
  certificates.

Names re-export lazily (:func:`repro._lazy_exports`): importing this package
loads only :mod:`~repro.engine.certify`, whose function shadows the
submodule's name; every other name loads its module on first use.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".budget": ("Budget", "BudgetExceeded", "ExecutionContext", "current_context"),
    ".cache": (
        "DEFAULT_CACHE", "CompilationCache", "DTDClassification",
        "achievable_sets", "cache_from_env", "closure_automaton",
        "dtd_automaton", "dtd_classification", "mapping_digest",
        "pattern_digest", "std_digest",
    ),
    ".certify": ("CertificationError", "certify"),
    ".core": (
        "register_route", "solve",
        "WORKER_CRASH", "WORKER_TIMEOUT", "BatchResult", "solve_many",
    ),
    ".diskcache": ("CACHE_FORMAT_VERSION", "DiskCacheTier"),
    ".problems": (
        "AbsoluteConsistencyProblem", "CompositionConsistencyProblem",
        "CompositionMembershipProblem", "ConsistencyProblem",
        "MembershipProblem", "Problem", "SatisfiabilityProblem",
        "SeparationProblem",
    ),
    ".report": ("BatchReport", "SolveReport"),
    ".verdicts": (
        "AnalysisCertificate", "ConformanceFailure",
        "Counterexample", "MiddleTree", "ObligationsMet", "Proved", "Refuted",
        "RigidityExplanation", "SatisfyingTree", "SeparatingTree",
        "TriggerRefutation", "Unknown", "Verdict", "ViolationWitness",
        "WitnessChain", "WitnessPair",
    ),
})
