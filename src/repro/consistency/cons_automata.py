"""The EXPTIME consistency algorithm for ``SM(⇓, ⇒)`` (Theorem 5.2).

Applicable to mappings **without data comparisons** (no ``alpha`` formulae,
no repeated source variables, no constants).  The paper's key observation:
for such mappings, ``CONS`` is no harder than ``CONS°`` — data values do
not matter, because

* source patterns bind each variable once and test nothing, so the set of
  stds *triggered* by a tree is purely structural, and
* choosing **all data values equal** (in both trees) makes every exported
  tuple constant, so target-side variable reuse is satisfied for free.

Consistency thus becomes an automata question.  Let ``trig(T)`` be the set
of stds whose source pattern matches ``T`` and ``sat(T')`` the set whose
target pattern matches ``T'``.  Then ``M`` is consistent iff

    ∃ T |= D_s, ∃ T' |= D_t :  trig(T) ⊆ sat(T')

and both ``trig`` and ``sat`` are computed by the pattern *closure
automaton* (one deterministic automaton per side — no 2^|Sigma| subset
enumeration, negative information is free because the automaton is
deterministic).  The exponential cost lives in the automaton state spaces,
matching the EXPTIME-completeness of the problem.
"""

from __future__ import annotations

from repro.engine.budget import ExecutionContext
from repro.automata.dtd_automaton import decorate
from repro.engine.cache import achievable_sets
from repro.engine.verdicts import (
    AnalysisCertificate,
    Proved,
    Refuted,
    TriggerRefutation,
    Verdict,
    WitnessPair,
)
from repro.errors import SignatureError, XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import is_solution
from repro.patterns.ast import Pattern
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode
from repro.values import Const


def _check_applicable(mapping: SchemaMapping) -> None:
    if mapping.uses_data_comparisons():
        raise SignatureError(
            "the automata algorithm decides CONS only for mappings without "
            "data comparisons (SM(⇓,⇒)); use the bounded procedures for SM(..,∼)"
        )
    for std in mapping.stds:
        for pattern in (std.source, std.target):
            if any(isinstance(t, Const) for t in pattern.terms()):
                raise SignatureError(
                    "constants in patterns are outside SM(⇓,⇒); "
                    "use the bounded procedures"
                )


def _pattern_labels(mapping: SchemaMapping) -> frozenset[str]:
    return frozenset(
        label
        for std in mapping.stds
        for pattern in (std.source, std.target)
        for label in pattern.labels_used()
    )


def _achievable_sets(
    dtd: DTD,
    patterns: list[Pattern],
    extra_labels: frozenset[str],
    context: ExecutionContext | None = None,
) -> list[tuple[frozenset[int], TreeNode]]:
    """All achievable (pattern satisfaction set, witness tree) pairs.

    One reachability pass over the product of the DTD automaton and the
    closure automaton of *patterns* — compiled and memoized through the
    engine's :class:`~repro.engine.cache.CompilationCache`.
    """
    return list(achievable_sets(dtd, patterns, extra_labels, True, context).items())


def consistency_witness_automata(
    mapping: SchemaMapping,
    verify: bool = False,
    context: ExecutionContext | None = None,
) -> tuple[TreeNode, TreeNode] | None:
    """A pair ``(T, T') ∈ [[M]]`` (all values 0), or None if inconsistent.

    With ``verify=True`` the returned pair is re-checked against the
    mapping semantics through the pattern engine's semi-join mode — an
    independent (and cheap, Boolean-only) cross-check of the automata
    construction, used by the tests.
    """
    verdict = decide_consistency_automata(mapping, context)
    if not verdict.is_proved:
        return None
    pair = (verdict.certificate.source, verdict.certificate.target)
    if verify and not is_solution(mapping, *pair):
        raise XsmError(
            "internal error: automata witness failed the "
            "pattern-engine membership check"
        )
    return pair


def decide_consistency_automata(
    mapping: SchemaMapping, context: ExecutionContext | None = None
) -> Verdict:
    """The verdict-level automata decision: witness pair or refutation."""
    _check_applicable(mapping)
    pattern_labels = _pattern_labels(mapping)
    source_sets = _achievable_sets(
        mapping.source_dtd,
        [std.source for std in mapping.stds],
        pattern_labels,
        context,
    )
    target_sets = _achievable_sets(
        mapping.target_dtd,
        [std.target for std in mapping.stds],
        pattern_labels,
        context,
    )
    # prune: only minimal trigger sets / maximal satisfaction sets matter
    source_sets = sorted(source_sets, key=lambda pair: len(pair[0]))
    target_sets = sorted(target_sets, key=lambda pair: -len(pair[0]))
    for triggered, source_witness in source_sets:
        for satisfied, target_witness in target_sets:
            if triggered <= satisfied:
                pair = WitnessPair(
                    decorate(mapping.source_dtd, source_witness),
                    decorate(mapping.target_dtd, target_witness),
                )
                return Proved(pair)
    if not source_sets:
        # no conforming source tree exists at all, hence no pair
        return Refuted(
            AnalysisCertificate("cons-automata", "source DTD is unsatisfiable")
        )
    triggered, source_witness = source_sets[0]
    source = decorate(mapping.source_dtd, source_witness)
    return Refuted(TriggerRefutation(source, tuple(sorted(triggered))))


def is_consistent_automata(
    mapping: SchemaMapping, context: ExecutionContext | None = None
) -> Verdict:
    """Decide ``CONS`` for mappings without data comparisons (exact)."""
    return decide_consistency_automata(mapping, context)
