"""Independent re-validation of verdict certificates.

``certify(verdict, problem)`` re-checks the evidence attached to a
``Proved`` / ``Refuted`` verdict **without** trusting the solver that
produced it: witness trees are re-validated through DTD conformance and
the membership checkers (:class:`~repro.mappings.membership.SolutionChecker`
and its Skolem analogue) plus the pattern engine — machinery independent
of the automata constructions and rigidity analyses that emit the
verdicts.  A :class:`~repro.engine.verdicts.Counterexample` is confirmed
only by an exact solution-existence test
(:func:`~repro.consistency.bounded.decide_source`: the canonical
solution, or joint satisfiability of the source's obligations), never by
a bounded target search.  :class:`~repro.engine.verdicts.AnalysisCertificate`\\ s (exact
claims with no small witness object) are validated by a deterministic
second run of the named analysis.

Returns True when the certificate checks out; raises
:class:`CertificationError` otherwise (including for ``Unknown`` verdicts,
which carry nothing to certify, and for certificate/problem mismatches).
"""

from __future__ import annotations

from typing import Any

import time

from repro.engine.verdicts import (
    AnalysisCertificate,
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
    Verdict,
    ViolationWitness,
    WitnessChain,
    WitnessPair,
)
from repro.errors import XsmError
from repro.obs import REGISTRY, trace

#: Proof-checking cost, kept separable from search cost (its own span too).
_CERTIFY = REGISTRY.counter(
    "repro_certify_total",
    "Certificate re-validations by certificate type and outcome",
    ("certificate", "outcome"),
)
_CERTIFY_LATENCY = REGISTRY.histogram(
    "repro_certify_latency_seconds",
    "Wall-clock seconds per certificate re-validation",
)


class CertificationError(XsmError):
    """A certificate failed its independent re-check."""


def _fail(message: str) -> bool:
    raise CertificationError(message)


def _membership_holds(mapping: Any, source_tree: Any, target_tree: Any) -> bool:
    """Boolean membership through the checker layer (conformance included)."""
    from repro.mappings.skolem import solution_checker

    if not mapping.source_dtd.conforms(source_tree):
        return False
    return solution_checker(mapping, source_tree).is_solution_for(target_tree)


# ---------------------------------------------------------------------------
# per-certificate checks
# ---------------------------------------------------------------------------


def _certify_witness_pair(certificate: WitnessPair, problem: Any) -> bool:
    mapping = problem.mapping
    if not mapping.source_dtd.conforms(certificate.source):
        return _fail("witness source tree does not conform to the source DTD")
    if not mapping.target_dtd.conforms(certificate.target):
        return _fail("witness target tree does not conform to the target DTD")
    if not _membership_holds(mapping, certificate.source, certificate.target):
        return _fail("witness pair is not in [[M]]")
    return True


def _certify_witness_chain(certificate: WitnessChain, problem: Any) -> bool:
    mappings = list(problem.mappings)
    trees = certificate.trees
    if len(trees) != len(mappings) + 1:
        return _fail(
            f"witness chain has {len(trees)} trees for {len(mappings)} mappings"
        )
    if not mappings[0].source_dtd.conforms(trees[0]):
        return _fail("chain head does not conform to the first source DTD")
    for index, mapping in enumerate(mappings):
        if not mapping.target_dtd.conforms(trees[index + 1]):
            return _fail(f"chain tree {index + 1} fails target-DTD conformance")
        if not _membership_holds(mapping, trees[index], trees[index + 1]):
            return _fail(
                f"consecutive pair {index} is not a solution of mapping {index}"
            )
    return True


def _certify_middle_tree(certificate: MiddleTree, problem: Any) -> bool:
    middle = certificate.middle
    if not problem.m12.target_dtd.conforms(middle):
        return _fail("middle tree does not conform to the intermediate DTD")
    if not _membership_holds(problem.m12, problem.source_tree, middle):
        return _fail("(source, middle) is not in [[M12]]")
    if not _membership_holds(problem.m23, middle, problem.final_tree):
        return _fail("(middle, final) is not in [[M23]]")
    return True


def _certify_satisfying_tree(certificate: SatisfyingTree, problem: Any) -> bool:
    from repro.patterns.matching import matches_at_root

    if not problem.dtd.conforms(certificate.tree):
        return _fail("satisfying tree does not conform to the DTD")
    if not matches_at_root(problem.pattern, certificate.tree):
        return _fail("satisfying tree does not match the pattern")
    return True


def _certify_separating_tree(certificate: SeparatingTree, problem: Any) -> bool:
    from repro.patterns.matching import matches_at_root

    tree = certificate.tree
    if not problem.dtd.conforms(tree):
        return _fail("separating tree does not conform to the DTD")
    for pattern in problem.positives:
        if not matches_at_root(pattern, tree):
            return _fail("separating tree misses a positive pattern")
    for pattern in problem.negatives:
        if matches_at_root(pattern, tree):
            return _fail("separating tree matches a negative pattern")
    return True


def _certify_counterexample(certificate: Counterexample, problem: Any) -> bool:
    from repro.consistency.bounded import decide_source

    mapping = problem.mapping
    source = certificate.source
    if not mapping.source_dtd.conforms(source):
        return _fail("counterexample does not conform to the source DTD")
    decided, solution = decide_source(mapping, source)
    if not decided:
        return _fail("no exact solution-existence test confirms the counterexample")
    if solution is not None:
        return _fail("counterexample has a solution")
    return True


def _certify_trigger_refutation(certificate: TriggerRefutation, problem: Any) -> bool:
    from repro.patterns.matching import engine_for

    mapping = problem.mapping
    source = certificate.source
    if not mapping.source_dtd.conforms(source):
        return _fail("refutation source tree does not conform to the source DTD")
    engine = engine_for(source)
    for index in certificate.std_indices:
        if index < 0 or index >= len(mapping.stds):
            return _fail(f"refutation names std #{index}, which does not exist")
        if not engine.exists_at_root(mapping.stds[index].source):
            return _fail(
                f"refutation claims std #{index} is triggered, but its "
                "source pattern does not match the tree"
            )
    return True


def _certify_obligations_met(certificate: ObligationsMet, problem: Any) -> bool:
    from repro.engine.problems import MembershipProblem

    if isinstance(problem, MembershipProblem):
        if not _membership_holds(
            problem.mapping, problem.source_tree, problem.target_tree
        ):
            return _fail("membership re-check disagrees with Proved")
        return True
    # composition membership decided via the composed mapping (Theorem 8.2)
    from repro.composition.compose import compose_as_skolem

    composed = compose_as_skolem(problem.m12, problem.m23)
    if not _membership_holds(composed, problem.source_tree, problem.final_tree):
        return _fail("composed-mapping membership re-check disagrees with Proved")
    return True


def _certify_violation_witness(certificate: ViolationWitness, problem: Any) -> bool:
    from repro.mappings.membership import SolutionChecker, _unmet, witness_valuation

    if not 0 <= certificate.std_index < len(problem.mapping.stds):
        return _fail("violation names a non-existent std")
    try:
        checker = SolutionChecker(problem.mapping, problem.source_tree)
    except XsmError as error:
        return _fail(str(error))
    std, exports = checker.obligations[certificate.std_index]
    named = [e for e in exports if witness_valuation(e) == certificate.valuation]
    if not named:
        return _fail("the valuation is not an exported assignment of the named std")
    if not _unmet(std, named, problem.target_tree):
        return _fail("the named std's obligation under the valuation is met")
    return True


def _certify_conformance_failure(certificate: ConformanceFailure, problem: Any) -> bool:
    sides = _conformance_sides(problem)
    checker = sides.get(certificate.side)
    if checker is None:
        return _fail(f"no side named {certificate.side!r} on this problem")
    dtd, tree = checker
    if dtd.conforms(tree):
        return _fail(f"the {certificate.side} tree actually conforms")
    return True


def _conformance_sides(problem: Any) -> dict:
    from repro.engine.problems import (
        CompositionMembershipProblem,
        MembershipProblem,
    )

    if isinstance(problem, MembershipProblem):
        return {
            "source": (problem.mapping.source_dtd, problem.source_tree),
            "target": (problem.mapping.target_dtd, problem.target_tree),
        }
    if isinstance(problem, CompositionMembershipProblem):
        return {
            "source": (problem.m12.source_dtd, problem.source_tree),
            "target": (problem.m23.target_dtd, problem.final_tree),
        }
    return {}


def _certify_rigidity(certificate: RigidityExplanation, problem: Any) -> bool:
    from repro.analysis.fragment import in_abscons_ptime_class
    from repro.consistency.abscons import abscons_ptime_analysis

    if not certificate.problems:
        return _fail("rigidity refutation lists no problems")
    mapping = problem.mapping
    if not in_abscons_ptime_class(mapping):
        # the abscons-expansion route: re-analyse the expanded mapping
        from repro.consistency.expansion import expand_mapping_sources

        mapping = expand_mapping_sources(mapping)
    rerun = abscons_ptime_analysis(mapping)
    if not rerun:
        return _fail("rigidity re-analysis found no problems")
    return True


def _certify_analysis(
    certificate: AnalysisCertificate, verdict: Verdict, problem: Any
) -> bool:
    """Deterministic second run of the named analysis."""
    rerun = _ANALYSIS_RERUNS.get(certificate.algorithm)
    if rerun is None:
        return _fail(f"no re-check available for analysis {certificate.algorithm!r}")
    if not rerun(verdict, problem):
        return _fail(
            f"re-running {certificate.algorithm!r} disagrees with the verdict"
        )
    return True


def _rerun_cons_nested(verdict: Verdict, problem: Any) -> bool:
    # the Proved case: the PTIME analysis must produce a checkable witness
    from repro.consistency.cons_nested import nested_consistency_witness

    pair = nested_consistency_witness(problem.mapping)
    if pair is None:
        return False
    source, target = pair
    return (
        problem.mapping.source_dtd.conforms(source)
        and problem.mapping.target_dtd.conforms(target)
        and _membership_holds(problem.mapping, source, target)
    )


def _rerun_cons_automata(verdict: Verdict, problem: Any) -> bool:
    # the Refuted unsatisfiable-source-DTD case
    return not problem.mapping.source_dtd.is_satisfiable()


def _rerun_abscons_sm0(verdict: Verdict, problem: Any) -> bool:
    from repro.consistency.abscons import sm0_counterexample

    return (sm0_counterexample(problem.mapping) is None) == verdict.is_proved


def _rerun_abscons_ptime(verdict: Verdict, problem: Any) -> bool:
    from repro.consistency.abscons import abscons_ptime_analysis

    return (not abscons_ptime_analysis(problem.mapping)) == verdict.is_proved


def _rerun_abscons_expansion(verdict: Verdict, problem: Any) -> bool:
    from repro.consistency.abscons import abscons_ptime_analysis
    from repro.consistency.expansion import expand_mapping_sources

    expanded = expand_mapping_sources(problem.mapping)
    return (not abscons_ptime_analysis(expanded)) == verdict.is_proved


def _rerun_conscomp(verdict: Verdict, problem: Any) -> bool:
    from repro.composition.conscomp import is_composition_consistent

    return is_composition_consistent(list(problem.mappings)) == verdict


def _rerun_pattern_sat(verdict: Verdict, problem: Any) -> bool:
    from repro.patterns.satisfiability import satisfying_tree

    return (satisfying_tree(problem.dtd, problem.pattern) is not None) == (
        verdict.is_proved
    )


def _rerun_pattern_sat_nested(verdict: Verdict, problem: Any) -> bool:
    # re-decided by the automata search, independent of the embedding
    # pass: inside the class a structural witness decorated with one
    # value satisfies the pattern
    from repro.patterns.satisfiability import structural_witness

    return (structural_witness(problem.dtd, problem.pattern) is not None) == (
        verdict.is_proved
    )


def _rerun_separation(verdict: Verdict, problem: Any) -> bool:
    from repro.patterns.separation import find_separating_tree

    # an AnalysisCertificate for separation always asserts "no separator"
    return (
        find_separating_tree(problem.dtd, problem.positives, problem.negatives)
        is None
    )


def _rerun_skolem_membership(verdict: Verdict, problem: Any) -> bool:
    return (
        _membership_holds(problem.mapping, problem.source_tree, problem.target_tree)
        == verdict.is_proved
    )


_ANALYSIS_RERUNS = {
    "cons-nested": _rerun_cons_nested,
    "cons-automata": _rerun_cons_automata,
    "abscons-sm0": _rerun_abscons_sm0,
    "abscons-ptime": _rerun_abscons_ptime,
    "abscons-expansion": _rerun_abscons_expansion,
    "conscomp": _rerun_conscomp,
    "pattern-sat": _rerun_pattern_sat,
    "pattern-sat-nested": _rerun_pattern_sat_nested,
    "separation": _rerun_separation,
    "skolem-membership": _rerun_skolem_membership,
}


def certify(verdict: Verdict, problem: Any = None) -> bool:
    """Re-validate a verdict's certificate against independent checkers.

    *problem* defaults to the instance ``engine.solve`` attached; verdicts
    produced by calling a solver module directly need it passed
    explicitly.  Raises :class:`CertificationError` when the certificate
    does not hold (or the verdict is ``Unknown``/bare).

    Records its own ``certify`` span and ``repro_certify_*`` metrics so
    proof-checking cost stays separable from search cost.
    """
    certificate = getattr(verdict, "certificate", None)
    kind = type(certificate).__name__ if certificate is not None else "none"
    started = time.perf_counter()
    with trace("certify", certificate=kind) as span:
        try:
            ok = _certify_dispatch(verdict, problem)
        except CertificationError:
            span.annotate(outcome="failed")
            _CERTIFY.labels(certificate=kind, outcome="failed").inc()
            _CERTIFY_LATENCY.observe(time.perf_counter() - started)
            raise
        span.annotate(outcome="ok")
    _CERTIFY.labels(certificate=kind, outcome="ok").inc()
    _CERTIFY_LATENCY.observe(time.perf_counter() - started)
    return ok


def _certify_dispatch(verdict: Verdict, problem: Any) -> bool:
    if problem is None:
        problem = verdict.problem
    if problem is None:
        return _fail("no problem instance to certify against")
    if not isinstance(verdict, (Proved, Refuted)):
        return _fail("only Proved/Refuted verdicts carry certificates")
    certificate = verdict.certificate
    if certificate is None:
        return _fail("verdict carries no certificate")
    if isinstance(certificate, WitnessPair):
        return _certify_witness_pair(certificate, problem)
    if isinstance(certificate, WitnessChain):
        return _certify_witness_chain(certificate, problem)
    if isinstance(certificate, MiddleTree):
        return _certify_middle_tree(certificate, problem)
    if isinstance(certificate, SatisfyingTree):
        return _certify_satisfying_tree(certificate, problem)
    if isinstance(certificate, SeparatingTree):
        return _certify_separating_tree(certificate, problem)
    if isinstance(certificate, Counterexample):
        return _certify_counterexample(certificate, problem)
    if isinstance(certificate, TriggerRefutation):
        return _certify_trigger_refutation(certificate, problem)
    if isinstance(certificate, ObligationsMet):
        return _certify_obligations_met(certificate, problem)
    if isinstance(certificate, ViolationWitness):
        return _certify_violation_witness(certificate, problem)
    if isinstance(certificate, ConformanceFailure):
        return _certify_conformance_failure(certificate, problem)
    if isinstance(certificate, RigidityExplanation):
        return _certify_rigidity(certificate, problem)
    if isinstance(certificate, AnalysisCertificate):
        return _certify_analysis(certificate, verdict, problem)
    return _fail(f"unknown certificate type {type(certificate).__name__}")
