"""The paper's Section 9 "technical problem": pattern separation.

    Given a DTD ``D`` and two sets of patterns ``P+`` and ``P-``, can we
    find a tree ``T |= D`` that matches all the patterns in ``P+`` and
    none in ``P-``?

The paper notes this problem underlies most of its complexity gaps and
pins it between NP-hardness and EXPTIME.  For *structural* matching (data
values free — the regime of every comparison-free result) the closure
automaton answers it directly: one deterministic automaton tracks all
patterns of ``P+ ∪ P-`` at once, so the question is reachability of a
conforming root state whose satisfaction set contains ``P+`` and avoids
``P-`` — the EXPTIME upper bound, implemented.

Pattern containment over a DTD is the special case
``P+ = {p1}, P- = {p2}`` being unseparable.  The decision entry points
(:func:`pattern_contained`, :func:`patterns_equivalent`) return
:class:`~repro.engine.verdicts.Verdict`\\ s refuted by a separating tree;
:func:`find_separating_tree` is the raw witness extractor the certificate
re-checker uses.
"""

from __future__ import annotations

from typing import Iterable

from repro.patterns.ast import Pattern
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def find_separating_tree(
    dtd: DTD,
    positives: Iterable[Pattern],
    negatives: Iterable[Pattern],
    context=None,
) -> TreeNode | None:
    """A conforming tree matching all *positives* and no *negatives*, or None.

    Exact for structural satisfaction: patterns may carry variables (their
    arity constrains, their values do not — decorate the witness freely),
    but constants are not supported here.  The automata are compiled
    through the engine's compilation cache.
    """
    # imported here: repro.automata (which the engine cache compiles)
    # depends on repro.patterns.ast, so top-level imports would be circular
    from repro.automata.dtd_automaton import decorate
    from repro.automata.duta import ProductAutomaton, find_accepted
    from repro.engine.budget import resolve_context
    from repro.engine.cache import closure_automaton, dtd_automaton

    positives = list(positives)
    negatives = list(negatives)
    patterns = positives + negatives
    extra = frozenset(
        label for pattern in patterns for label in pattern.labels_used()
    )
    closure = closure_automaton(patterns, dtd, extra, context=context)
    conformance = dtd_automaton(dtd, extra, context=context)

    def separated(state) -> bool:
        if not conformance.is_accepting(state[0]):
            return False
        sat = state[1]
        return all(closure.satisfies(sat, p) for p in positives) and not any(
            closure.satisfies(sat, p) for p in negatives
        )

    product = ProductAutomaton([conformance, closure], predicate=separated)
    resolved = resolve_context(context)
    found = find_accepted(
        product,
        conformance=conformance,
        charge=resolved.charge if resolved is not None else None,
    )
    if found is None:
        return None
    return decorate(dtd, found[1])


def separation_verdict(
    dtd: DTD,
    positives: Iterable[Pattern],
    negatives: Iterable[Pattern],
    context=None,
):
    """Verdict view of separation: ``Proved`` carries the separating tree."""
    from repro.engine.verdicts import (
        AnalysisCertificate,
        Proved,
        Refuted,
        SeparatingTree,
    )

    witness = find_separating_tree(dtd, positives, negatives, context)
    if witness is not None:
        return Proved(SeparatingTree(witness))
    return Refuted(
        AnalysisCertificate(
            "separation",
            "no conforming tree matches every positive pattern while "
            "avoiding every negative one",
        )
    )


def pattern_contained(dtd: DTD, smaller: Pattern, larger: Pattern, context=None):
    """Structural containment over *dtd*: every conforming tree matching
    *smaller* also matches *larger*.

    ``Refuted`` carries a separating tree (matches *smaller*, not
    *larger*); the decision is exact.
    """
    from repro.engine.verdicts import AnalysisCertificate, Proved, Refuted, SeparatingTree

    witness = find_separating_tree(dtd, [smaller], [larger], context)
    if witness is not None:
        return Refuted(SeparatingTree(witness))
    return Proved(
        AnalysisCertificate(
            "separation",
            "no conforming tree matches the smaller pattern without the larger",
        )
    )


def patterns_equivalent(dtd: DTD, left: Pattern, right: Pattern, context=None):
    """Structural equivalence of two patterns over *dtd* (exact)."""
    forward = pattern_contained(dtd, left, right, context)
    if forward.is_refuted:
        return forward
    return pattern_contained(dtd, right, left, context)
