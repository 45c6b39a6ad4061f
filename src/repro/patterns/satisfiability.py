"""Pattern satisfiability with respect to a DTD (Lemma 4.1).

The problem: given a DTD ``D`` and a pattern ``pi``, is there a tree
``T |= D`` with ``pi(T)`` non-empty?  It is NP-complete in general; this
module decides it *exactly*, in two layers.

1. **Structural layer.**  The product of the DTD automaton and the
   pattern's closure automaton has an accepting reachable state iff some
   conforming tree matches the pattern structurally (labels, arities,
   axes).  The product is searched as a *conforming* product
   (``reachable_states(conformance=)``): subtrees that break the DTD are
   never built, and a node is only given children its content model can
   read — schema-guided search, which keeps real DTDs tractable.  If the
   pattern mentions no constants this settles the question: decorating
   the structural witness with one single data value satisfies every
   (repeated-variable) equality constraint.

2. **Value layer** (*tag lifting*).  With constants, values can genuinely
   conflict (``r[a(3), a(5)]`` against ``r -> a`` is unsatisfiable because
   the single ``a`` child would need two values).  The key observation: if
   a witness exists at all, collapsing every value outside the pattern's
   constant set ``C`` to one fresh value ``f`` preserves the match (the
   pattern has no inequalities, and equalities survive the collapse).  So
   it suffices to search for witnesses over the finite domain
   ``C ∪ {f}`` — and such witnesses are recognized by tree automata over
   the *lifted alphabet* of letters ``(label, value-tags)``.  Repeated
   variables are eliminated first by enumerating their tag assignment
   (at most ``(|C|+1)^r`` cases), after which satisfaction is purely
   letter-local and the closure-automaton machinery applies unchanged.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.errors import XsmError
from repro.patterns.ast import WILDCARD, Pattern
from repro.patterns.matching import matches_at_root
from repro.values import Const, Null, SkolemTerm, Var
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode

#: The single fresh value used by the tag lifting (distinct from any
#: user-supplied constant by construction of :class:`~repro.values.Null`).
FRESH = Null("pattern-sat-fresh")


def structural_witness(
    dtd: DTD, pattern: Pattern, context=None
) -> TreeNode | None:
    """A conforming label-tree structurally matching *pattern*, or None.

    Exact as a *structural* statement: None means no conforming tree
    matches even with the most permissive choice of data values.  The two
    automata are compiled through the engine's
    :class:`~repro.engine.cache.CompilationCache`, and their product is
    searched with the DTD automaton as ``conformance=`` component: only
    conforming subtrees are realized, and a node of label ``L`` is only
    stepped with children whose labels ``L``'s production reads.  That
    finds a witness exactly when the plain search that merely prunes
    non-conforming states does (``tests/test_satisfiability.py`` checks
    it against that search over the plain automata).  The witness
    carries labels only; :func:`~repro.automata.dtd_automaton.decorate`
    adds values.
    """
    # imported here: repro.automata (which the engine cache compiles)
    # depends on repro.patterns.ast, so top-level imports would be circular
    from repro.automata.duta import ProductAutomaton, find_accepted
    from repro.engine.budget import resolve_context
    from repro.engine.cache import closure_automaton, dtd_automaton

    closure = closure_automaton([pattern], dtd, context=context)
    conformance = dtd_automaton(dtd, context=context)
    product = ProductAutomaton(
        [conformance, closure],
        predicate=lambda state: (
            conformance.is_accepting(state[0])
            and closure.satisfies(state[1], pattern)
        ),
    )
    resolved = resolve_context(context)
    found = find_accepted(
        product,
        conformance=conformance,
        charge=resolved.charge if resolved is not None else None,
    )
    if found is None:
        return None
    __, witness = found
    return witness


class _LiftedDTDAutomaton:
    """DTD conformance over the lifted alphabet of (label, tags) letters."""

    def __init__(self, dtd: DTD, letters: Iterable[tuple]):
        from repro.automata.dtd_automaton import DTDAutomaton

        self.dtd = dtd
        self._letters = frozenset(letters)
        #: base label -> its letters (what child_labels expands to)
        self._by_label: dict[str, list[tuple]] = {}
        for letter in self._letters:
            self._by_label.setdefault(letter[0], []).append(letter)
        self._base = DTDAutomaton(dtd)

    def labels(self):
        return self._letters

    def initial_horizontal(self, letter):
        return self._base.initial_horizontal(letter[0])

    def step_horizontal(self, letter, hstate, child_state):
        # child_state is (child_letter_base_label, ok)
        return self._base.step_horizontal(letter[0], hstate, child_state)

    def finish(self, letter, hstate):
        return self._base.finish(letter[0], hstate)

    def is_accepting(self, state) -> bool:
        return self._base.is_accepting(state)

    # -- the conformance= contract of reachable_states ------------------------

    def state_ok(self, state) -> bool:
        return self._base.state_ok(state)

    def horizontal_dead(self, hstate) -> bool:
        return self._base.horizontal_dead(hstate)

    def child_labels(self, letter) -> tuple:
        return tuple(
            child
            for label in self._base.child_labels(letter[0])
            for child in self._by_label.get(label, ())
        )


def _lifted_letters(dtd: DTD, domain: tuple) -> list[tuple]:
    letters = []
    for label in dtd.labels:
        for tags in itertools.product(domain, repeat=dtd.arity(label)):
            letters.append((label, tags))
    return letters


def _lift_closure_automaton(dtd: DTD, pattern: Pattern, letters):
    """Closure automaton over lifted letters; constants constrain tags."""
    from repro.automata.pattern_automaton import PatternClosureAutomaton

    class _Lifted(PatternClosureAutomaton):
        def _node_formula_ok(self, sub: Pattern, letter) -> bool:
            base_label, tags = letter
            if sub.label != WILDCARD and sub.label != base_label:
                return False
            if sub.vars is None:
                return True
            if len(sub.vars) != len(tags):
                return False
            for term, tag in zip(sub.vars, tags):
                if isinstance(term, Const) and term.value != tag:
                    return False
            return True

    # arity_of is satisfied through the letters themselves; pass a dummy
    automaton = _Lifted([pattern], extra_labels=(), arity_of=lambda label: -1)
    automaton._labels = frozenset(letters)
    return automaton


def _unlift(witness: TreeNode) -> TreeNode:
    """Turn a tree over lifted letters back into a valued tree."""
    label, tags = witness.label
    return TreeNode(
        label, tags, tuple(_unlift(child) for child in witness.children)
    )


def satisfying_tree(dtd: DTD, pattern: Pattern, context=None) -> TreeNode | None:
    """A tree ``T |= D`` with a match for *pattern*, or None if unsatisfiable."""
    from repro.automata.dtd_automaton import decorate
    from repro.automata.duta import ProductAutomaton, find_accepted
    from repro.engine.budget import resolve_context

    if any(isinstance(term, SkolemTerm) for term in pattern.terms()):
        raise XsmError("satisfiability is defined for patterns without Skolem terms")
    skeleton = structural_witness(dtd, pattern, context)
    if skeleton is None:
        return None
    constants = [t.value for t in pattern.terms() if isinstance(t, Const)]
    if not constants:
        witness = decorate(dtd, skeleton)
        assert matches_at_root(pattern, witness), "structural witness must match"
        return witness

    # tag lifting: finite value domain C ∪ {FRESH}
    domain = tuple(dict.fromkeys(constants)) + (FRESH,)
    counts: dict[Var, int] = {}
    for term in pattern.terms():
        if isinstance(term, Var):
            counts[term] = counts.get(term, 0) + 1
    repeated = [var for var, count in counts.items() if count > 1]
    letters = _lifted_letters(dtd, domain)
    lifted_dtd = _LiftedDTDAutomaton(dtd, letters)
    resolved = resolve_context(context)
    charge = resolved.charge if resolved is not None else None
    for tags in itertools.product(domain, repeat=len(repeated)):
        ground = pattern.substitute(dict(zip(repeated, tags)))
        closure = _lift_closure_automaton(dtd, ground, letters)
        product = ProductAutomaton(
            [lifted_dtd, closure],
            predicate=lambda state: (
                lifted_dtd.is_accepting(state[0])
                and closure.satisfies(state[1], ground)
            ),
        )
        found = find_accepted(product, conformance=lifted_dtd, charge=charge)
        if found is not None:
            witness = _unlift(found[1])
            assert dtd.conforms(witness)
            assert matches_at_root(pattern, witness), "lifted witness must match"
            return witness
    return None


def is_satisfiable(dtd: DTD, pattern: Pattern, context=None):
    """Decide (exactly) whether some ``T |= D`` matches *pattern*.

    Returns a :class:`~repro.engine.verdicts.Verdict` — ``Proved`` carries
    the satisfying tree, and the decision is exact (never ``Unknown``).
    """
    from repro.engine.verdicts import (
        AnalysisCertificate,
        Proved,
        Refuted,
        SatisfyingTree,
    )

    witness = satisfying_tree(dtd, pattern, context)
    if witness is not None:
        return Proved(SatisfyingTree(witness))
    return Refuted(
        AnalysisCertificate(
            "pattern-sat",
            "no conforming tree matches the pattern (closure-automaton "
            "reachability over the tag-lifted alphabet is empty)",
        )
    )
