"""Pattern satisfiability with respect to a DTD (Lemma 4.1).

The problem: given a DTD ``D`` and a pattern ``pi``, is there a tree
``T |= D`` with ``pi(T)`` non-empty?  It is NP-complete in general; this
module decides it *exactly*, by one of two routes that
:func:`~repro.analysis.fragment.predict_satisfiability` chooses.

* ``pattern-sat-nested``: over a nested-relational DTD, a pattern with no
  constants, no Skolem terms and no sibling order is satisfiable iff it
  embeds label by label (productions never forbid a combination of
  children, Fact 5.1's argument).  :mod:`repro.patterns.embedding`
  decides that in one ``O(|π|·|D|)`` pass and builds the witness.
* ``pattern-sat``: every other input, by the automata of Lemma 4.1, in
  two layers.

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

Both layers run on the bitset automata of :mod:`repro.automata.bitset`:
the lifted DTD automaton wraps the DTD's cached one, and the lifted
closure automaton decides its node formulas per letter.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.automata.bitset import BitsetClosureAutomaton, decorate
from repro.automata.duta import ProductAutomaton, find_accepted
from repro.errors import XsmError
from repro.patterns.ast import Pattern
from repro.patterns.embedding import embedder_for
from repro.patterns.matching import matches_at_root
from repro.values import Const, Null, SkolemTerm, Var
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode, tree_from_rows

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
    it against that search over the plain automata of
    :mod:`repro.verification.automata`).  The witness carries labels
    only; :func:`~repro.automata.bitset.decorate` adds values.
    """
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
    """DTD conformance over the lifted alphabet of ``(label, tags)`` letters.

    Wraps *base*, the DTD's automaton over its plain labels: a letter
    reads and finishes as its label, so vertical states stay the base
    ones.
    """

    def __init__(self, base, letters: list[tuple]):
        self._letters = frozenset(letters)
        by_label: dict[str, list[tuple]] = {}
        for letter in letters:
            by_label.setdefault(letter[0], []).append(letter)
        #: base label -> the letters its children may carry
        self._children = {
            label: tuple(
                child
                for child_label in base.child_labels(label)
                for child in by_label.get(child_label, ())
            )
            for label in by_label
        }
        self._base = base
        self._step = base.step_horizontal
        # the conformance= contract of reachable_states, on base states
        self.is_accepting = base.is_accepting
        self.state_ok = base.state_ok
        self.horizontal_dead = base.horizontal_dead

    def labels(self):
        return self._letters

    def initial_horizontal(self, letter):
        return self._base.initial_horizontal(letter[0])

    def step_horizontal(self, letter, hstate, child_state):
        return self._step(letter[0], hstate, child_state)

    def finish(self, letter, hstate):
        return self._base.finish(letter[0], hstate)

    def child_labels(self, letter) -> tuple:
        return self._children.get(letter[0], ())


class _LiftedClosureAutomaton(BitsetClosureAutomaton):
    """The closure automaton over ``(label, tags)`` letters: a node formula
    holds at a letter where it holds at the letter's label and every
    constant it names is the letter's tag at that position."""

    def _formula_masks(self, letters) -> dict:
        masks = {}
        #: per label: its mask, and (bit, [(position, constant)]) per
        #: subpattern the label satisfies that names a constant
        by_label: dict[str, tuple[int, list]] = {}
        for letter in letters:
            label, tags = letter
            if label not in by_label:
                mask = self._formula_mask(label)
                constrained = []
                for bit, sub in enumerate(self.subpatterns):
                    constants = [
                        (position, term.value)
                        for position, term in enumerate(sub.vars or ())
                        if isinstance(term, Const)
                    ]
                    if (mask >> bit) & 1 and constants:
                        constrained.append((bit, constants))
                by_label[label] = (mask, constrained)
            mask, constrained = by_label[label]
            for bit, constants in constrained:
                if any(tags[position] != value for position, value in constants):
                    mask &= ~(1 << bit)
            masks[letter] = mask
        return masks


def _lifted_letters(dtd: DTD, domain: tuple) -> list[tuple]:
    return [
        (label, tags)
        for label in sorted(dtd.labels)
        for tags in itertools.product(domain, repeat=dtd.arity(label))
    ]


def _unlift(witness: TreeNode) -> TreeNode:
    """Turn a tree over lifted letters back into a valued tree, without
    recursion: a witness may be deeper than the recursion limit."""
    return tree_from_rows(
        [(*node.label, len(node.children)) for node in witness.nodes()]
    )


def lifted_witness(
    dtd: DTD, pattern: Pattern, base, closure_kind, charge=None
) -> TreeNode | None:
    """The tag-lifting search: a valued witness for *pattern*, or None.

    Searches over the value domain ``C ∪ {FRESH}`` once per tag
    assignment of the repeated variables.  *base* is *dtd*'s automaton
    over its plain labels, and ``closure_kind(patterns, letters,
    arity_of)`` builds the lifted closure automaton: production passes
    the bitset encoding, the reference in
    :mod:`repro.verification.reachability` the plain one.
    """
    constants = [t.value for t in pattern.terms() if isinstance(t, Const)]
    domain = tuple(dict.fromkeys(constants)) + (FRESH,)
    counts = Counter(term for term in pattern.terms() if isinstance(term, Var))
    repeated = [var for var, count in counts.items() if count > 1]
    letters = _lifted_letters(dtd, domain)
    lifted_dtd = _LiftedDTDAutomaton(base, letters)
    for tags in itertools.product(domain, repeat=len(repeated)):
        ground = pattern.substitute(dict(zip(repeated, tags)))
        closure = closure_kind([ground], letters, dtd.arity)
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


def _lemma41_tree(dtd: DTD, pattern: Pattern, context=None) -> TreeNode | None:
    """The automata route (Lemma 4.1): the structural search, then tag
    lifting when the pattern names constants."""
    from repro.engine.budget import resolve_context
    from repro.engine.cache import dtd_automaton

    skeleton = structural_witness(dtd, pattern, context)
    if skeleton is None:
        return None
    if not any(isinstance(term, Const) for term in pattern.terms()):
        witness = decorate(dtd, skeleton)
        assert matches_at_root(pattern, witness), "structural witness must match"
        return witness
    resolved = resolve_context(context)
    return lifted_witness(
        dtd,
        pattern,
        dtd_automaton(dtd, context),
        _LiftedClosureAutomaton,
        charge=resolved.charge if resolved is not None else None,
    )


def _decide(dtd: DTD, pattern: Pattern, context=None) -> tuple[str, TreeNode | None]:
    """The route that decides *pattern* over *dtd*, and its witness."""
    from repro.analysis.fragment import nested_sat_violation

    if any(isinstance(term, SkolemTerm) for term in pattern.terms()):
        raise XsmError("satisfiability is defined for patterns without Skolem terms")
    if nested_sat_violation(dtd, pattern) is None:
        return "pattern-sat-nested", embedder_for(dtd).witness(pattern)
    return "pattern-sat", _lemma41_tree(dtd, pattern, context)


def satisfying_tree(dtd: DTD, pattern: Pattern, context=None) -> TreeNode | None:
    """A tree ``T |= D`` with a match for *pattern*, or None if unsatisfiable.

    Inside :func:`~repro.analysis.fragment.nested_sat_violation`'s class
    the embedding pass of :mod:`repro.patterns.embedding` decides; every
    other input takes the automata route.
    """
    return _decide(dtd, pattern, context)[1]


_REFUTATIONS = {
    "pattern-sat": (
        "no conforming tree matches the pattern (closure-automaton "
        "reachability over the tag-lifted alphabet is empty)"
    ),
    "pattern-sat-nested": (
        "the pattern does not embed at the root of the nested-relational "
        "DTD (embedding pass)"
    ),
}


def is_satisfiable(dtd: DTD, pattern: Pattern, context=None):
    """Decide (exactly) whether some ``T |= D`` matches *pattern*.

    Returns a :class:`~repro.engine.verdicts.Verdict` — ``Proved`` carries
    the satisfying tree, and the decision is exact (never ``Unknown``).
    ``Refuted`` names the route that decided it.
    """
    from repro.engine.verdicts import (
        AnalysisCertificate,
        Proved,
        Refuted,
        SatisfyingTree,
    )

    route, witness = _decide(dtd, pattern, context)
    if witness is not None:
        return Proved(SatisfyingTree(witness))
    return Refuted(AnalysisCertificate(route, _REFUTATIONS[route]))
