"""Redundancy analysis: std subsumption via pattern homomorphisms.

An std is *redundant* when removing it does not change the mapping's
semantics because another std already enforces (at least) the same
requirement.  Deciding this in general is as hard as mapping
containment — undecidable with comparisons (cf. Theorem 7.1(2) and the
XPath-containment landscape of Neven–Schwentick) — so this module takes
the classic certified-sound route of the mapping-composition literature
(Arenas–Pérez–Reutter–Riveros): decide subsumption exactly where the
fragment permits a small witness, and stay silent (Unknown-safe)
everywhere else.

The witness is a **pattern homomorphism** pair.  ``std_j`` subsumes
``std_i`` when

1. there is a homomorphism ``h₁ : source(j) → source(i)`` — every tree
   match of ``source(i)`` composes with ``h₁`` into a match of
   ``source(j)``, so ``j`` fires whenever ``i`` does, with the variable
   translation ``σ : Var(source(j)) → Term(source(i))`` read off the
   attribute slots; and
2. there is a homomorphism ``h₂ : target(i) → target(j)`` compatible
   with ``σ`` — every target match that satisfies ``j``'s requirement
   under ``σ∘μ`` also satisfies ``i``'s requirement under ``μ``.

Homomorphisms map child edges to child edges, descendant items to
strictly deeper nodes, next-sibling chains to adjacent positions joined
by ``->`` and following-sibling chains to strictly ordered positions of
one sequence; a wildcard node absorbs any label, but a labelled node
can only map to the same label.  Soundness holds over *all* trees, so
it holds over the conforming ones for free; no DTD reasoning is needed.

Stds with comparisons or Skolem terms are skipped entirely — there the
implication is no longer a homomorphism problem, and a wrong "redundant"
verdict would license a semantics-changing removal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.mappings.std import STD
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.values import Const, SkolemTerm, Term, Var

if TYPE_CHECKING:
    from repro.mappings.mapping import SchemaMapping

#: Variable translation read off a source-side homomorphism:
#: each variable of the subsuming std's source maps to the term
#: (variable or constant) of the subsumed std's source it lands on.
Translation = dict[Var, Term]


@dataclass(frozen=True)
class Subsumption:
    """A certified subsumption: ``mapping.stds[by]`` subsumes
    ``mapping.stds[index]`` (so std *index* is redundant)."""

    index: int
    by: int
    translation: tuple[tuple[str, str], ...]
    duplicate: bool

    def describe(self) -> str:
        kind = "a variable-renamed duplicate of" if self.duplicate else "subsumed by"
        return f"std {self.index} is {kind} std {self.by}"


def _has_skolem(std: STD) -> bool:
    return any(
        isinstance(term, SkolemTerm)
        for pattern in (std.source, std.target)
        for term in pattern.terms()
    )


def _eligible(std: STD) -> bool:
    """Only comparison- and Skolem-free stds enter the exact check."""
    return (
        not std.source_conditions
        and not std.target_conditions
        and not _has_skolem(std)
    )


# ---------------------------------------------------------------------------
# pattern-to-pattern homomorphisms
# ---------------------------------------------------------------------------


def _label_ok(weaker: Pattern, stronger: Pattern) -> bool:
    """May a node of the weaker pattern sit on this stronger node?

    The stronger pattern guarantees the tree node's label only when it
    is itself concrete; a wildcard on the weaker side absorbs anything.
    """
    if weaker.label == WILDCARD:
        return True
    return weaker.label == stronger.label


def _bind_vars(
    weaker: Pattern,
    stronger: Pattern,
    binding: Translation,
    *,
    source_side: bool,
) -> Translation | None:
    """Extend *binding* with the attribute-slot correspondence, or None.

    On the **source side** the weaker pattern is the subsuming std's
    source mapped into the subsumed std's source: every slot the weaker
    pattern constrains must be *guaranteed* by the stronger one, so the
    stronger node must constrain the same slots and the term mapping
    ``weaker var → stronger term`` must be functional (a repeated weaker
    variable demands an equality the stronger pattern only guarantees by
    giving it the same term every time) and constants must agree
    literally.

    On the **target side** the roles flip (the subsumed std's target is
    mapped into the subsuming std's target) but the slot discipline is
    the same; the caller separately checks the translation compatibility
    of shared variables.
    """
    if weaker.vars is None:
        return binding
    if stronger.vars is None or len(weaker.vars) != len(stronger.vars):
        return None
    extended = dict(binding)
    for weak_term, strong_term in zip(weaker.vars, stronger.vars):
        if isinstance(weak_term, Const):
            if not (isinstance(strong_term, Const)
                    and strong_term.value == weak_term.value):
                return None
            continue
        if not isinstance(weak_term, Var):
            return None  # Skolem terms never enter (``_eligible``)
        if not isinstance(strong_term, (Var, Const)):
            return None
        known = extended.get(weak_term)
        if known is None:
            extended[weak_term] = strong_term
        elif known != strong_term:
            return None
    del source_side  # same discipline both ways; kept for call-site clarity
    return extended


def _child_elements(pattern: Pattern) -> list[tuple[int, int, Pattern]]:
    """The direct children of a pattern node: (item, position, child)."""
    children = []
    for item_index, item in enumerate(pattern.items):
        if isinstance(item, Sequence):
            for position, element in enumerate(item.elements):
                children.append((item_index, position, element))
    return children


def _proper_descendants(pattern: Pattern) -> Iterator[Pattern]:
    """Every pattern node strictly below *pattern* (any edge depth)."""
    for item in pattern.items:
        elements = (
            (item.pattern,) if isinstance(item, Descendant) else item.elements
        )
        for element in elements:
            yield element
            yield from _proper_descendants(element)


def _embed(
    weaker: Pattern,
    stronger: Pattern,
    binding: Translation,
    *,
    source_side: bool,
) -> Iterator[Translation]:
    """All homomorphisms of *weaker* into *stronger* rooted here.

    Yields every consistent variable translation; patterns in lint
    workloads are small, so the backtracking search is cheap.
    """
    if not _label_ok(weaker, stronger):
        return
    bound = _bind_vars(weaker, stronger, binding, source_side=source_side)
    if bound is None:
        return
    yield from _embed_items(weaker, stronger, 0, bound, source_side=source_side)


def _embed_items(
    weaker: Pattern,
    stronger: Pattern,
    item_index: int,
    binding: Translation,
    *,
    source_side: bool,
) -> Iterator[Translation]:
    if item_index >= len(weaker.items):
        yield binding
        return
    item = weaker.items[item_index]
    if isinstance(item, Descendant):
        # ``//p`` is satisfied by any strictly deeper stronger node:
        # every pattern edge of the stronger side forces depth >= 1.
        for below in _proper_descendants(stronger):
            for bound in _embed(
                item.pattern, below, binding, source_side=source_side
            ):
                yield from _embed_items(
                    weaker, stronger, item_index + 1, bound,
                    source_side=source_side,
                )
        return
    assert isinstance(item, Sequence)
    children = _child_elements(stronger)
    yield from _embed_sequence(
        weaker, stronger, item, 0, None, children, binding, item_index,
        source_side=source_side,
    )


def _embed_sequence(
    weaker: Pattern,
    stronger: Pattern,
    sequence: Sequence,
    element_index: int,
    previous: tuple[int, int] | None,
    children: list[tuple[int, int, Pattern]],
    binding: Translation,
    item_index: int,
    *,
    source_side: bool,
) -> Iterator[Translation]:
    """Place ``sequence.elements[element_index:]`` among the stronger
    pattern's direct children, honouring the sibling connectors."""
    if element_index >= len(sequence.elements):
        yield from _embed_items(
            weaker, stronger, item_index + 1, binding, source_side=source_side
        )
        return
    element = sequence.elements[element_index]
    connector = (
        None if element_index == 0
        else sequence.connectors[element_index - 1]
    )
    for slot_item, slot_position, child in children:
        if previous is not None:
            prev_item, prev_position = previous
            if slot_item != prev_item:
                continue  # sibling order only holds inside one sequence
            if connector == "next":
                # adjacency is only guaranteed across a ``->`` connector
                if slot_position != prev_position + 1:
                    continue
                strong_item = stronger.items[slot_item]
                assert isinstance(strong_item, Sequence)
                if strong_item.connectors[prev_position] != "next":
                    continue
            else:  # "following": any strictly later position of the chain
                if slot_position <= prev_position:
                    continue
        for bound in _embed(element, child, binding, source_side=source_side):
            yield from _embed_sequence(
                weaker, stronger, sequence, element_index + 1,
                (slot_item, slot_position), children, bound, item_index,
                source_side=source_side,
            )


# ---------------------------------------------------------------------------
# std subsumption
# ---------------------------------------------------------------------------


def _target_compatible(
    subsumed: STD, subsuming: STD, translation: Translation
) -> bool:
    """Is there an ``h₂ : target(subsumed) → target(subsuming)`` whose
    value discipline is compatible with the source translation?

    A shared variable ``x`` of the subsumed std must land on a variable
    ``y`` of the subsuming std with ``σ(y) = x`` (then ``y``'s witnessed
    value *is* ``x``'s value); an existential variable may land on any
    term as long as all its occurrences land on the same one; constants
    must match literally.  ``_bind_vars`` enforces exactly the
    functional-binding part of this, so it suffices to post-filter the
    bindings it yields.
    """
    shared = set(subsumed.shared_variables())
    inverse: dict[Term, Var] = {}
    for var, term in translation.items():
        inverse.setdefault(term, var)
    for bound in _embed(
        subsumed.target, subsuming.target, {}, source_side=False
    ):
        ok = True
        for var, term in bound.items():
            if var in shared:
                # must read back the very value the subsumed std saw
                if not (isinstance(term, Var) and translation.get(term) == var):
                    ok = False
                    break
        if ok:
            return True
    return False


def subsumes(subsuming: STD, subsumed: STD) -> Translation | None:
    """Does *subsuming* make *subsumed* redundant?  Certificate or None.

    Sound and Unknown-safe: ``None`` means "no homomorphism certificate
    found", never "not redundant".  Both stds must be comparison- and
    Skolem-free (the caller's job, re-checked here).
    """
    if not (_eligible(subsuming) and _eligible(subsumed)):
        return None
    return _subsumes(subsuming, subsumed)


def _subsumes(subsuming: STD, subsumed: STD) -> Translation | None:
    """:func:`subsumes` for stds already known to be eligible."""
    for translation in _embed(
        subsuming.source, subsumed.source, {}, source_side=True
    ):
        if _target_compatible(subsumed, subsuming, translation):
            return translation
    return None


def _canonical(std: STD) -> STD:
    """Variables renamed to first-occurrence order (duplicate detection)."""
    renaming: dict[Var, Var] = {}

    def rename(pattern: Pattern) -> Pattern:
        for term in pattern.terms():
            if isinstance(term, Var) and term not in renaming:
                renaming[term] = Var(f"v{len(renaming)}")
        return pattern.rename_variables(renaming)

    source = rename(std.source)
    target = rename(std.target)
    return STD(source, target, std.source_conditions, std.target_conditions)


def _facts(std: STD) -> tuple[bool, STD | None, frozenset[str]]:
    """(eligible, canonical form, source labels) of *std*, memoized on it."""
    def compute():
        eligible = _eligible(std)
        return (
            eligible,
            _canonical(std) if eligible else None,
            std.source.labels_used(),
        )

    return std._memo("redundancy", compute)


def find_redundancies(mapping: "SchemaMapping") -> list[Subsumption]:
    """All certified redundancies of a mapping, deterministically ordered.

    Duplicates (equal up to variable renaming) are reported against the
    *earlier* copy; proper subsumptions report the subsumed std, and a
    mutually-subsumed pair without syntactic equality reports only the
    later index, so removing every reported std is always safe.

    Eligibility, canonical form and source labels are computed once per
    std object (an edit that keeps a std keeps them).  A pair is tried
    only when the subsuming source's labels (wildcards aside) all occur
    in the subsumed source: the source homomorphism maps every labelled
    node onto a node with the same label, so no other pair can have a
    certificate.
    """
    stds = mapping.stds
    facts = [_facts(std) for std in stds]
    eligible = [fact[0] for fact in facts]
    labels = [fact[2] for fact in facts]
    #: canonical forms numbered by first occurrence: equal numbers are
    #: duplicates, compared without a deep equality per pair
    numbering: dict[STD, int] = {}
    canonical = [
        numbering.setdefault(fact[1], len(numbering)) if fact[0] else None
        for fact in facts
    ]

    def subsumes_eligible(by: int, index: int) -> Translation | None:
        if not labels[by] <= labels[index]:
            return None
        return _subsumes(stds[by], stds[index])

    results: list[Subsumption] = []
    redundant: set[int] = set()
    for index in range(len(stds)):
        if not eligible[index] or index in redundant:
            continue
        for other in range(len(stds)):
            if other == index or not eligible[other] or other in redundant:
                continue
            if canonical[index] == canonical[other]:
                if other < index:
                    results.append(Subsumption(index, other, (), True))
                    redundant.add(index)
                    break
                continue
            translation = subsumes_eligible(other, index)
            if translation is None:
                continue
            mutual = subsumes_eligible(index, other) is not None
            if mutual and other > index:
                continue  # the later index of a mutual pair is reported
            results.append(
                Subsumption(
                    index,
                    other,
                    tuple(sorted(
                        (var.name, str(term)) for var, term in translation.items()
                    )),
                    False,
                )
            )
            redundant.add(index)
            break
    results.sort(key=lambda s: (s.index, s.by))
    return results
