"""Expanding ``⇓``-source patterns into fully-specified instantiations.

Over a *non-recursive* DTD, a source pattern using wildcard or descendant
is equivalent to a finite **union** of fully-specified patterns: a
wildcard node ranges over the DTD's labels, and a ``//`` edge ranges over
the finitely many label paths of the (acyclic) label graph.  Since the
paper's stds are implications, replacing one std by the set of stds over
its source instantiations preserves the semantics exactly — every concrete
match of the original source uses concrete labels and paths, so it is a
match of exactly the corresponding instantiation, with the same exported
values.

This turns the NEXPTIME-hard extension of Theorem 6.3 (fully-specified
plus wildcard or descendant) into an **exact** procedure: expand the
sources (worst-case exponentially many instantiations — that is the lower
bound talking), then run the PTIME rigidity analysis of
:mod:`repro.consistency.abscons` on the expanded mapping.  The expansion
size is guarded; exceeding the guard raises
:class:`~repro.errors.BoundExceededError` rather than thrashing.

Only *source* sides expand this way: a wildcard in a target is an
existential over labels (a disjunction of requirements), which the std
language cannot express as a set of stds.
"""

from __future__ import annotations

import itertools

from repro.analysis.fragment import (
    abscons_expansion_violation,
    expansion_violation,
    require,
)
from repro.engine.budget import resolve_budget
from repro.engine.verdicts import (
    AnalysisCertificate,
    Proved,
    Refuted,
    RigidityExplanation,
    Verdict,
)
from repro.errors import BoundExceededError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.xmlmodel.dtd import DTD


def _downward_paths(dtd: DTD) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """All strict label paths ``a -> ... -> b`` keyed by (a, b).

    A path is recorded as the tuple of *intermediate* labels (possibly
    empty for a direct child edge).  Finite because the DTD is
    non-recursive.
    """
    children = {label: sorted(dtd.child_labels(label)) for label in dtd.productions}
    paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}

    def walk(start: str, current: str, intermediates: tuple[str, ...]) -> None:
        for child in children.get(current, ()):
            paths.setdefault((start, child), []).append(intermediates)
            walk(start, child, intermediates + (child,))

    for label in children:
        walk(label, label, ())
    return paths


def expand_source_pattern(
    dtd: DTD, pattern: Pattern, limit: int | None = None
) -> list[Pattern]:
    """The fully-specified instantiations of a ``⇓``-source pattern.

    Requires a non-recursive DTD and a pattern without horizontal axes.
    The union of the instantiations' match sets over trees conforming to
    *dtd* equals the original pattern's match set.  Raises
    :class:`BoundExceededError` when more than *limit* instantiations
    would be produced (default: the ambient budget's ``expansion_limit``).
    """
    if limit is None:
        limit = resolve_budget(None).expansion_limit
    require(expansion_violation(dtd, pattern))
    paths = _downward_paths(dtd)
    budget = [limit]

    def charge(n: int) -> None:
        budget[0] -= n
        if budget[0] < 0:
            raise BoundExceededError(
                f"source expansion exceeds {limit} instantiations", bound=limit
            )

    def candidate_labels(node: Pattern, allowed) -> list[str]:
        labels = allowed if node.label == WILDCARD else (
            [node.label] if node.label in allowed else []
        )
        if node.vars is None:
            return list(labels)
        return [label for label in labels if dtd.arity(label) == len(node.vars)]

    def expand(node: Pattern, allowed) -> list[Pattern]:
        results: list[Pattern] = []
        for label in candidate_labels(node, allowed):
            child_labels = sorted(dtd.child_labels(label))
            item_options: list[list] = []
            for item in node.items:
                if isinstance(item, Descendant):
                    options = []
                    for below in sorted(
                        {b for (a, b) in paths if a == label}
                    ):
                        for inner in expand(item.pattern, [below]):
                            for intermediates in paths[(label, below)]:
                                wrapped = inner
                                for inter in reversed(intermediates):
                                    wrapped = Pattern(
                                        inter, None, (Sequence((wrapped,)),)
                                    )
                                options.append(Sequence((wrapped,)))
                else:
                    (child,) = item.elements
                    options = [
                        Sequence((inner,))
                        for inner in expand(child, child_labels)
                    ]
                if not options:
                    break
                item_options.append(options)
            else:
                count = 1
                for options in item_options:
                    count *= len(options)
                charge(count)
                for combination in itertools.product(*item_options):
                    results.append(Pattern(label, node.vars, tuple(combination)))
        return results

    return expand(pattern, [dtd.root] if pattern.label in (dtd.root, WILDCARD) else [])


def expansion_is_exact_on(
    dtd: DTD, pattern: Pattern, tree, limit: int | None = None
) -> bool:
    """Cross-check the expansion against the pattern engine on one tree.

    The union of the instantiations' match sets must equal the original
    pattern's match set on any tree conforming to *dtd* — the semantic
    claim the module docstring makes.  Both sides are evaluated through
    one shared engine (the instantiations reuse the tree's index and
    memo tables), so the check stays cheap; the randomized tests call it
    on enumerated conforming trees.
    """
    from repro.patterns.matching import engine_for

    engine = engine_for(tree)
    expanded: set = set()
    for instantiation in expand_source_pattern(dtd, pattern, limit):
        expanded |= engine.relation_at_root(instantiation)
    return expanded == engine.relation_at_root(pattern)


def expand_mapping_sources(
    mapping: SchemaMapping, limit: int | None = None
) -> SchemaMapping:
    """The mapping with every std's source replaced by its instantiations.

    Semantically equivalent to the input; the result has fully-specified
    source patterns, ready for the Theorem 6.3 analysis.
    """
    expanded: list[STD] = []
    seen: set[STD] = set()
    for std in mapping.stds:
        for instantiation in expand_source_pattern(
            mapping.source_dtd, std.source, limit
        ):
            candidate = STD(
                instantiation, std.target,
                std.source_conditions, std.target_conditions,
            )
            if candidate not in seen:
                seen.add(candidate)
                expanded.append(candidate)
    return SchemaMapping(mapping.source_dtd, mapping.target_dtd, expanded)


def is_absolutely_consistent_expanded(
    mapping: SchemaMapping, limit: int | None = None
) -> Verdict:
    """Exact ``ABSCONS(⇓)`` with wildcard/descendant **sources** allowed.

    Requirements: nested-relational DTDs, no comparisons, fully-specified
    *targets*; sources may use wildcard and descendant (the NEXPTIME-hard
    extension of Theorem 6.3 — the worst-case exponential expansion is the
    lower bound made visible).  Raises :class:`BoundExceededError` when
    the expansion itself overflows (the caller falls back to bounded
    refutation, which reports ``Unknown``).
    """
    from repro.consistency.abscons import abscons_ptime_analysis

    require(abscons_expansion_violation(mapping))
    expanded = expand_mapping_sources(mapping, limit)
    problems = abscons_ptime_analysis(expanded)
    if problems:
        return Refuted(RigidityExplanation(tuple(problems)))
    return Proved(
        AnalysisCertificate(
            "abscons-expansion",
            f"rigidity analysis of the {len(expanded.stds)}-std source "
            "expansion found no over-constrained rigid target class",
        )
    )
