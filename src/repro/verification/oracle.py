"""Brute-force oracles for the decision problems of the paper.

Each oracle enumerates all conforming trees up to explicit size bounds over
an explicit finite value domain and decides by exhaustive search.  They are
*complete relative to their bounds*: tests pair them with instances whose
relevant witnesses provably fit.

The module also keeps the **naive pattern evaluator** — the memoized
nested-loop matcher that predates the query engine of
:mod:`repro.patterns.matching`.  It has no index, no hash joins and no
semi-join mode, which makes it the reference both for the randomized
equivalence tests and for the before/after series of
``benchmarks/bench_matching_engine.py``.  :func:`oracle_is_solution` runs
membership on it one obligation at a time, as the reference for the
production semi-join of :mod:`repro.mappings.membership`.

Domain guidance (used throughout the test suite):

* consistency without data comparisons — a single value ``(0,)`` suffices
  (the paper's Theorem 5.2 observation: triggers are structural, and equal
  values satisfy every equality);
* with comparisons — take as many values as there are variables in the
  mapping, plus one.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker, is_solution
from repro.mappings.skolem import SkolemSolutionChecker, is_skolem_solution
from repro.patterns.ast import WILDCARD, Descendant, Pattern
from repro.values import Const, SkolemTerm, Var
from repro.verification.enumeration import enumerate_trees
from repro.xmlmodel.tree import TreeNode


# ---------------------------------------------------------------------------
# Naive pattern evaluation (the pre-engine matcher, kept as an oracle)
# ---------------------------------------------------------------------------


_MISSING = object()


def _naive_merge(a: frozenset, b: frozenset) -> frozenset | None:
    """Join two valuations; None on conflicting variable bindings."""
    if len(b) > len(a):
        a, b = b, a
    merged = dict(a)
    for var, value in b:
        existing = merged.get(var, _MISSING)
        if existing is _MISSING:
            merged[var] = value
        elif existing != value:
            return None
    return frozenset(merged.items())


def _naive_join(lhs: set, rhs: set) -> set:
    out: set = set()
    for a in lhs:
        for b in rhs:
            merged = _naive_merge(a, b)
            if merged is not None:
                out.add(merged)
    return out


class NaiveMatcher:
    """One evaluation run over a fixed tree; nested-loop joins, no index."""

    def __init__(self):
        # (id(node), pattern) -> valuations of the pattern matched AT node
        self._at: dict[tuple[int, Pattern], set] = {}
        # (id(node), pattern) -> valuations matched at node or any descendant
        self._below: dict[tuple[int, Pattern], set] = {}

    def match_at(self, node: TreeNode, pattern: Pattern) -> set:
        key = (id(node), pattern)
        cached = self._at.get(key)
        if cached is not None:
            return cached
        result = self._match_at(node, pattern)
        self._at[key] = result
        return result

    def _match_at(self, node: TreeNode, pattern: Pattern) -> set:
        base = self._match_node_formula(node, pattern)
        if base is None:
            return set()
        valuations = {base}
        for item in pattern.items:
            if isinstance(item, Descendant):
                item_valuations = self.match_strictly_below(node, item.pattern)
            else:
                item_valuations = self._match_sequence(node.children, item)
            if not item_valuations:
                return set()
            valuations = _naive_join(valuations, item_valuations)
            if not valuations:
                return set()
        return valuations

    def _match_node_formula(self, node: TreeNode, pattern: Pattern):
        if pattern.label != WILDCARD and pattern.label != node.label:
            return None
        if pattern.vars is None:
            return frozenset()
        if len(pattern.vars) != len(node.attrs):
            return None
        binding: dict[Var, object] = {}
        for term, value in zip(pattern.vars, node.attrs):
            if isinstance(term, Var):
                bound = binding.get(term, _MISSING)
                if bound is _MISSING:
                    binding[term] = value
                elif bound != value:
                    return None
            elif isinstance(term, Const):
                if term.value != value:
                    return None
            elif isinstance(term, SkolemTerm):
                raise XsmError(
                    "Skolem terms cannot be matched directly; instantiate the "
                    "pattern through repro.mappings.skolem first"
                )
            else:
                raise TypeError(f"unexpected term {term!r}")
        return frozenset(binding.items())

    def match_strictly_below(self, node: TreeNode, pattern: Pattern) -> set:
        result: set = set()
        for child in node.children:
            result |= self.match_at_or_below(child, pattern)
        return result

    def match_at_or_below(self, node: TreeNode, pattern: Pattern) -> set:
        key = (id(node), pattern)
        cached = self._below.get(key)
        if cached is not None:
            return cached
        result = set(self.match_at(node, pattern))
        for child in node.children:
            result |= self.match_at_or_below(child, pattern)
        self._below[key] = result
        return result

    def _match_sequence(self, children: tuple, sequence) -> set:
        result: set = set()
        for start in range(len(children)):
            result |= self._match_sequence_from(children, start, sequence, 0)
        return result

    def _match_sequence_from(self, children, position, sequence, index) -> set:
        here = self.match_at(children[position], sequence.elements[index])
        if not here or index == len(sequence.elements) - 1:
            return here
        connector = sequence.connectors[index]
        if connector == "next":
            if position + 1 >= len(children):
                return set()
            rest = self._match_sequence_from(children, position + 1, sequence, index + 1)
            return _naive_join(here, rest)
        result: set = set()
        for later in range(position + 1, len(children)):
            rest = self._match_sequence_from(children, later, sequence, index + 1)
            if rest:
                result |= _naive_join(here, rest)
        return result


def naive_find_matches(pattern: Pattern, root: TreeNode) -> list[dict[Var, object]]:
    """All valuations of ``(T, root) |= pattern`` — naive evaluator."""
    return [dict(v) for v in NaiveMatcher().match_at(root, pattern)]


def naive_find_matches_anywhere(
    pattern: Pattern, root: TreeNode
) -> list[dict[Var, object]]:
    """All valuations matching anywhere in the tree — naive evaluator."""
    return [dict(v) for v in NaiveMatcher().match_at_or_below(root, pattern)]


def naive_matches_at_root(pattern: Pattern, root: TreeNode) -> bool:
    """``T |= pi`` — naive evaluator."""
    return bool(NaiveMatcher().match_at(root, pattern))


def naive_evaluate(pattern: Pattern, root: TreeNode) -> set[tuple]:
    """The answer set ``pi(T)`` — naive evaluator."""
    variables = pattern.variables()
    return {
        tuple(valuation[var] for var in variables)
        for valuation in naive_find_matches(pattern, root)
    }


# ---------------------------------------------------------------------------
# Brute-force decision oracles
# ---------------------------------------------------------------------------


def oracle_is_solution(
    mapping: SchemaMapping, source_tree: TreeNode, target_tree: TreeNode
) -> tuple[bool, list[tuple[int, dict[Var, object]]]]:
    """Reference membership: one whole-tree query per source match.

    Returns ``(member, failures)``: whether ``(T, T') ∈ [[M]]`` (DTD
    conformance included) and every ``(std index, source match)`` whose
    exported assignment has no target extension, in std order.  Each
    obligation substitutes its exported values into the target pattern
    and runs the result through :class:`NaiveMatcher`; target conditions
    are checked over every :func:`naive_find_matches` extension.  This is
    the per-obligation path that production membership replaced by one
    semi-join per std.
    """
    failures: list[tuple[int, dict[Var, object]]] = []
    for index, std in enumerate(mapping.stds):
        shared = set(std.shared_variables())
        for valuation in naive_find_matches(std.source, source_tree):
            if not all(c.evaluate(valuation) for c in std.source_conditions):
                continue
            exported = {var: value for var, value in valuation.items() if var in shared}
            pattern = std.target.substitute(exported)
            met = any(
                all(c.evaluate({**exported, **extension}) for c in std.target_conditions)
                for extension in naive_find_matches(pattern, target_tree)
            )
            if not met:
                failures.append((index, valuation))
    member = (
        mapping.source_dtd.conforms(source_tree)
        and mapping.target_dtd.conforms(target_tree)
        and not failures
    )
    return member, failures


def oracle_has_solution(
    mapping: SchemaMapping,
    source_tree: TreeNode,
    max_target_size: int,
    domain: Iterable[object],
) -> bool:
    """Does ``SOL_M(T)`` contain a tree of size <= bound over *domain*?"""
    checker = SolutionChecker(mapping, source_tree)
    for candidate in enumerate_trees(mapping.target_dtd, max_target_size, domain):
        if checker.is_solution_for(candidate, check_conformance=False):
            return True
    return False


def oracle_solutions(
    mapping: SchemaMapping,
    source_tree: TreeNode,
    max_target_size: int,
    domain: Iterable[object],
) -> Iterator[TreeNode]:
    """All bounded solutions for *source_tree* (for inspection in tests)."""
    checker = SolutionChecker(mapping, source_tree)
    for candidate in enumerate_trees(mapping.target_dtd, max_target_size, domain):
        if checker.is_solution_for(candidate, check_conformance=False):
            yield candidate


def oracle_is_consistent(
    mapping: SchemaMapping,
    max_source_size: int,
    max_target_size: int,
    domain: Iterable[object],
) -> bool:
    """Is some bounded (T, T') pair in ``[[M]]``?"""
    domain = tuple(domain)
    for source in enumerate_trees(mapping.source_dtd, max_source_size, domain):
        if oracle_has_solution(mapping, source, max_target_size, domain):
            return True
    return False


def oracle_is_absolutely_consistent(
    mapping: SchemaMapping,
    max_source_size: int,
    max_target_size: int,
    source_domain: Iterable[object],
    extra_target_values: int = 2,
) -> bool:
    """Does every bounded source tree have a bounded solution?

    Target values may copy source values or be fresh nulls; the oracle
    offers the source domain plus *extra_target_values* fresh symbols.
    """
    source_domain = tuple(source_domain)
    target_domain = source_domain + tuple(
        f"#null{i}" for i in range(extra_target_values)
    )
    for source in enumerate_trees(mapping.source_dtd, max_source_size, source_domain):
        if not oracle_has_solution(mapping, source, max_target_size, target_domain):
            return False
    return True


def oracle_counterexample(
    mapping: SchemaMapping,
    max_source_size: int,
    max_target_size: int,
    source_domain: Iterable[object],
    extra_target_values: int = 2,
) -> TreeNode | None:
    """A bounded source tree with no bounded solution, if any."""
    source_domain = tuple(source_domain)
    target_domain = source_domain + tuple(
        f"#null{i}" for i in range(extra_target_values)
    )
    for source in enumerate_trees(mapping.source_dtd, max_source_size, source_domain):
        if not oracle_has_solution(mapping, source, max_target_size, target_domain):
            return source
    return None


def oracle_composition_contains(
    m12: SchemaMapping,
    m23: SchemaMapping,
    source_tree: TreeNode,
    final_tree: TreeNode,
    max_mid_size: int,
    domain: Iterable[object],
    skolem: bool = False,
) -> bool:
    """Is ``(T1, T3)`` in ``[[M12]] o [[M23]]`` with a bounded intermediate?"""
    check = is_skolem_solution if skolem else is_solution
    if not m12.source_dtd.conforms(source_tree):
        return False
    if not m23.target_dtd.conforms(final_tree):
        return False
    # the source side of M12 is fixed: compute its obligations once
    checker12 = (SkolemSolutionChecker if skolem else SolutionChecker)(
        m12, source_tree
    )
    for middle in enumerate_trees(m12.target_dtd, max_mid_size, domain):
        if checker12.is_solution_for(middle, check_conformance=False) and check(
            m23, middle, final_tree, check_conformance=False
        ):
            return True
    return False
