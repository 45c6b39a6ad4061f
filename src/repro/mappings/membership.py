"""Membership in ``[[M]]``: is ``T'`` a solution for ``T``? (Section 4)

For each std and each match ``nu`` of the source pattern on ``T`` whose
values satisfy the source conditions, some extension of ``nu`` restricted
to the shared variables must match the target pattern on ``T'`` and
satisfy the target conditions.

Data complexity of this check is low (DLOGSPACE in the paper; here, a
polynomial pass for a fixed mapping); combined complexity is
``Pi_2^p``-complete — the exponential lives in the number of variables per
pattern, which is exactly what the Figure-2 benchmarks sweep.

Source-side obligations are deduplicated down to their *exported*
shared-variable assignments.  Each std's target side is then evaluated
once per target tree, as a semi-join (:func:`_unmet`): the target
pattern's relation, projected onto the variables the join and the target
conditions need (other target-only variables stay existential and are
never materialized), is grouped by its shared values, and each export
probes its group.  :class:`SolutionChecker` holds one fixed source's
obligations; :func:`is_solution`, :func:`violations`, the bounded
searches, the oracles and ``certify()`` all check targets through it.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.verdicts import (
    ConformanceFailure,
    ObligationsMet,
    Proved,
    Refuted,
    Verdict,
    ViolationWitness,
)
from repro.errors import XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
from repro.patterns.matching import engine_for, find_matches, join_variables
from repro.values import Var
from repro.xmlmodel.tree import TreeNode


def _source_matches(std: STD, source_tree: TreeNode) -> Iterator[dict[Var, object]]:
    """Matches of the source side that pass the source conditions."""
    for valuation in find_matches(std.source, source_tree):
        if all(c.evaluate(valuation) for c in std.source_conditions):
            yield valuation


def _exported_assignments(std: STD, source_tree: TreeNode) -> list[dict[Var, object]]:
    """Deduplicated shared-variable assignments the source side fires.

    Target satisfaction depends only on the exported values, so source
    matches that agree on the shared variables collapse into one
    obligation.
    """
    shared = set(std.shared_variables())
    exports: dict[frozenset, dict[Var, object]] = {}
    for valuation in _source_matches(std, source_tree):
        exported = {var: value for var, value in valuation.items() if var in shared}
        exports.setdefault(frozenset(exported.items()), exported)
    return list(exports.values())


def _semi_join_plan(std: STD) -> tuple[frozenset[Var], frozenset[Var]]:
    """``(probe, keep)``: the target pattern's shared variables (the group
    key), and those plus its join and target-condition variables."""
    pattern_vars = frozenset(std.target.variables())
    probe = frozenset(std.shared_variables()) & pattern_vars
    condition_vars = {var for c in std.target_conditions for var in c.variables()}
    keep = join_variables(std.target) | probe | (condition_vars & pattern_vars)
    return probe, keep


def _unmet(
    std: STD, exports: list[dict[Var, object]], target_tree: TreeNode
) -> list[dict[Var, object]]:
    """The exported assignments of *exports* that no extension matches: one
    evaluation of ``std.target``, kept on ``keep`` and grouped by its shared
    values, serves every export; target conditions run on one group each."""
    if not exports:
        return []
    probe, keep = std._memo("semi-join-plan", lambda: _semi_join_plan(std))
    groups: dict[frozenset, list[frozenset]] = {}
    for valuation in engine_for(target_tree).relation_at_root(std.target, keep):
        key = frozenset(pair for pair in valuation if pair[0] in probe)
        groups.setdefault(key, []).append(valuation)
    conditions = std.target_conditions
    unmet = []
    for exported in exports:
        members = groups.get(frozenset(p for p in exported.items() if p[0] in probe))
        if not members or conditions and not any(
            all(c.evaluate({**exported, **dict(member)}) for c in conditions)
            for member in members
        ):
            unmet.append(exported)
    return unmet


def witness_valuation(exported: dict[Var, object]) -> tuple[tuple[str, object], ...]:
    """The :class:`ViolationWitness` form of an export: ``(name, value)``
    pairs sorted by name (names are unique, so values are never compared)."""
    return tuple(sorted((var.name, value) for var, value in exported.items()))


class SolutionChecker:
    """Checks many candidate targets against one fixed ``(mapping, T)``.

    ``obligations`` holds one ``(std, exports)`` pair per std, computed
    once; each target check runs :func:`_unmet` once per triggered std.
    """

    def __init__(self, mapping: SchemaMapping, source_tree: TreeNode):
        self.mapping = mapping
        self.source_tree = source_tree
        self.obligations: list[tuple[STD, list[dict[Var, object]]]] = []
        for std in mapping.stds:
            if std.skolem_functions():
                raise XsmError(
                    "std uses Skolem functions; use repro.mappings.skolem "
                    "(is_skolem_solution / SkolemSolutionChecker)"
                )
            self.obligations.append((std, _exported_assignments(std, source_tree)))

    def first_violation(
        self, target_tree: TreeNode
    ) -> tuple[int, list[dict[Var, object]]] | None:
        """The index of the first std with unmet exports, and those exports."""
        for index, (std, exports) in enumerate(self.obligations):
            unmet = _unmet(std, exports, target_tree)
            if unmet:
                return index, unmet
        return None

    def is_solution_for(self, target_tree: TreeNode, check_conformance: bool = True) -> bool:
        """``(T, target_tree) ∈ [[M]]`` for the fixed source ``T``."""
        if check_conformance and not self.mapping.target_dtd.conforms(target_tree):
            return False
        return self.first_violation(target_tree) is None


def is_solution(
    mapping: SchemaMapping,
    source_tree: TreeNode,
    target_tree: TreeNode,
    check_conformance: bool = True,
) -> Verdict:
    """``(T, T') ∈ [[M]]``: conformance to both DTDs plus all stds.

    Returns a :class:`~repro.engine.verdicts.Verdict` (membership is
    decidable, so never ``Unknown``): ``Proved`` carries the number of
    checked obligations, ``Refuted`` either the non-conforming side or
    the first std with an unmet export and its least unmet export under
    the ``(name, repr(value))`` order (so it does not depend on hash order).
    """
    if check_conformance:
        if not mapping.source_dtd.conforms(source_tree):
            return Refuted(ConformanceFailure("source"))
        if not mapping.target_dtd.conforms(target_tree):
            return Refuted(ConformanceFailure("target"))
    checker = SolutionChecker(mapping, source_tree)
    violation = checker.first_violation(target_tree)
    if violation is None:
        return Proved(ObligationsMet(sum(len(e) for __, e in checker.obligations)))
    index, unmet = violation
    least = min(map(witness_valuation, unmet), key=lambda pairs: [(n, repr(v)) for n, v in pairs])
    return Refuted(ViolationWitness(index, least))


def violations(
    mapping: SchemaMapping, source_tree: TreeNode, target_tree: TreeNode
) -> list[tuple[STD, dict[Var, object]]]:
    """Diagnostic version: every (std, source match) lacking a target match."""
    failures: list[tuple[STD, dict[Var, object]]] = []
    for std in mapping.stds:
        shared = set(std.shared_variables())
        matches = [
            (valuation, frozenset(p for p in valuation.items() if p[0] in shared))
            for valuation in _source_matches(std, source_tree)
        ]
        exports = [dict(key) for key in dict.fromkeys(key for __, key in matches)]
        unmet = {frozenset(e.items()) for e in _unmet(std, exports, target_tree)}
        failures.extend((std, valuation) for valuation, key in matches if key in unmet)
    return failures


def triggered_requirements(
    mapping: SchemaMapping, source_tree: TreeNode
) -> list[tuple[STD, dict[Var, object]]]:
    """All (std, exported shared-variable assignment) pairs the source fires.

    These are the obligations any solution must fulfil; the canonical
    solution construction in :mod:`repro.exchange` consumes them.
    """
    return [
        (std, exported)
        for std in mapping.stds
        for exported in _exported_assignments(std, source_tree)
    ]
