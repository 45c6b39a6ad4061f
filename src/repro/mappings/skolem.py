"""Schema mappings with Skolem functions (Section 8).

Target sides may use terms ``f(u1, ..., uk)`` over the source variables;
the semantics existentially quantifies the *functions*: ``(T, T') ∈ [[M]]``
iff there is a valuation of the Skolem function symbols such that every
triggered std instance is satisfied on ``T'``.  The same function symbol
may occur in several stds, so its value choices are shared globally — this
is what lets Skolem mappings express "the same null for the same key", and
it is the extra power needed for closure under composition (Theorem 8.2).

Deciding membership is NP (Fagin's theorem in the relational case); we
decide it by reducing to one big conjunctive match over the target tree:

1. every triggered std instance contributes a *requirement pattern* in
   which Skolem applications become shared *unknown variables* (one per
   distinct instantiated application, with the application structure kept
   in a registry) and plain existential variables are renamed apart per
   instance;
2. requirements are joined left to right, propagating the partial
   assignment of unknowns and pruning with any comparison whose variables
   are all bound;
3. a final **congruence closure** over the registry enforces that Skolem
   symbols denote *functions*: applications with provably equal arguments
   must have equal results (this matters for nested terms such as
   ``f(g(x))``, which composition produces), equalities from ``alpha'``
   are merged in, and inequalities are checked against the closure.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.budget import current_context
from repro.engine.verdicts import (
    ConformanceFailure,
    ObligationsMet,
    Proved,
    Refuted,
    Verdict,
    AnalysisCertificate,
)
from repro.errors import NotInClassError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker
from repro.mappings.std import Comparison
from repro.patterns.ast import Pattern
from repro.patterns.matching import find_matches
from repro.values import Const, SkolemTerm, Term, Var
from repro.xmlmodel.tree import TreeNode


class SkolemMapping(SchemaMapping):
    """A schema mapping whose stds may use Skolem terms on target sides."""

    def check_composable_class(self) -> None:
        """Verify membership in the class closed under composition (Thm 8.2).

        Requirements: both DTDs strictly nested-relational, all stds
        fully specified, equality only (no inequalities).
        """
        from repro.analysis.fragment import composable_violation, require

        require(composable_violation(self), NotInClassError)


#: Registry of unknown variables standing for instantiated Skolem
#: applications: unknown -> SkolemTerm whose args are Const or unknown Var.
Registry = dict[Var, SkolemTerm]


class _Instantiator:
    """Grounds target terms, inventing shared unknowns for Skolem applications."""

    def __init__(self):
        self.registry: Registry = {}

    def term(self, term: Term, assignment: dict[Var, object]) -> Term:
        if isinstance(term, Var):
            if term in assignment:
                return Const(assignment[term])
            return term  # plain existential variable; renamed apart by caller
        if isinstance(term, Const):
            return term
        assert isinstance(term, SkolemTerm)
        args = tuple(self.term(a, assignment) for a in term.args)
        application = SkolemTerm(term.function, args)
        unknown = Var("!sk:" + _application_key(application))
        self.registry.setdefault(unknown, application)
        return unknown

    def pattern(self, pattern: Pattern, assignment: dict[Var, object]) -> Pattern:
        def on_node(p: Pattern) -> Pattern:
            if p.vars is None:
                return p
            return Pattern(
                p.label, tuple(self.term(t, assignment) for t in p.vars), p.items
            )

        return pattern.map_patterns(on_node)

    def comparison(self, c: Comparison, assignment: dict[Var, object]) -> Comparison:
        return Comparison(
            self.term(c.left, assignment), c.op, self.term(c.right, assignment)
        )


def _application_key(application: SkolemTerm) -> str:
    parts = []
    for arg in application.args:
        if isinstance(arg, Const):
            parts.append(f"c{arg.value!r}")
        else:
            assert isinstance(arg, Var)
            parts.append(arg.name)
    return f"{application.function}({','.join(parts)})"


def _rename_term(term: Term, renaming: dict[Var, Var]) -> Term:
    if isinstance(term, Var):
        return renaming.get(term, term)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(term.function, tuple(_rename_term(a, renaming) for a in term.args))
    return term


class Requirement:
    """One triggered std instance: preconditions -> pattern + conditions.

    *preconditions* are instantiated source comparisons that mention
    Skolem terms (SO-tgd style, Section 8): the instance only fires under
    function valuations satisfying them, so a solution may alternatively
    *defeat* one of them.
    """

    __slots__ = ("preconditions", "pattern", "conditions")

    def __init__(self, preconditions, pattern, conditions):
        self.preconditions: tuple[Comparison, ...] = preconditions
        self.pattern: Pattern = pattern
        self.conditions: tuple[Comparison, ...] = conditions


def _contains_skolem(comparison: Comparison) -> bool:
    return isinstance(comparison.left, SkolemTerm) or isinstance(
        comparison.right, SkolemTerm
    )


def skolem_requirements(
    mapping: SchemaMapping, source_tree: TreeNode
) -> tuple[list[Requirement], Registry]:
    """All instantiated target obligations fired by *source_tree*.

    Returns ``(requirements, registry)``; the registry maps every unknown
    variable to the Skolem application it denotes.  Pure-variable source
    conditions are evaluated immediately; Skolem-term source conditions
    become the requirement's preconditions.
    """
    instantiator = _Instantiator()
    requirements: list[Requirement] = []
    for std_index, std in enumerate(mapping.stds):
        existentials = set(std.existential_variables())
        plain_conditions = [
            c for c in std.source_conditions if not _contains_skolem(c)
        ]
        skolem_conditions = [c for c in std.source_conditions if _contains_skolem(c)]
        for match_index, valuation in enumerate(
            find_matches(std.source, source_tree)
        ):
            if not all(c.evaluate(valuation) for c in plain_conditions):
                continue
            renaming = {
                var: Var(f"!ex{std_index}.{match_index}:{var.name}")
                for var in existentials
            }
            preconditions = tuple(
                instantiator.comparison(c, valuation) for c in skolem_conditions
            )
            pattern = instantiator.pattern(
                std.target.rename_variables(renaming), valuation
            )
            conditions = tuple(
                instantiator.comparison(
                    Comparison(
                        _rename_term(c.left, renaming),
                        c.op,
                        _rename_term(c.right, renaming),
                    ),
                    valuation,
                )
                for c in std.target_conditions
            )
            requirements.append(Requirement(preconditions, pattern, conditions))
    return requirements, instantiator.registry


class _Congruence:
    """Union-find with congruence closure over Skolem applications.

    Nodes: ``("const", v)``, ``("var", Var)`` and ``("app", f, arg_roots)``
    handled implicitly through the registry.  A class may be pinned to at
    most one constant; merging two differently pinned classes is
    inconsistent.
    """

    def __init__(self):
        self._parent: dict = {}
        self._pinned: dict = {}  # root -> constant value
        self.consistent = True

    def _find(self, node):
        self._parent.setdefault(node, node)
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def node_of(self, term: Term, bound: dict[Var, object]):
        if isinstance(term, Const):
            node = ("const", term.value)
            self._pinned.setdefault(self._find(node), term.value)
            return node
        assert isinstance(term, Var)
        if term in bound:
            node = ("const", bound[term])
            self._pinned.setdefault(self._find(node), bound[term])
            return node
        return ("var", term)

    def merge(self, a, b) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        pa, pb = self._pinned.get(ra), self._pinned.get(rb)
        if pa is not None and pb is not None and pa != pb:
            self.consistent = False
            return
        self._parent[ra] = rb
        if pa is not None:
            self._pinned[rb] = pa

    def same(self, a, b) -> bool:
        return self._find(a) == self._find(b)


def _constraints_solvable(
    registry: Registry,
    conditions: list[Comparison],
    bound: dict[Var, object],
) -> bool:
    """Check functional consistency + conditions under the assignment *bound*.

    Unbound variables (Skolem applications appearing only in ``alpha'``)
    range over an infinite domain, so after the congruence closure an
    inequality fails only when its two sides fall in the same class.
    """
    congruence = _Congruence()
    app_nodes: list[tuple[str, tuple, object]] = []  # (function, arg nodes, result node)
    for unknown, application in registry.items():
        result = congruence.node_of(unknown, bound)
        args = tuple(congruence.node_of(arg, bound) for arg in application.args)
        app_nodes.append((application.function, args, result))
    for condition in conditions:
        if condition.op == "=":
            congruence.merge(
                congruence.node_of(condition.left, bound),
                congruence.node_of(condition.right, bound),
            )
    # congruence closure fixpoint: equal arguments force equal results
    changed = True
    while changed and congruence.consistent:
        changed = False
        for i in range(len(app_nodes)):
            fi, args_i, result_i = app_nodes[i]
            for j in range(i + 1, len(app_nodes)):
                fj, args_j, result_j = app_nodes[j]
                if fi != fj or len(args_i) != len(args_j):
                    continue
                if congruence.same(result_i, result_j):
                    continue
                if all(congruence.same(a, b) for a, b in zip(args_i, args_j)):
                    congruence.merge(result_i, result_j)
                    changed = True
    if not congruence.consistent:
        return False
    for condition in conditions:
        if condition.op == "!=":
            left = congruence.node_of(condition.left, bound)
            right = congruence.node_of(condition.right, bound)
            if congruence.same(left, right):
                return False
    return True


def _negate(comparison: Comparison) -> Comparison:
    return Comparison(
        comparison.left, "=" if comparison.op == "!=" else "!=", comparison.right
    )


def _solve_requirements(
    requirements: list[Requirement],
    registry: Registry,
    target_tree: TreeNode,
) -> Iterator[dict[Var, object]]:
    """Assignments to the unknowns satisfying every requirement on the target.

    Each requirement is either *satisfied* (preconditions asserted, pattern
    matched, conditions asserted) or *defeated* (one precondition negated,
    pattern not required).  Consistency of the accumulated constraint set —
    including functional consistency of the Skolem applications — is
    re-checked through the congruence closure at every step, pruning dead
    branches early.
    """

    context = current_context()

    def backtrack(
        index: int, bound: dict[Var, object], constraints: list[Comparison]
    ) -> Iterator[dict[Var, object]]:
        if context is not None:
            context.charge()
        if not _constraints_solvable(registry, constraints, bound):
            return
        if index == len(requirements):
            yield dict(bound)
            return
        requirement = requirements[index]
        grounded = requirement.pattern.substitute(bound)
        asserted = (
            constraints
            + list(requirement.preconditions)
            + list(requirement.conditions)
        )
        for extension in find_matches(grounded, target_tree):
            yield from backtrack(index + 1, {**bound, **extension}, asserted)
        for precondition in requirement.preconditions:
            yield from backtrack(
                index + 1, bound, constraints + [_negate(precondition)]
            )

    yield from backtrack(0, {}, [])


def find_skolem_witness(
    mapping: SchemaMapping,
    source_tree: TreeNode,
    target_tree: TreeNode,
) -> dict[Var, object] | None:
    """A valuation of the shared unknowns witnessing ``(T,T') ∈ [[M]]``, or None."""
    requirements, registry = skolem_requirements(mapping, source_tree)
    for solution in _solve_requirements(requirements, registry, target_tree):
        return solution
    return None


class SkolemSolutionChecker:
    """Checks many candidate targets against one fixed ``(mapping, T)``.

    The Skolem analogue of
    :class:`repro.mappings.membership.SolutionChecker`: the triggered
    requirements and the unknown registry depend only on the source tree,
    so they are instantiated once and reused across every candidate
    target (the bounded-search and composition loops).
    """

    def __init__(self, mapping: SchemaMapping, source_tree: TreeNode):
        self.mapping = mapping
        self.source_tree = source_tree
        self.requirements, self.registry = skolem_requirements(mapping, source_tree)

    def is_solution_for(
        self, target_tree: TreeNode, check_conformance: bool = True
    ) -> bool:
        """``(T, target_tree) ∈ [[M]]`` under the Skolem semantics."""
        if check_conformance and not self.mapping.target_dtd.conforms(target_tree):
            return False
        for __ in _solve_requirements(self.requirements, self.registry, target_tree):
            return True
        return False


def solution_checker(
    mapping: SchemaMapping, source_tree: TreeNode
) -> SolutionChecker | SkolemSolutionChecker:
    """The checker of *mapping*'s semantics (Skolem or plain) for one source."""
    make = SkolemSolutionChecker if mapping.uses_skolem_functions() else SolutionChecker
    return make(mapping, source_tree)


def is_skolem_solution(
    mapping: SchemaMapping,
    source_tree: TreeNode,
    target_tree: TreeNode,
    check_conformance: bool = True,
) -> Verdict:
    """``(T, T') ∈ [[M]]`` under the Skolem semantics of Section 8.

    Returns a :class:`~repro.engine.verdicts.Verdict` (never ``Unknown`` —
    the unknowns range over a finite candidate space per target tree).
    """
    if check_conformance:
        if not mapping.source_dtd.conforms(source_tree):
            return Refuted(ConformanceFailure("source"))
        if not mapping.target_dtd.conforms(target_tree):
            return Refuted(ConformanceFailure("target"))
    requirements, registry = skolem_requirements(mapping, source_tree)
    for __ in _solve_requirements(requirements, registry, target_tree):
        return Proved(ObligationsMet(len(requirements)))
    return Refuted(
        AnalysisCertificate(
            "skolem-membership",
            "no valuation of the shared Skolem unknowns satisfies every "
            "triggered requirement",
        )
    )
