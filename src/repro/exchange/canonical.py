"""Canonical target construction for fully-specified stds over
nested-relational target DTDs.

Every triggered std instance contributes a ground *fragment* (its target
pattern with shared variables replaced by source values and existential
variables by labelled nulls, one null per (std, exported tuple, variable) —
the Skolem-function discipline).  Fragments merge into one target tree:

* children of multiplicity ``1``/``?`` (rigid) merge recursively — their
  attribute values must unify, with nulls resolved by union-find;
* starred children stay apart (one copy per distinct fragment);
* required children (multiplicity ``1``/``+``) missing from every fragment
  are filled with minimal subtrees carrying fresh nulls.

For the Skolem-free class the construction is complete: a canonical
solution exists iff any solution does (rigid merges are forced in every
solution, starred copies are the freest choice), and the result is
returned with its null values resolved.  On value conflicts
:func:`canonical_solution` returns None — the source tree has no solution
at all.  The answer is exact whatever the solution's size, which is what
lets the bounded CONS/ABSCONS searches decide each source tree without
enumerating targets.

Source conditions (``=``/``≠`` between source variables and constants)
are allowed: for a fixed source tree they only decide which source
matches fire, and :func:`~repro.mappings.membership.triggered_requirements`
evaluates them before any fragment is built.  Target conditions are not:
a ``≠`` between target values can forbid the merges the construction
relies on.  :func:`ground_nulls` gives a canonical tree plain fresh
values in place of its unresolved nulls; with no target conditions any
values would do, since positive patterns survive every homomorphism.

Skolem targets (e.g. composed mappings from Theorem 8.2) are supported:
each application ``f(values)`` grounds to the labelled null
``Null((f, values))``, realizing the same-arguments-same-null semantics,
and nulls may collapse onto constants during rigid merges.  Soundness is
unchanged (results are verified solutions); completeness can be lost only
in exotic nested-term cases where resolving an inner application onto a
constant would have unlocked an outer merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fragment import canonical_violation, require
from repro.errors import SignatureError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import triggered_requirements
from repro.patterns.ast import Pattern, Sequence
from repro.values import Const, Null, SkolemTerm, Var, substitute
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


@dataclass
class _Fragment:
    """A ground tree-shaped requirement (values are constants or nulls)."""

    label: str
    attrs: tuple | None  # None: unconstrained (filled with fresh nulls later)
    children: list["_Fragment"] = field(default_factory=list)

    def freeze(self) -> tuple:
        return (
            self.label,
            self.attrs,
            tuple(child.freeze() for child in self.children),
        )


class _NullUnifier:
    """Union-find over values where nulls may collapse to constants."""

    def __init__(self):
        self._parent: dict = {}

    def _find(self, value):
        self._parent.setdefault(value, value)
        root = value
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[value] != root:
            self._parent[value], value = root, self._parent[value]
        return root

    def unify(self, left, right) -> bool:
        left_root, right_root = self._find(left), self._find(right)
        if left_root == right_root:
            return True
        left_null = isinstance(left_root, Null)
        right_null = isinstance(right_root, Null)
        if not left_null and not right_null:
            return False  # two distinct constants
        if left_null:
            self._parent[left_root] = right_root
        else:
            self._parent[right_root] = left_root
        return True

    def resolve(self, value):
        return self._find(value)


def decides_solutions(mapping: SchemaMapping) -> bool:
    """Is :func:`canonical_solution` an exact solution-existence test for
    every source tree of *mapping*?  The Skolem-free applicable class."""
    return (
        not mapping.uses_skolem_functions()
        and canonical_violation(mapping) is None
    )


def _ground_fragment(
    pattern: Pattern,
    values: dict[Var, object],
    null_factory,
) -> _Fragment:
    if pattern.vars is None:
        attrs = None
    else:
        resolved = []
        for term in pattern.vars:
            if isinstance(term, Const):
                resolved.append(term.value)
            elif isinstance(term, Var):
                resolved.append(values.get(term) if term in values else null_factory(term))
            elif isinstance(term, SkolemTerm):
                # Skolem semantics: the same application yields the same
                # labelled null everywhere (repro.values.substitute); nulls
                # may later collapse onto constants during rigid merges
                resolved.append(substitute(term, values))
            else:
                raise SignatureError(f"unexpected term {term!r} in target pattern")
        attrs = tuple(resolved)
    fragment = _Fragment(pattern.label, attrs)
    for item in pattern.items:
        assert isinstance(item, Sequence) and len(item.elements) == 1
        fragment.children.append(
            _ground_fragment(item.elements[0], values, null_factory)
        )
    return fragment


def _merge_attrs(
    fragments: list[_Fragment], label: str, dtd: DTD, unifier: _NullUnifier
) -> tuple | None:
    """Unify the attribute tuples of fragments merging into one node."""
    arity = dtd.arity(label)
    merged: list = [None] * arity
    for fragment in fragments:
        if fragment.attrs is None:
            continue
        if len(fragment.attrs) != arity:
            return None
        for index, value in enumerate(fragment.attrs):
            if merged[index] is None:
                merged[index] = value
            elif not unifier.unify(merged[index], value):
                return None
    return tuple(merged)


def _build(
    label: str,
    fragments: list[_Fragment],
    dtd: DTD,
    unifier: _NullUnifier,
    fresh_null,
) -> TreeNode | None:
    attrs = _merge_attrs(fragments, label, dtd, unifier)
    if attrs is None:
        return None
    resolved_attrs = tuple(
        value if value is not None else fresh_null() for value in attrs
    )
    children: list[TreeNode] = []
    by_label: dict[str, list[_Fragment]] = {}
    for fragment in fragments:
        for child in fragment.children:
            by_label.setdefault(child.label, []).append(child)
    for child_label, multiplicity in dtd.nested_relational_children(label):
        provided = by_label.pop(child_label, [])
        if multiplicity in ("1", "?"):
            if provided:
                built = _build(child_label, provided, dtd, unifier, fresh_null)
                if built is None:
                    return None
                children.append(built)
            elif multiplicity == "1":
                built = _build(child_label, [], dtd, unifier, fresh_null)
                if built is None:
                    return None
                children.append(built)
        else:  # * or +
            distinct: dict[tuple, _Fragment] = {}
            for fragment in provided:
                distinct.setdefault(fragment.freeze(), fragment)
            for fragment in distinct.values():
                built = _build(child_label, [fragment], dtd, unifier, fresh_null)
                if built is None:
                    return None
                children.append(built)
            if multiplicity == "+" and not provided:
                built = _build(child_label, [], dtd, unifier, fresh_null)
                if built is None:
                    return None
                children.append(built)
    if by_label:
        return None  # fragment child label outside the production
    return TreeNode(label, resolved_attrs, children)


def canonical_solution(
    mapping: SchemaMapping, source_tree: TreeNode
) -> TreeNode | None:
    """The canonical solution for *source_tree*, or None if none exists.

    Requires fully-specified stds and a nested-relational target DTD; see
    the module docstring for the construction and its completeness.
    """
    require(canonical_violation(mapping))
    return canonical_for_requirements(mapping, triggered_requirements(mapping, source_tree))


def canonical_for_requirements(mapping: SchemaMapping, requirements: list) -> TreeNode | None:
    """:func:`canonical_solution` of a source that fires *requirements*
    (its :func:`~repro.mappings.membership.triggered_requirements`)."""
    root_label = mapping.target_dtd.root
    fragments: list[_Fragment] = []
    counter = [0]

    def fresh_null() -> Null:
        counter[0] += 1
        return Null(("fresh", counter[0]))

    for index, (std, exported) in enumerate(requirements):
        if std.target.label != root_label:
            return None  # a triggered requirement can never be satisfied
        export_key = tuple(sorted(((v.name, value) for v, value in exported.items()),
                                  key=repr))

        def null_for(var: Var, index=index, export_key=export_key) -> Null:
            return Null((index, export_key, var.name))

        fragments.append(_ground_fragment(std.target, exported, null_for))
    unifier = _NullUnifier()
    tree = _build(root_label, fragments, mapping.target_dtd, unifier, fresh_null)
    if tree is None:
        return None
    return tree.map_values(unifier.resolve)


def ground_nulls(tree: TreeNode, taken: frozenset) -> TreeNode:
    """*tree* with each distinct :class:`~repro.values.Null` replaced by a
    fresh plain value ``#n<i>`` outside *taken*, numbered in document order."""
    names: dict[Null, str] = {}
    counter = [0]

    def fresh(value):
        if not isinstance(value, Null):
            return value
        name = names.get(value)
        while name is None:
            candidate = f"#n{counter[0]}"
            counter[0] += 1
            if candidate not in taken:
                name = names[value] = candidate
        return name

    return tree.map_values(fresh)
