"""Syntactic composition for the closed class (Theorem 8.2).

Given ``M12`` and ``M23`` — Skolem mappings over strictly
nested-relational DTDs with fully-specified stds and equality only — this
module produces ``M13`` with ``[[M13]] = [[M12]] ∘ [[M23]]``, following
the relational recipe of Fagin, Kolaitis, Popa and Tan [17] lifted to
nested trees:

1. **Skolemize** ``Sigma12``: every existential target variable ``z``
   becomes a fresh term ``f_z(source variables)``, so the canonical middle
   tree is entirely described by terms over ``T1``'s values.

2. **Chase** each ``sigma23`` source pattern into that symbolic middle.
   Strict nesting gives the middle a rigid/starred dichotomy:

   - nodes on *rigid* label paths (every step of multiplicity ``1``/``?``)
     are unique in any middle tree and carry no attributes (strictness),
     so all copies of all requirements share them;
   - below the first ``*`` step everything is starred, so each maximal
     starred subtree of ``pi23`` must embed into a single requirement
     instance (*copy*) of some Skolemized ``sigma12`` target.

   Enumerating, per starred component, the choice of std and the
   embedding of the component into its target pattern — plus a support
   check that every ``?``-step on a rigid path is forced to exist by some
   chosen copy — yields the homomorphisms of the relational chase.

3. **Emit** one composed std per homomorphism: its source is the merge of
   the chosen copies' (renamed) source patterns; the unification of
   ``pi23``'s variables with the copies' terms instantiates ``pi'23`` and
   produces equality conditions — pure-variable ones become source
   conditions, Skolem-term ones become source *preconditions* in the
   SO-tgd style (the composed std only fires under function valuations
   that realize the merge).

Implementation restriction (documented in DESIGN.md): the middle DTD may
not use ``+`` — a ``+``-filler node would carry attributes whose values
exist in every middle tree without being introduced by any requirement,
which the std language cannot name.  (``*``, ``?`` and ``1`` are fully
supported; ``+`` in the outer DTDs is fine.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import NotInClassError, XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.skolem import SkolemMapping
from repro.mappings.std import STD, Comparison
from repro.patterns.ast import Pattern, Sequence
from repro.values import Const, SkolemTerm, Term, Var
from repro.xmlmodel.dtd import DTD


# ---------------------------------------------------------------------------
# pattern node indexing (fully-specified patterns are plain trees)
# ---------------------------------------------------------------------------


@dataclass
class PNode:
    """A positional node of a fully-specified pattern."""

    pattern: Pattern
    parent: "PNode | None"
    path: tuple[str, ...]
    children: list["PNode"] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.pattern.label

    @property
    def vars(self):
        return self.pattern.vars

    def subtree(self):
        yield self
        for child in self.children:
            yield from child.subtree()


def index_pattern(pattern: Pattern) -> PNode:
    """Build the positional tree of a fully-specified pattern."""

    def build(node: Pattern, parent: PNode | None, path: tuple[str, ...]) -> PNode:
        pnode = PNode(node, parent, path)
        for item in node.items:
            assert isinstance(item, Sequence) and len(item.elements) == 1
            (child,) = item.elements
            pnode.children.append(build(child, pnode, path + (child.label,)))
        return pnode

    return build(pattern, None, (pattern.label,))


# ---------------------------------------------------------------------------
# middle-DTD path classification
# ---------------------------------------------------------------------------


class _MiddleShape:
    """Rigidity / multiplicity facts about paths of the middle DTD, which
    :func:`~repro.analysis.fragment.composition_violation` has admitted."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self.multiplicity: dict[tuple[str, str], str] = {
            (label, child): mult
            for label, row in dtd.multiplicities().items()
            for child, mult in row.items()
        }

    def step_mult(self, parent: str, child: str) -> str:
        mult = self.multiplicity.get((parent, child))
        if mult is None:
            raise XsmError(f"no {child!r} child in the production of {parent!r}")
        return mult

    def is_starred(self, path: tuple[str, ...]) -> bool:
        """Does the path from the root pass through a ``*`` step?"""
        return any(
            self.step_mult(parent, child) == "*"
            for parent, child in zip(path, path[1:])
        )

    def optional_prefix(self, path: tuple[str, ...]) -> tuple[str, ...] | None:
        """The prefix of *path* up to its last ``?``-step, or None.

        A rigid path exists in every middle tree iff it has no ``?``-step;
        otherwise its existence is forced exactly when this prefix is
        covered by some requirement's path (the ``1``-steps after the last
        ``?`` then come for free).
        """
        last_optional = 0
        for index, (parent, child) in enumerate(zip(path, path[1:])):
            if self.step_mult(parent, child) == "?":
                last_optional = index + 2  # prefix length including this step
        if last_optional == 0:
            return None
        return path[:last_optional]


# ---------------------------------------------------------------------------
# term utilities
# ---------------------------------------------------------------------------


def _rename_term(term: Term, prefix: str) -> Term:
    if isinstance(term, Var):
        return Var(prefix + term.name)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(term.function, tuple(_rename_term(a, prefix) for a in term.args))
    return term


def _rename_pattern(pattern: Pattern, prefix: str) -> Pattern:
    def on_node(p: Pattern) -> Pattern:
        if p.vars is None:
            return p
        return Pattern(p.label, tuple(_rename_term(t, prefix) for t in p.vars), p.items)

    return pattern.map_patterns(on_node)


def _substitute_terms(pattern: Pattern, substitution: dict[Var, Term]) -> Pattern:
    """Replace variables by arbitrary terms throughout a pattern."""

    def on_term(term: Term) -> Term:
        if isinstance(term, Var):
            return substitution.get(term, term)
        if isinstance(term, SkolemTerm):
            return SkolemTerm(term.function, tuple(on_term(a) for a in term.args))
        return term

    def on_node(p: Pattern) -> Pattern:
        if p.vars is None:
            return p
        return Pattern(p.label, tuple(on_term(t) for t in p.vars), p.items)

    return pattern.map_patterns(on_node)


def _substitute_comparison(c: Comparison, substitution: dict[Var, Term]) -> Comparison:
    def on_term(term: Term) -> Term:
        if isinstance(term, Var):
            return substitution.get(term, term)
        if isinstance(term, SkolemTerm):
            return SkolemTerm(term.function, tuple(on_term(a) for a in term.args))
        return term

    return Comparison(on_term(c.left), c.op, on_term(c.right))


def _has_skolem(term: Term) -> bool:
    return isinstance(term, SkolemTerm)


# ---------------------------------------------------------------------------
# step 1: Skolemization
# ---------------------------------------------------------------------------


def skolemize(mapping: SkolemMapping, taken: set[str]) -> list[STD]:
    """Replace each target existential ``z`` by a fresh Skolem term."""
    result = []
    for index, std in enumerate(mapping.stds):
        source_vars = tuple(std.source_variables())
        substitution: dict[Var, Term] = {}
        for z in std.existential_variables():
            base = f"sk{index}_{z.name}"
            name = base
            counter = 0
            while name in taken:
                counter += 1
                name = f"{base}_{counter}"
            taken.add(name)
            substitution[z] = SkolemTerm(name, source_vars)
        result.append(
            STD(
                std.source,
                _substitute_terms(std.target, substitution),
                std.source_conditions,
                tuple(
                    _substitute_comparison(c, substitution)
                    for c in std.target_conditions
                ),
            )
        )
    return result


# ---------------------------------------------------------------------------
# step 2+3: chase and emission
# ---------------------------------------------------------------------------


class _FreshValues:
    """Implicit fresh values for middle attributes no requirement constrains.

    A requirement node written without attribute terms leaves its values
    unconstrained; canonically they are fresh per trigger, i.e. Skolem
    terms over the std's source variables.
    """

    def __init__(self, taken: set[str]):
        self._taken = taken
        self._cache: dict[tuple[int, int, int], str] = {}

    def term_for(
        self, std_index: int, node_id: int, slot: int, source_vars: tuple[Var, ...]
    ) -> SkolemTerm:
        key = (std_index, node_id, slot)
        name = self._cache.get(key)
        if name is None:
            base = f"fv{std_index}_{node_id}_{slot}"
            name = base
            counter = 0
            while name in self._taken:
                counter += 1
                name = f"{base}_{counter}"
            self._taken.add(name)
            self._cache[key] = name
        return SkolemTerm(name, source_vars)


@dataclass
class _Copy:
    """One requirement instance chosen by the chase."""

    std_index: int
    copy_id: int

    @property
    def prefix(self) -> str:
        return f"c{self.copy_id}_"


def _component_roots(root: PNode, shape: _MiddleShape) -> list[PNode]:
    """Roots of the maximal starred subtrees of an indexed pattern."""
    roots: list[PNode] = []

    def walk(node: PNode) -> None:
        if shape.is_starred(node.path):
            roots.append(node)  # everything below is starred too
            return
        for child in node.children:
            walk(child)

    walk(root)
    return roots


def _embeddings(q: PNode, u: PNode) -> list[dict]:
    """All structure-preserving maps of the subtree at *q* into *u*'s subtree."""
    if q.label != u.label:
        return []
    if (
        q.vars is not None
        and u.vars is not None
        and len(q.vars) != len(u.vars)
    ):
        return []
    partial_maps: list[dict] = [{id(q): (q, u)}]
    for qc in q.children:
        options = [uc for uc in u.children if uc.label == qc.label]
        extended: list[dict] = []
        for option in options:
            for sub in _embeddings(qc, option):
                for base in partial_maps:
                    extended.append({**base, **sub})
        partial_maps = extended
        if not partial_maps:
            return []
    return partial_maps


def compose(m12: SkolemMapping, m23: SkolemMapping) -> SkolemMapping:
    """The composed mapping ``M13`` with ``[[M13]] = [[M12]] ∘ [[M23]]``.

    Raises :class:`~repro.errors.NotInClassError` outside the class of
    :func:`~repro.analysis.fragment.composition_violation`.
    """
    from repro.analysis.fragment import composition_violation, require

    require(composition_violation(m12, m23), NotInClassError)
    shape = _MiddleShape(m12.target_dtd)
    taken = {
        name
        for mapping in (m12, m23)
        for std in mapping.stds
        for name in std.skolem_functions()
    }
    sigma12 = skolemize(m12, taken)
    fresh_values = _FreshValues(taken)
    # index the Skolemized targets once; remember node ids for fresh values
    indexed_targets = [index_pattern(std.target) for std in sigma12]
    target_paths = [
        {node.path for node in root.subtree()} for root in indexed_targets
    ]

    composed: dict[str, STD] = {}
    for sigma23 in m23.stds:
        source_root = index_pattern(sigma23.source)
        if sigma23.source.label != m12.target_dtd.root:
            continue  # never matches a middle tree
        # rigid nodes must be attribute-free in a strictly nested-relational DTD
        rigid_ok = all(
            shape.is_starred(node.path) or not node.vars
            for node in source_root.subtree()
        )
        if not rigid_ok:
            continue  # source pattern unsatisfiable against the middle DTD
        components = _component_roots(source_root, shape)
        # per component: all (std_index, embedding) choices
        per_component: list[list[tuple[int, dict]]] = []
        for component in components:
            choices: list[tuple[int, dict]] = []
            for std_index, target_root in enumerate(indexed_targets):
                if sigma12[std_index].source.label != m12.source_dtd.root:
                    continue  # this requirement can never fire
                for u in target_root.subtree():
                    if u.path != component.path:
                        continue
                    for embedding in _embeddings(component, u):
                        choices.append((std_index, embedding))
            per_component.append(choices)
        for selection in itertools.product(*per_component):
            # rigid ?-paths of pi23 must be forced to exist: collect the
            # optional prefixes not covered by the selected copies and
            # enumerate additional *support copies* that cover them
            covered: set = set()
            for std_index, __ in selection:
                covered.update(target_paths[std_index])
            needed: list[tuple[str, ...]] = []
            for node in source_root.subtree():
                if shape.is_starred(node.path):
                    continue
                prefix = shape.optional_prefix(node.path)
                if prefix is None or prefix in needed:
                    continue
                if not any(p[: len(prefix)] == prefix for p in covered):
                    needed.append(prefix)
            support_options: list[list[int]] = []
            for prefix in needed:
                candidates = [
                    std_index
                    for std_index in range(len(sigma12))
                    if sigma12[std_index].source.label == m12.source_dtd.root
                    and any(
                        p[: len(prefix)] == prefix for p in target_paths[std_index]
                    )
                ]
                support_options.append(candidates)
            for support in itertools.product(*support_options):
                std13 = _emit(
                    m12,
                    sigma12,
                    sigma23,
                    source_root,
                    selection,
                    tuple(support),
                    shape,
                    target_paths,
                    fresh_values,
                    indexed_targets,
                )
                if std13 is not None:
                    composed.setdefault(str(std13), std13)
    return SkolemMapping(m12.source_dtd, m23.target_dtd, list(composed.values()))


def compose_as_skolem(m12: SchemaMapping, m23: SchemaMapping) -> SkolemMapping:
    """``compose`` of two mappings read as Skolem mappings: the one
    Theorem 8.2 composition step of exact composition membership and of
    its certificate re-check."""
    return compose(
        SkolemMapping(m12.source_dtd, m12.target_dtd, m12.stds),
        SkolemMapping(m23.source_dtd, m23.target_dtd, m23.stds),
    )


def _emit(
    m12: SkolemMapping,
    sigma12: list[STD],
    sigma23: STD,
    source_root: PNode,
    selection: tuple[tuple[int, dict], ...],
    support: tuple[int, ...],
    shape: _MiddleShape,
    target_paths: list[set],
    fresh_values: _FreshValues,
    indexed_targets: list[PNode],
) -> STD | None:
    """Build one composed std from a chase homomorphism, or None if invalid."""
    copies = [
        _Copy(std_index, copy_id) for copy_id, (std_index, __) in enumerate(selection)
    ]
    support_copies = [
        _Copy(std_index, len(copies) + offset)
        for offset, std_index in enumerate(support)
    ]

    # unify sigma23 variables with copy terms
    theta: dict[Var, Term] = {}
    source_conditions: list[Comparison] = []
    precondition_equalities: list[Comparison] = []

    def emit_equality(left: Term, right: Term) -> bool:
        if left == right:
            return True
        if (
            isinstance(left, Const)
            and isinstance(right, Const)
            and left.value != right.value
        ):
            return False
        comparison = Comparison(left, "=", right)
        if _has_skolem(left) or _has_skolem(right):
            precondition_equalities.append(comparison)
        else:
            source_conditions.append(comparison)
        return True

    node_ids = {}
    for std_index, target_root in enumerate(indexed_targets):
        for node_id, node in enumerate(target_root.subtree()):
            node_ids[id(node)] = node_id

    for copy, (std_index, embedding) in zip(copies, selection):
        source_vars = tuple(
            Var(copy.prefix + v.name) for v in sigma12[std_index].source_variables()
        )
        for q, u in embedding.values():
            if q.vars is None:
                continue
            for slot, term in enumerate(q.vars):
                if u.vars is not None:
                    middle_term = _rename_term(u.vars[slot], copy.prefix)
                else:
                    middle_term = SkolemTerm(
                        fresh_values.term_for(
                            std_index, node_ids[id(u)], slot,
                            sigma12[std_index].source_variables(),
                        ).function,
                        source_vars,
                    )
                if isinstance(term, Const):
                    if not emit_equality(term, middle_term):
                        return None
                else:
                    assert isinstance(term, Var)
                    if term in theta:
                        if not emit_equality(theta[term], middle_term):
                            return None
                    else:
                        theta[term] = middle_term

    # sigma23's own source conditions, translated through theta
    for condition in sigma23.source_conditions:
        translated = _substitute_comparison(condition, theta)
        if any(
            isinstance(t, Var) and t in set(sigma23.source_variables())
            for t in (translated.left, translated.right)
        ):
            return None  # a condition variable was never bound by the chase
        if not emit_equality(translated.left, translated.right):
            return None

    # merged source pattern: all copies' (renamed) sigma12 sources
    items: list = []
    copy_source_conditions: list[Comparison] = []
    all_copies = list(zip(copies, (i for i, __ in selection))) + list(
        zip(support_copies, support)
    )
    for copy, std_index in all_copies:
        renamed = _rename_pattern(sigma12[std_index].source, copy.prefix)
        items.extend(renamed.items)
        copy_source_conditions.extend(
            Comparison(
                _rename_term(c.left, copy.prefix),
                c.op,
                _rename_term(c.right, copy.prefix),
            )
            for c in sigma12[std_index].source_conditions
        )
    source_pattern = Pattern(m12.source_dtd.root, None, tuple(items))

    # target: sigma23's target with theta applied; existentials renamed apart
    existential_renaming = {
        z: Var("e23_" + z.name) for z in sigma23.existential_variables()
    }
    target_pattern = _substitute_terms(
        sigma23.target.rename_variables(existential_renaming), theta
    )
    target_conditions = tuple(
        _substitute_comparison(
            _substitute_comparison(
                c,
                {k: v for k, v in existential_renaming.items()},
            ),
            theta,
        )
        for c in sigma23.target_conditions
    )
    return STD(
        source_pattern,
        target_pattern,
        tuple(copy_source_conditions + source_conditions + precondition_equalities),
        target_conditions,
    )


def composition_agrees_on(
    m12: SkolemMapping,
    m23: SkolemMapping,
    source_tree,
    final_tree,
    max_mid_size: int | None = None,
) -> bool:
    """Spot-check Theorem 8.2 on one pair of trees.

    ``compose(m12, m23)`` must accept ``(T1, T3)`` exactly when some
    bounded intermediate tree witnesses direct composition membership.
    Both sides run through the pattern engine (the composed side via the
    Skolem membership checker, the direct side via the per-middle
    semi-join checks), so this doubles as an end-to-end engine test; the
    randomized suites call it on enumerated tree pairs.
    """
    from repro.composition.semantics import composition_contains
    from repro.mappings.skolem import is_skolem_solution

    composed = compose(m12, m23)
    via_composed = is_skolem_solution(composed, source_tree, final_tree)
    via_search = composition_contains(
        m12, m23, source_tree, final_tree, max_mid_size=max_mid_size
    )
    # the bounded search reports Unknown (not Refuted) past its bound;
    # within these spot-check instances that means "no middle": not proved
    return via_composed.is_proved == via_search.is_proved
