"""Absolute consistency: does *every* source tree have a solution? (Section 6)

Three procedures, mirroring the paper's results:

* :func:`is_absolutely_consistent_sm0` — exact for ``SM°`` mappings
  (no attribute values anywhere; Proposition 6.1, Pi_2^p).  With values
  erased, a tree's trigger set is purely structural, so the question is:
  for every achievable source trigger set ``S`` there must be an
  achievable target satisfaction set ``B ⊇ S``.  Both families of sets
  come from the closure automata of Section 5's machinery.

* :func:`is_absolutely_consistent_ptime` — exact for nested-relational
  DTDs + fully-specified stds (Theorem 6.3, PTIME).  The paper notes that
  value *counting* is what makes the general problem hard; in this class
  the counting collapses to a **rigidity analysis**:

  - a position (label path + attribute slot) is *rigid* when every step
    of the path has multiplicity ``1``/``?`` — a conforming tree has at
    most one node there, so its value is global;
  - a source position under a ``*``/``+`` step is *repeatable*: one tree
    can export two distinct values through it;
  - every rigid *target* cell written by an std must receive a globally
    unique value, so the mapping is absolutely consistent iff no rigid
    target class (closing under same-trigger existential-variable chains
    and shared rigid target cells) receives either a repeatable source
    cell or two source cells that are not forced equal (i.e. not the same
    rigid source position) — plus the structural condition that every
    triggerable std has a target embeddable in ``D_t``.

* :func:`abscons_counterexample` — the general case (Theorem 6.2 proves
  decidability in EXPSPACE; the paper's counting construction is not
  given — DESIGN.md, substitution 1).  Source trees up to the source
  bound are tried up to renaming of their non-constant values, and each
  is decided *exactly* by :func:`~repro.consistency.bounded.decide_source`:
  the canonical solution where it is complete, else joint satisfiability
  of the source's grounded obligations under the target DTD (the
  Lemma 4.1 automata).  A refutation is therefore never a product of a
  target bound.  Only target conditions or Skolem terms leave a source
  undecided; the first such source is named in the ``Unknown``'s reason,
  never refuted.

Every decision entry point returns an
:class:`~repro.engine.verdicts.Verdict`; the witness extractors
(:func:`sm0_counterexample`, :func:`abscons_counterexample`) stay raw for
the certificate re-checker.
"""

from __future__ import annotations

from repro.automata.dtd_automaton import decorate
from repro.consistency.cons_nested import embedder_for
from repro.engine.budget import ExecutionContext, resolve_budget
from repro.engine.cache import dtd_digest, trigger_tables
from repro.engine.verdicts import (
    AnalysisCertificate,
    Counterexample,
    Proved,
    Refuted,
    RigidityExplanation,
    Unknown,
    Verdict,
)
from repro.errors import BoundExceededError, SignatureError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.std import STD
from repro.patterns.ast import Pattern, Sequence
from repro.values import Var
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


# ---------------------------------------------------------------------------
# Proposition 6.1: SM° mappings
# ---------------------------------------------------------------------------


def _check_sm0(mapping: SchemaMapping) -> None:
    for std in mapping.stds:
        if std.source_conditions or std.target_conditions:
            raise SignatureError("SM° mappings have no comparison formulae")
        for pattern in (std.source, std.target):
            if any(sub.vars is not None for sub in pattern.subpatterns()):
                raise SignatureError(
                    "SM° mappings mention no attributes; call .strip_values()"
                )


def is_absolutely_consistent_sm0(
    mapping: SchemaMapping, context: ExecutionContext | None = None
) -> Verdict:
    """Exact ``ABSCONS°(⇓,⇒)`` decision for value-free mappings.

    ``Refuted`` carries a conforming source tree with no solution.
    """
    _check_sm0(mapping)
    source_sets, target_sets = trigger_tables(mapping, context)
    maximal_targets = [
        satisfied
        for satisfied in target_sets
        if not any(satisfied < other for other in target_sets)
    ]
    for triggered, witness in source_sets.items():
        if not any(triggered <= satisfied for satisfied in maximal_targets):
            return Refuted(
                Counterexample(decorate(mapping.source_dtd, witness))
            )
    return Proved(
        AnalysisCertificate(
            "abscons-sm0",
            "every achievable source trigger set is covered by an "
            "achievable target satisfaction set",
        )
    )


def sm0_counterexample(
    mapping: SchemaMapping, context: ExecutionContext | None = None
) -> TreeNode | None:
    """A source tree (values erased) with no solution, for SM° mappings."""
    _check_sm0(mapping)
    source_sets, target_sets = trigger_tables(mapping, context)
    for triggered, witness in source_sets.items():
        if not any(triggered <= satisfied for satisfied in target_sets):
            return decorate(mapping.source_dtd, witness)
    return None


# ---------------------------------------------------------------------------
# Theorem 6.3: nested-relational DTDs + fully-specified stds (PTIME)
# ---------------------------------------------------------------------------


def _check_ptime_class(mapping: SchemaMapping) -> None:
    if mapping.uses_data_comparisons():
        raise SignatureError("the PTIME ABSCONS algorithm handles SM(↓) without ∼")
    if not mapping.is_fully_specified():
        raise SignatureError("stds must be fully specified (Theorem 6.3)")
    if not mapping.is_nested_relational():
        raise SignatureError("both DTDs must be nested-relational (Theorem 6.3)")
    from repro.analysis.fragment import uses_constants

    if uses_constants(mapping):
        raise SignatureError("constants are outside SM(↓)")


def _std_cells(std: STD, side: str, dtd: DTD) -> tuple:
    """:func:`_pattern_cells` of one side of *std*, memoized on the std."""
    pattern = std.source if side == "source" else std.target
    return std._memo(
        f"cells-{side}",
        lambda: tuple(_pattern_cells(pattern, dtd)),
        key=dtd_digest(dtd),
    )


def _pattern_cells(pattern: Pattern, dtd: DTD):
    """Yield ``(path, slot, term, rigid, repeatable)`` for every attribute term.

    *path* is the label path from the pattern root; *rigid* means every
    step below the root has multiplicity 1/?; *repeatable* means some step
    has multiplicity */+.  Fully-specified patterns only (single-element
    sequences, no wildcard), so paths are concrete.
    """
    multiplicity_of = dtd.multiplicities()

    def walk(node: Pattern, path: tuple[str, ...], rigid: bool, repeatable: bool):
        if node.vars is not None:
            for slot, term in enumerate(node.vars):
                yield (path, slot, term, rigid, repeatable)
        for item in node.items:
            assert isinstance(item, Sequence) and len(item.elements) == 1
            (child,) = item.elements
            step = multiplicity_of.get(path[-1], {}).get(child.label)
            starred = step in ("*", "+")
            yield from walk(
                child,
                path + (child.label,),
                rigid and not starred,
                repeatable or starred,
            )

    yield from walk(pattern, (pattern.label,), True, False)


class _UnionFind:
    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        self._parent.setdefault(x, x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y):
        self._parent[self.find(x)] = self.find(y)


def abscons_ptime_analysis(mapping: SchemaMapping) -> list[str]:
    """The Theorem 6.3 rigidity analysis, with explanations.

    Returns the list of problems found (empty = absolutely consistent);
    each entry is a human-readable reason a source document can be built
    that has no solution.  :func:`is_absolutely_consistent_ptime` is the
    Verdict view.
    """
    _check_ptime_class(mapping)
    source_embedder = embedder_for(mapping.source_dtd)
    target_embedder = embedder_for(mapping.target_dtd)
    union_find = _UnionFind()
    problems: list[str] = []
    # class annotations: root -> set of source-cell identities
    writers: dict[object, set] = {}
    repeatable_identities: set = set()
    identity_origin: dict[object, str] = {}

    live_stds: list[STD] = []
    for std in mapping.stds:
        if std.source.label != mapping.source_dtd.root:
            continue
        if not source_embedder.embeddable(std.source, mapping.source_dtd.root):
            continue  # never triggers
        if std.target.label != mapping.target_dtd.root or not target_embedder.embeddable(
            std.target, mapping.target_dtd.root
        ):
            problems.append(
                f"std `{std}` can be triggered, but its target pattern does "
                f"not embed into the target DTD"
            )
            continue
        live_stds.append(std)

    def pretty(path: tuple, slot: int) -> str:
        return "/".join(path) + f"@{slot}"

    for index, std in enumerate(live_stds):
        # where does each (necessarily unique) source variable live?
        source_home: dict[Var, tuple] = {}
        for path, slot, term, rigid, repeatable in _std_cells(
            std, "source", mapping.source_dtd
        ):
            assert isinstance(term, Var)
            if rigid and not repeatable:
                identity = ("spos", path, slot)  # globally unique cell
            else:
                identity = ("cell", index, path, slot)
            source_home[term] = (identity, repeatable)
            identity_origin[identity] = (
                f"variable {term.name} of std #{index + 1} "
                f"(source position {pretty(path, slot)})"
            )
        shared = set(std.shared_variables())
        for path, slot, term, rigid, repeatable in _std_cells(
            std, "target", mapping.target_dtd
        ):
            if not rigid:
                continue  # flexible positions absorb anything
            cell = ("tpos", path, slot)
            identity_origin.setdefault(
                cell, f"rigid target position {pretty(path, slot)}"
            )
            assert isinstance(term, Var)
            if term in shared:
                identity, source_repeatable = source_home[term]
                union_find.union(cell, identity)
                new_root = union_find.find(cell)
                writers.setdefault(new_root, set()).add(identity)
                if source_repeatable:
                    repeatable_identities.add(identity)
            else:
                union_find.union(cell, ("ez", index, term))

    # normalize annotations to final roots
    final_writers: dict[object, set] = {}
    for root, cells in writers.items():
        final_writers.setdefault(union_find.find(root), set()).update(cells)
    for root, cells in final_writers.items():
        if len(cells) > 1:
            origins = sorted(identity_origin.get(c, str(c)) for c in cells)
            problems.append(
                "a rigid target position receives values from independent "
                "sources that one document can make distinct: "
                + "; ".join(origins)
            )
            continue
        (cell,) = cells
        if cell in repeatable_identities:
            problems.append(
                "a rigid target position (one node in every solution) is "
                "written from a repeatable source position that one document "
                "can fill with two distinct values: "
                + identity_origin.get(cell, str(cell))
            )
    return problems


def is_absolutely_consistent_ptime(mapping: SchemaMapping) -> Verdict:
    """Exact PTIME decision of ``ABSCONS(↓)`` for the Theorem 6.3 class."""
    problems = abscons_ptime_analysis(mapping)
    if problems:
        return Refuted(RigidityExplanation(tuple(problems)))
    return Proved(
        AnalysisCertificate(
            "abscons-ptime",
            "the rigidity analysis found no over-constrained rigid target class",
        )
    )


# ---------------------------------------------------------------------------
# Theorem 6.2 (general case): bounded sources, each decided exactly
# ---------------------------------------------------------------------------


def abscons_counterexample(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    value_domain: tuple | None = None,
    context: ExecutionContext | None = None,
) -> TreeNode | None:
    """The first source tree within the source bound that has no solution
    at all, or None.

    Sources are tried up to renaming and each is decided exactly
    (:func:`~repro.consistency.bounded.decide_source`), so a returned
    tree is a genuine counterexample; None means absolute consistency
    holds as far as the source bound can see.  The source bound defaults
    to the context's :class:`~repro.engine.budget.Budget`; no target
    bound enters.
    """
    from repro.consistency.bounded import decided_sources, default_value_domain

    if max_source_size is None:
        max_source_size = resolve_budget(context).max_source_size
    if value_domain is None:
        value_domain = default_value_domain(mapping)
    sources = decided_sources(mapping, max_source_size, value_domain, context)
    return next(
        (source for source, decided, solution in sources if decided and solution is None),
        None,
    )


def decide_absolute_consistency(
    mapping: SchemaMapping,
    context: ExecutionContext | None = None,
) -> tuple[Verdict, str]:
    """Run the strongest applicable ABSCONS procedure.

    Returns ``(verdict, algorithm)`` so the engine's solve report can
    record which route decided (or gave up on) the instance.
    """
    from repro.analysis.fragment import is_sm0

    if is_sm0(mapping):
        return is_absolutely_consistent_sm0(mapping, context), "abscons-sm0"
    try:
        return is_absolutely_consistent_ptime(mapping), "abscons-ptime"
    except SignatureError:
        pass
    # exact fallback for wildcard/descendant *sources* via expansion
    from repro.consistency.expansion import is_absolutely_consistent_expanded

    try:
        return is_absolutely_consistent_expanded(mapping), "abscons-expansion"
    except (SignatureError, BoundExceededError):
        pass
    from repro.consistency.bounded import decided_sources, default_value_domain

    max_source_size = resolve_budget(context).max_source_size
    undecided = None
    for source, decided, solution in decided_sources(
        mapping, max_source_size, default_value_domain(mapping), context
    ):
        if decided and solution is None:
            return Refuted(Counterexample(source)), "abscons-bounded"
        if not decided and undecided is None:
            undecided = source
    if undecided is not None:
        reason = (
            f"no source tree of at most {max_source_size} nodes is refuted "
            f"exactly; {undecided!r} is left undecided, since target "
            "conditions or Skolem terms put its solutions outside the exact "
            "tests, and a target search bounded by max_target_size never "
            "refutes"
        )
    else:
        reason = (
            "no counterexample within the bounds; the general ABSCONS "
            "algorithm (EXPSPACE, Theorem 6.2) is approximated by bounded "
            f"refutation only (source bound {max_source_size})"
        )
    return Unknown(reason, bound_exhausted=True), "abscons-bounded"


def is_absolutely_consistent(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    context: ExecutionContext | None = None,
) -> Verdict:
    """Dispatch to the strongest applicable ABSCONS procedure.

    Exact for SM° mappings and for the Theorem 6.3 class (with or without
    source expansion); otherwise source trees up to the source bound are
    each decided exactly (:func:`abscons_counterexample`) and finding no
    counterexample yields ``Unknown`` with ``bound_exhausted=True`` (the
    honest outcome for a problem whose general algorithm is EXPSPACE with
    an unpublished construction).
    """
    from repro.engine.budget import Budget

    if max_source_size is not None:
        budget = context.budget if context is not None else Budget.default()
        context = ExecutionContext(
            budget.with_(max_source_size=max_source_size),
            cache=context.cache if context is not None else None,
        )
    verdict, _ = decide_absolute_consistency(mapping, context)
    return verdict
