"""The linter's analysis passes.

Each pass is a pure function ``(mapping, context) -> list[Diagnostic]``
over a :class:`~repro.mappings.mapping.SchemaMapping`:

* :func:`fragment_pass` — ``SM0xx``: the ``SM(σ)`` fragment and the
  predicted Figure 1–2 cell per problem kind (via
  :mod:`repro.analysis.fragment`, the same predicates the engine routes
  with);
* :func:`dtd_pass` — ``SM1xx``: nested-relational / strictly
  nested-relational / recursion classification and DTD satisfiability;
* :func:`hygiene_pass` — ``SM2xx``: trivial inconsistencies (labels
  outside the alphabet, arity mismatches, root conflicts), dead stds
  (source pattern unsatisfiable under the source DTD), unsafe stds
  (target pattern unsatisfiable under the target DTD), and variable
  hygiene (unused and unbound variables, statically false comparisons);
* :func:`composition_pass` — ``SM3xx``: the Theorem 8.2 closure
  preconditions, with one diagnostic per broken one.

Passes never run a decision procedure over the *mapping*; the only
automata work is per-pattern satisfiability (Lemma 4.1), which is what
makes lint orders of magnitude cheaper than ``solve`` (see
``benchmarks/bench_lint.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator

from repro.analysis import fragment as frag
from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation
from repro.engine.cache import dtd_classification
from repro.errors import BoundExceededError
from repro.mappings.std import STD, Comparison
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.patterns.features import axes_of
from repro.values import Const, SkolemTerm, Var

if TYPE_CHECKING:
    from repro.engine.budget import ExecutionContext
    from repro.mappings.mapping import SchemaMapping
    from repro.xmlmodel.dtd import DTD
    from repro.xmlmodel.tree import TreeNode


# ---------------------------------------------------------------------------
# SM0xx: fragment classification and cell prediction
# ---------------------------------------------------------------------------

#: Diagnostic code per predicted problem kind.
_CELL_CODES = {"CONS": "SM002", "ABSCONS": "SM003", "MEMBERSHIP": "SM004"}


def fragment_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> tuple[Diagnostic, ...]:
    """``SM0xx``: fragment + predicted complexity cells (Figures 1–2).

    Memoized on the mapping: every solve of a mapping problem attaches
    these diagnostics to its report, and lint runs the pass again.
    """
    return mapping._memo(
        "_fragment_diagnostics", lambda: tuple(_fragment_pass(mapping, context))
    )


def _fragment_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None"
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    signature = mapping.signature()
    diagnostics.append(
        Diagnostic(
            "SM001", Severity.INFO,
            f"mapping is in the fragment {signature}",
            data=(("fragment", str(signature)),
                  ("features", tuple(sorted(signature.features)))),
        )
    )
    predictions = [
        frag.predict_consistency(mapping, context),
        frag.predict_abscons(mapping, context),
        frag.predict_membership(mapping),
    ]
    for prediction in predictions:
        diagnostics.append(
            Diagnostic(
                _CELL_CODES[prediction.problem], Severity.INFO,
                prediction.describe(),
                data=(("problem", prediction.problem),
                      ("algorithm", prediction.algorithm),
                      ("complexity", prediction.complexity),
                      ("exact", prediction.exact)),
            )
        )
    conscomp = frag.predict_composition_consistency((mapping,))
    composable = frag.in_composable_class(mapping)
    diagnostics.append(
        Diagnostic(
            "SM005", Severity.INFO,
            f"as a composition stage: {conscomp.describe()}; "
            + ("inside" if composable else "outside")
            + " the composition-closed class (Theorem 8.2)",
            data=(("algorithm", conscomp.algorithm),
                  ("exact", conscomp.exact),
                  ("composable", composable)),
        )
    )
    cons, abscons = predictions[0], predictions[1]
    if not cons.exact:
        diagnostics.append(
            Diagnostic(
                "SM010", Severity.WARNING,
                f"CONS for this fragment ({cons.fragment}) on these DTDs is "
                f"{cons.complexity}, and only the sound bounded witness "
                "search answers it here: a clean run proves nothing",
                data=(("algorithm", cons.algorithm),),
            )
        )
    if not abscons.exact:
        diagnostics.append(
            Diagnostic(
                "SM011", Severity.WARNING,
                "ABSCONS falls outside every exact class: bounded "
                "refutation only (the general EXPSPACE construction is "
                "unpublished)",
                data=(("algorithm", abscons.algorithm),),
            )
        )
    if not conscomp.exact:
        diagnostics.append(
            Diagnostic(
                "SM012", Severity.WARNING,
                "composition problems over this mapping leave the exact "
                "classes (comparisons/constants in the chain): bounded "
                "searches only",
                data=(("algorithm", conscomp.algorithm),),
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# SM1xx: DTD classification
# ---------------------------------------------------------------------------


def _describe_dtd(dtd: "DTD", context: "ExecutionContext | None") -> tuple[str, tuple]:
    classification = dtd_classification(dtd, context)
    facts = []
    if classification.strictly_nested_relational:
        facts.append("strictly nested-relational")
    elif classification.nested_relational:
        facts.append("nested-relational")
    else:
        facts.append("not nested-relational")
    facts.append("recursive" if classification.recursive else "non-recursive")
    data = (
        ("root", dtd.root),
        ("labels", len(dtd.labels)),
        ("nested_relational", classification.nested_relational),
        ("strictly_nested_relational", classification.strictly_nested_relational),
        ("recursive", classification.recursive),
    )
    return ", ".join(facts), data


def dtd_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> list[Diagnostic]:
    """``SM1xx``: DTD classification and satisfiability."""
    diagnostics: list[Diagnostic] = []
    sides = (
        ("source", mapping.source_dtd, "SM101", "SM110"),
        ("target", mapping.target_dtd, "SM102", "SM111"),
    )
    for side, dtd, info_code, unsat_code in sides:
        summary, data = _describe_dtd(dtd, context)
        diagnostics.append(
            Diagnostic(
                info_code, Severity.INFO,
                f"{side} DTD (root {dtd.root!r}): {summary}",
                SourceLocation(side=side),
                data=data,
            )
        )
        if not dtd.is_satisfiable():
            consequence = (
                "every std is dead and the mapping is vacuously consistent"
                if side == "source"
                else "no source tree can have a solution"
            )
            diagnostics.append(
                Diagnostic(
                    unsat_code, Severity.ERROR,
                    f"no tree conforms to the {side} DTD: {consequence}",
                    SourceLocation(side=side),
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# SM2xx: pattern hygiene
# ---------------------------------------------------------------------------


def _walk_with_paths(pattern: Pattern, prefix: str = "") -> Iterator[tuple[str, Pattern]]:
    """Yield ``(label-path, node)`` for every pattern node."""
    path = prefix + pattern.label
    yield path, pattern
    for item in pattern.items:
        if isinstance(item, Descendant):
            yield from _walk_with_paths(item.pattern, path + "//")
        else:
            assert isinstance(item, Sequence)
            for element in item.elements:
                yield from _walk_with_paths(element, path + "/")


def _structural_checks(
    std_index: int, side: str, pattern: Pattern, dtd: "DTD"
) -> list[Diagnostic]:
    """SM201/SM202/SM203 for one pattern against its DTD."""
    diagnostics: list[Diagnostic] = []
    if pattern.label != WILDCARD and pattern.label != dtd.root:
        diagnostics.append(
            Diagnostic(
                "SM203", Severity.ERROR,
                f"pattern root {pattern.label!r} is not the {side} DTD "
                f"root {dtd.root!r}: the pattern can never match",
                SourceLocation(std_index, side, pattern.label),
                data=(("label", pattern.label), ("root", dtd.root)),
            )
        )
    for path, node in _walk_with_paths(pattern):
        if node.label == WILDCARD:
            if node.vars is not None and not any(
                dtd.arity(label) == len(node.vars) for label in dtd.labels
            ):
                diagnostics.append(
                    Diagnostic(
                        "SM202", Severity.ERROR,
                        f"wildcard constrains {len(node.vars)} attribute(s) "
                        f"but no {side}-DTD label has that arity",
                        SourceLocation(std_index, side, path),
                        data=(("arity", len(node.vars)),),
                    )
                )
            continue
        if node.label not in dtd.labels:
            diagnostics.append(
                Diagnostic(
                    "SM201", Severity.ERROR,
                    f"label {node.label!r} does not occur in the {side} "
                    "DTD's alphabet",
                    SourceLocation(std_index, side, path),
                    data=(("label", node.label),),
                )
            )
            continue
        if node.vars is not None and len(node.vars) != dtd.arity(node.label):
            diagnostics.append(
                Diagnostic(
                    "SM202", Severity.ERROR,
                    f"{node.label!r} carries {dtd.arity(node.label)} "
                    f"attribute(s) in the {side} DTD, but the pattern "
                    f"constrains {len(node.vars)}",
                    SourceLocation(std_index, side, path),
                    data=(("label", node.label),
                          ("pattern_arity", len(node.vars)),
                          ("dtd_arity", dtd.arity(node.label))),
                )
            )
    return diagnostics


def satisfiability_pattern(pattern: Pattern) -> Pattern:
    """The pattern whose satisfiability we test.

    Skolem terms (legal on target sides) are outside Lemma 4.1; dropping
    *all* attribute terms keeps the check sound — if the stripped pattern
    is unsatisfiable, the original certainly is.
    """
    if any(isinstance(term, SkolemTerm) for term in pattern.terms()):
        return pattern.strip_values()
    return pattern


def _pattern_as_tree(dtd: "DTD", pattern: Pattern) -> "TreeNode | None":
    """The identity-embedding candidate witness, or None (wildcards).

    Laying the pattern out literally — sequence elements as adjacent
    siblings, a descendant as a direct child, constants as values and one
    fresh value everywhere else — yields a tree the pattern matches by
    construction.  It rarely conforms as it stands (required siblings
    are missing); :class:`_WitnessProbe` completes it.
    """
    from repro.patterns.satisfiability import FRESH
    from repro.xmlmodel.tree import TreeNode

    if pattern.label == WILDCARD:
        return None
    if pattern.vars is None:
        attrs = (FRESH,) * dtd.arity(pattern.label)
    else:
        attrs = tuple(
            term.value if isinstance(term, Const) else FRESH
            for term in pattern.vars
        )
    children = []
    for item in pattern.items:
        elements = (
            (item.pattern,) if isinstance(item, Descendant) else item.elements
        )
        for element in elements:
            child = _pattern_as_tree(dtd, element)
            if child is None:
                return None
            children.append(child)
    return TreeNode(pattern.label, attrs, tuple(children))


class _WitnessProbe:
    """Cheap satisfiability witnesses under one DTD, shared across a hygiene pass.

    :meth:`certify` is sound one-way: True means a witness was found,
    False means nothing — the exact automata check still has the last
    word.  The witness is the identity-embedding candidate of
    :func:`_pattern_as_tree`: as it stands if it conforms, and otherwise
    *completed* to a conforming tree.  At each node the candidate's
    children are placed in order into the cheapest word of the
    production that contains them
    (:meth:`~repro.xmlmodel.dtd.DTD._cheapest_word`), and every other
    position gets a minimal subtree; words and fillers are memoized for
    the next std.  The completion keeps the identity embedding, and with
    it the match, unless the pattern has a ``next`` connector — a filler
    between two adjacent siblings breaks it — so only then is the match
    re-checked.  Patterns with wildcards, and candidates no production
    can complete, go straight to the exact check.  This is what keeps the
    linter cheaper than solving: most stds have such a witness, and only
    genuinely dead (or oddly shaped) patterns pay for automata.
    """

    def __init__(self, dtd: "DTD") -> None:
        self.dtd = dtd
        self._costs: "dict[str, float] | None" = None
        self._words: "dict[tuple, tuple[str, ...] | None]" = {}
        self._fillers: "dict[str, TreeNode]" = {}

    def certify(self, pattern: Pattern) -> bool:
        from repro.patterns.matching import matches_at_root

        candidate = _pattern_as_tree(self.dtd, pattern)
        if candidate is None:
            return False
        if self.dtd.conforms(candidate):
            return True
        if self._costs is None:
            self._costs = self.dtd.label_costs()
        tree = self._complete(candidate)
        if tree is None or not self.dtd.conforms(tree):
            return False
        return not axes_of(pattern).next_sibling or matches_at_root(pattern, tree)

    def _complete(self, node: "TreeNode") -> "TreeNode | None":
        from repro.xmlmodel.tree import TreeNode

        if node.label not in self.dtd.productions:
            return None
        children = []
        for child in node.children:
            completed = self._complete(child)
            if completed is None:
                return None
            children.append(completed)
        word = self._word(node.label, tuple(child.label for child in children))
        if word is None:
            return None
        # the word holds the children's labels as a subsequence: place
        # them leftmost-first, fill the rest (all of finite cost)
        placed = iter(children)
        pending = next(placed, None)
        completed_children = []
        for symbol in word:
            if pending is not None and symbol == pending.label:
                completed_children.append(pending)
                pending = next(placed, None)
            else:
                completed_children.append(self._filler(symbol))
        return TreeNode(node.label, node.attrs, tuple(completed_children))

    def _word(self, label: str, embed: tuple[str, ...]) -> "tuple[str, ...] | None":
        key = (label, embed)
        if key not in self._words:
            self._words[key] = self.dtd._cheapest_word(label, self._costs, embed)
        return self._words[key]

    def _filler(self, label: str) -> "TreeNode":
        """A minimal subtree for *label*, every attribute the fresh value."""
        from repro.patterns.satisfiability import FRESH
        from repro.xmlmodel.tree import TreeNode

        filler = self._fillers.get(label)
        if filler is None:
            word = self._word(label, ())
            filler = TreeNode(
                label,
                (FRESH,) * self.dtd.arity(label),
                tuple(self._filler(symbol) for symbol in word),
            )
            self._fillers[label] = filler
        return filler


def _dead_and_unsafe(
    std_index: int, std: STD, mapping: "SchemaMapping",
    structural_errors: set[str], context: "ExecutionContext | None",
    probes: "dict[str, _WitnessProbe] | None" = None,
) -> list[Diagnostic]:
    """SM204/SM205: per-side pattern satisfiability (Lemma 4.1).

    Skipped for a side that already has structural errors — those
    explain the unsatisfiability more precisely.
    """
    from repro.patterns.satisfiability import satisfying_tree

    if probes is None:
        probes = {
            "source": _WitnessProbe(mapping.source_dtd),
            "target": _WitnessProbe(mapping.target_dtd),
        }
    diagnostics: list[Diagnostic] = []
    sides = (
        ("source", std.source, mapping.source_dtd, "SM204",
         "the std can never fire"),
        ("target", std.target, mapping.target_dtd, "SM205",
         "once the std fires, the mapping is inconsistent"),
    )
    for side, pattern, dtd, code, consequence in sides:
        if side in structural_errors:
            continue
        probe = satisfiability_pattern(pattern)
        if probes[side].certify(probe):
            continue  # small witness found: the std can fire
        try:
            witness = satisfying_tree(dtd, probe, context)
        except BoundExceededError:
            continue  # budget exhausted: stay silent rather than guess
        if witness is None:
            diagnostics.append(
                Diagnostic(
                    code, Severity.ERROR,
                    f"{side} pattern is unsatisfiable under the {side} "
                    f"DTD: {consequence}",
                    SourceLocation(std_index, side),
                )
            )
    return diagnostics


def _term_variables(term: object) -> Iterator[Var]:
    if isinstance(term, Var):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.args:
            yield from _term_variables(arg)


def _comparison_statically_false(comparison: Comparison) -> bool:
    left, right = comparison.left, comparison.right
    if isinstance(left, Const) and isinstance(right, Const):
        truth = (left.value == right.value) if comparison.op == "=" else (
            left.value != right.value
        )
        return not truth
    if comparison.op == "!=" and isinstance(left, Var) and left == right:
        return True
    return False


def _variable_hygiene(std_index: int, std: STD) -> list[Diagnostic]:
    """SM206–SM210 for one std."""
    diagnostics: list[Diagnostic] = []
    source_pattern_vars = set(std.source.variables())
    target_pattern_vars = set(std.target.variables())

    # SM207: source comparisons over variables the source pattern never binds
    for comparison in std.source_conditions:
        unbound = sorted(
            {v.name for v in comparison.variables()} - {v.name for v in source_pattern_vars}
        )
        if unbound:
            diagnostics.append(
                Diagnostic(
                    "SM207", Severity.ERROR,
                    f"source comparison {comparison} mentions "
                    f"{', '.join(unbound)} which the source pattern never "
                    "binds: the condition can never be evaluated",
                    SourceLocation(std_index, "source"),
                    data=(("variables", tuple(unbound)),),
                )
            )
    # SM208: target comparisons over variables bound on neither side
    bound_for_target = {v.name for v in source_pattern_vars | target_pattern_vars}
    for comparison in std.target_conditions:
        unbound = sorted({v.name for v in comparison.variables()} - bound_for_target)
        if unbound:
            diagnostics.append(
                Diagnostic(
                    "SM208", Severity.ERROR,
                    f"target comparison {comparison} mentions "
                    f"{', '.join(unbound)} which neither side binds",
                    SourceLocation(std_index, "target"),
                    data=(("variables", tuple(unbound)),),
                )
            )
    # SM206: source variables bound once and never used anywhere else
    occurrence_count: dict[Var, int] = {}
    for term in std.source.terms():
        for var in _term_variables(term):
            occurrence_count[var] = occurrence_count.get(var, 0) + 1
    used_elsewhere: set[Var] = set(target_pattern_vars)
    for comparison in std.source_conditions + std.target_conditions:
        used_elsewhere.update(comparison.variables())
    unused = sorted(
        var.name
        for var, count in occurrence_count.items()
        if count == 1 and var not in used_elsewhere
    )
    if unused:
        diagnostics.append(
            Diagnostic(
                "SM206", Severity.WARNING,
                f"source variable(s) {', '.join(unused)} are bound but "
                "never used in the target side or any comparison",
                SourceLocation(std_index, "source"),
                data=(("variables", tuple(unused)),),
            )
        )
    # SM209: existential target variables (informational)
    existential = std.existential_variables()
    if existential:
        names = ", ".join(v.name for v in existential)
        diagnostics.append(
            Diagnostic(
                "SM209", Severity.INFO,
                f"target-only variable(s) {names} are existential: "
                "solutions may pick their values freely",
                SourceLocation(std_index, "target"),
                data=(("variables", tuple(v.name for v in existential)),),
            )
        )
    # SM210: comparisons false under every assignment
    for side, conditions in (
        ("source", std.source_conditions), ("target", std.target_conditions)
    ):
        for comparison in conditions:
            if _comparison_statically_false(comparison):
                consequence = (
                    "the std can never fire" if side == "source"
                    else "the std can never be satisfied"
                )
                diagnostics.append(
                    Diagnostic(
                        "SM210", Severity.WARNING,
                        f"{side} comparison {comparison} is false under "
                        f"every assignment: {consequence}",
                        SourceLocation(std_index, side),
                        data=(("comparison", str(comparison)),),
                    )
                )
    return diagnostics


def hygiene_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> list[Diagnostic]:
    """``SM2xx``: trivial inconsistencies, dead/unsafe stds, variables.

    An std's diagnostics depend only on the std and the two DTDs, so they
    are memoized on the std together with the DTDs' digests: an edit that
    keeps an std (and the DTDs) does not re-check it.  Store rule: a
    result is stored only if no budget limit fired while the std was
    checked (``ExecutionContext.limits_fired`` did not move), since
    SM204/SM205 stay silent on a search the budget cut short.  A
    wall-clock deadline bounds how long a check may run, not what it
    computes, so deadline-bounded runs (every daemon request) read and
    fill the memo.  An expansion cap (``max_expansions``) is spent by the
    work done before the check, so runs under one are not memoized.  The
    ``lint-hygiene`` span counts the stds ``reused`` from the memo and
    ``checked`` afresh.
    """
    from repro.engine.budget import resolve_context
    from repro.engine.cache import dtd_digest
    from repro.obs import current_span

    resolved = resolve_context(context)
    reusable = resolved is None or resolved.budget.max_expansions is None
    dtds = (dtd_digest(mapping.source_dtd), dtd_digest(mapping.target_dtd))
    probes: dict[str, _WitnessProbe] = {}
    diagnostics: list[Diagnostic] = []
    checked = 0

    def limits_fired() -> int:
        return resolved.limits_fired if resolved is not None else 0

    for std_index, std in enumerate(mapping.stds):
        fired = limits_fired()

        def check(std_index=std_index, std=std) -> tuple[Diagnostic, ...]:
            nonlocal checked
            checked += 1
            if not probes:
                probes["source"] = _WitnessProbe(mapping.source_dtd)
                probes["target"] = _WitnessProbe(mapping.target_dtd)
            return tuple(_std_hygiene(std_index, std, mapping, context, probes))

        found = (
            std._memo(
                "hygiene", check, key=dtds,
                keep=lambda fired=fired: limits_fired() == fired,
            )
            if reusable else check()
        )
        diagnostics += _at_std(found, std_index)
    current_span().annotate(reused=len(mapping.stds) - checked, checked=checked)
    return diagnostics


def _std_hygiene(
    std_index: int, std: STD, mapping: "SchemaMapping",
    context: "ExecutionContext | None", probes: "dict[str, _WitnessProbe]",
) -> list[Diagnostic]:
    """Every ``SM2xx`` diagnostic of one std."""
    structural: list[Diagnostic] = []
    structural += _structural_checks(
        std_index, "source", std.source, mapping.source_dtd
    )
    structural += _structural_checks(
        std_index, "target", std.target, mapping.target_dtd
    )
    errored_sides = {
        d.location.side for d in structural if d.severity is Severity.ERROR
    }
    return (
        structural
        + _dead_and_unsafe(
            std_index, std, mapping, errored_sides, context, probes
        )
        + _variable_hygiene(std_index, std)
    )


def _at_std(diagnostics: tuple[Diagnostic, ...], std_index: int) -> list[Diagnostic]:
    """*diagnostics* of one std, relocated to its position *std_index*."""
    return [
        diagnostic
        if diagnostic.location.std_index == std_index
        else replace(
            diagnostic, location=replace(diagnostic.location, std_index=std_index)
        )
        for diagnostic in diagnostics
    ]


# ---------------------------------------------------------------------------
# SM3xx: composition closure (Theorem 8.2)
# ---------------------------------------------------------------------------


def composition_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> list[Diagnostic]:
    """``SM3xx``: one diagnostic per broken Theorem 8.2 precondition."""
    diagnostics: list[Diagnostic] = []
    for std_index, std in enumerate(mapping.stds):
        for side, pattern in (("source", std.source), ("target", std.target)):
            axes = axes_of(pattern)
            broken = []
            if axes.wildcard:
                broken.append("wildcard")
            if axes.descendant:
                broken.append("descendant")
            if axes.next_sibling:
                broken.append("next-sibling")
            if axes.following_sibling:
                broken.append("following-sibling")
            if broken:
                diagnostics.append(
                    Diagnostic(
                        "SM301", Severity.WARNING,
                        f"{side} pattern is not fully specified "
                        f"(grammar (5)): uses {', '.join(broken)} — "
                        "composition closure (Theorem 8.2) is lost",
                        SourceLocation(std_index, side),
                        data=(("features", tuple(broken)),),
                    )
                )
    for side, dtd in (
        ("source", mapping.source_dtd), ("target", mapping.target_dtd)
    ):
        classification = dtd_classification(dtd, context)
        if not classification.strictly_nested_relational:
            detail = (
                "attributes on non-starred element types"
                if classification.nested_relational
                else "productions outside the nested-relational shape"
            )
            diagnostics.append(
                Diagnostic(
                    "SM302", Severity.WARNING,
                    f"{side} DTD is not strictly nested-relational "
                    f"({detail}): composition closure (Theorem 8.2) is lost",
                    SourceLocation(side=side),
                )
            )
    from repro.patterns.features import INEQUALITY

    if INEQUALITY in mapping.signature().features:
        diagnostics.append(
            Diagnostic(
                "SM303", Severity.WARNING,
                "inequalities (≠) are outside the composition-closed "
                "class (Theorem 8.2)",
            )
        )
    if frag.in_composable_class(mapping):
        diagnostics.append(
            Diagnostic(
                "SM304", Severity.INFO,
                "mapping satisfies every Theorem 8.2 precondition "
                "(strictly nested-relational DTDs, fully-specified stds, "
                "equality only): compositions stay in the class",
            )
        )
    if frag.uses_skolem_functions(mapping):
        names = sorted(
            name for std in mapping.stds for name in std.skolem_functions()
        )
        diagnostics.append(
            Diagnostic(
                "SM305", Severity.INFO,
                f"stds use Skolem function(s) {', '.join(names)} "
                "(Section 8 semantics)",
                data=(("functions", tuple(names)),),
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# SM31x: redundancy (std subsumption)
# ---------------------------------------------------------------------------


def redundancy_pass(
    mapping: "SchemaMapping", context: "ExecutionContext | None" = None
) -> list[Diagnostic]:
    """``SM31x``: stds certified redundant by a pattern homomorphism.

    Exact only for comparison- and Skolem-free std pairs; everywhere
    else the pass stays silent (Unknown-safe) — see
    :mod:`repro.analysis.redundancy`.
    """
    from repro.analysis.redundancy import find_redundancies

    del context  # purely syntactic: no budgets or caches involved
    diagnostics: list[Diagnostic] = []
    for subsumption in find_redundancies(mapping):
        code = "SM310" if subsumption.duplicate else "SM311"
        diagnostics.append(
            Diagnostic(
                code, Severity.WARNING,
                f"{subsumption.describe()}: removing it preserves the "
                "mapping's semantics",
                SourceLocation(subsumption.index),
                data=(("subsumed_by", subsumption.by),
                      ("translation", subsumption.translation)),
            )
        )
    return diagnostics


#: The pass registry, in execution order.
PASSES: tuple[tuple[str, object], ...] = (
    ("fragment", fragment_pass),
    ("dtd", dtd_pass),
    ("hygiene", hygiene_pass),
    ("composition", composition_pass),
    ("redundancy", redundancy_pass),
)


def diagnostics_for_problem(
    problem: object, context: "ExecutionContext | None" = None
) -> tuple[Diagnostic, ...]:
    """The classifier diagnostics ``engine.solve`` attaches to its report.

    Fragment-level only (``SM0xx``): the full hygiene passes run pattern
    satisfiability and are the CLI's job, not a per-solve cost.
    """
    from repro.engine.problems import (
        AbsoluteConsistencyProblem,
        CompositionConsistencyProblem,
        CompositionMembershipProblem,
        ConsistencyProblem,
        MembershipProblem,
    )

    if isinstance(
        problem,
        (ConsistencyProblem, AbsoluteConsistencyProblem, MembershipProblem),
    ):
        return tuple(fragment_pass(problem.mapping, context))
    if isinstance(problem, CompositionMembershipProblem):
        prediction = frag.predict_composition_membership(problem.m12, problem.m23)
    elif isinstance(problem, CompositionConsistencyProblem):
        prediction = frag.predict_composition_consistency(tuple(problem.mappings))
    else:  # satisfiability / separation: no mapping to classify
        return ()
    diagnostics = [
        Diagnostic(
            "SM005", Severity.INFO, prediction.describe(),
            data=(("problem", prediction.problem),
                  ("algorithm", prediction.algorithm),
                  ("complexity", prediction.complexity),
                  ("exact", prediction.exact)),
        )
    ]
    if not prediction.exact:
        diagnostics.append(
            Diagnostic(
                "SM012", Severity.WARNING,
                "this composition problem leaves the exact classes "
                "(comparisons/constants in the chain): bounded search only",
                data=(("algorithm", prediction.algorithm),),
            )
        )
    return tuple(diagnostics)
