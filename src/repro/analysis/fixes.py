"""Certified quick-fixes for lint diagnostics.

A :class:`Fix` is a machine-applicable repair for one diagnostic: a
list of :class:`StdEdit` std-level edits (replace or remove), a human
message, and a safety class — ``preserving`` when the repair provably
does not change the mapping's semantics (dead-std removal, certified
redundancy removal, unique wildcard resolution), ``relaxing``
otherwise (remaps, arity repairs, comparison rewrites: the mapping
changes, review the diff).

Every fix is **verified by construction** before it is offered
(:func:`verify_fix`):

1. apply the edits to an in-memory copy of the mapping,
2. re-lint — the fixed code's occurrence count must strictly drop and
   no *new* error code may appear, and
3. re-solve — ``engine.solve`` on the repaired mapping's
   :class:`~repro.engine.problems.ConsistencyProblem` must not regress
   (Refuted < Unknown < Proved), and decided verdicts must pass
   ``certify()``.

so lint can never propose a repair that ``solve()`` would contradict.
Candidate repairs are *witnessed* where the machinery permits: a
label-remap suggestion carries a Lemma 4.1 satisfying tree for the
rewritten pattern, proving the repaired std can actually fire.

:func:`fix_mapping` is the front door (the ``repro fix`` CLI and the
daemon's lint handler both go through it); it records the
``repro_fixes_{proposed,verified,rejected}_total`` metric family under
a ``fix`` trace span.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence as TypingSequence

from repro.analysis.diagnostics import (
    CATALOG,
    Diagnostic,
    LintReport,
    SourceLocation,
)
from repro.analysis.lint import (
    _FIXES_PROPOSED,
    _FIXES_REJECTED,
    _FIXES_VERIFIED,
    lint_mapping,
)
from repro.analysis.passes import satisfiability_pattern
from repro.engine import (
    CertificationError,
    ExecutionContext,
    certify,
    current_context,
    solve,
)
from repro.engine.problems import ConsistencyProblem
from repro.engine.verdicts import Verdict
from repro.errors import BoundExceededError, XsmError
from repro.mappings.std import STD, Comparison, parse_std
from repro.obs import trace
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.patterns.satisfiability import satisfying_tree
from repro.values import SkolemTerm, Term, Var
from repro.xmlmodel import serialize_tree

if TYPE_CHECKING:
    from repro.mappings.mapping import SchemaMapping
    from repro.xmlmodel.dtd import DTD

#: Safety classes: a ``preserving`` fix provably keeps the mapping's
#: semantics; a ``relaxing`` fix changes it (review the diff).
PRESERVING = "preserving"
RELAXING = "relaxing"


@dataclass(frozen=True)
class StdEdit:
    """One std-level edit: replace ``stds[std_index]`` or remove it.

    ``new_std`` is the replacement in std text syntax (``parse_std``);
    indices always refer to the *unedited* mapping, so a batch of edits
    can be applied in one pass.
    """

    op: str  # "replace" | "remove"
    std_index: int
    new_std: str | None = None

    def __post_init__(self) -> None:
        if self.op not in ("replace", "remove"):
            raise ValueError(f"edit op must be 'replace' or 'remove', got {self.op!r}")
        if (self.new_std is None) != (self.op == "remove"):
            raise ValueError(f"'{self.op}' edit {'takes no' if self.op == 'remove' else 'needs a'} new_std")

    def render(self) -> str:
        if self.op == "remove":
            return f"remove std {self.std_index}"
        return f"replace std {self.std_index} with: {self.new_std}"

    def to_dict(self) -> dict[str, object]:
        return {"op": self.op, "std_index": self.std_index, "new_std": self.new_std}


@dataclass(frozen=True)
class Fix:
    """A machine-applicable repair for one diagnostic."""

    code: str
    message: str
    edits: tuple[StdEdit, ...]
    location: SourceLocation
    safety: str
    data: tuple[tuple[str, object], ...] = ()
    verified: bool = False

    def __post_init__(self) -> None:
        if self.code not in CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.safety not in (PRESERVING, RELAXING):
            raise ValueError(f"unknown safety class {self.safety!r}")
        if not self.edits:
            raise ValueError("a fix must carry at least one edit")

    def get(self, key: str, default: object = None) -> object:
        for name, value in self.data:
            if name == key:
                return value
        return default

    def apply(self, mapping: "SchemaMapping") -> "SchemaMapping":
        """The repaired mapping (same class; the input is untouched)."""
        stds: list[STD | None] = list(mapping.stds)
        for edit in self.edits:
            if not 0 <= edit.std_index < len(stds):
                raise XsmError(
                    f"fix edit targets std {edit.std_index} but the mapping "
                    f"has {len(stds)}"
                )
            if edit.op == "replace":
                assert edit.new_std is not None
                stds[edit.std_index] = parse_std(edit.new_std)
            else:
                stds[edit.std_index] = None
        return type(mapping)(
            mapping.source_dtd,
            mapping.target_dtd,
            [std for std in stds if std is not None],
        )

    def render(self) -> str:
        """One human line: ``SM204 [std 1, source] (preserving): ...``."""
        edits = "; ".join(edit.render() for edit in self.edits)
        return f"{self.code} [{self.location}] ({self.safety}): {self.message} — {edits}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "edits": [edit.to_dict() for edit in self.edits],
            "location": self.location.to_dict(),
            "safety": self.safety,
            "data": {key: _jsonable(value) for key, value in self.data},
            "verified": self.verified,
        }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return str(value)


def fix_from_dict(payload: dict[str, object]) -> Fix:
    """Rebuild a fix from its :meth:`Fix.to_dict` wire form."""
    location = payload.get("location") or {}
    assert isinstance(location, dict)
    edits = payload.get("edits") or []
    assert isinstance(edits, list)
    data = payload.get("data") or {}
    assert isinstance(data, dict)
    return Fix(
        code=str(payload["code"]),
        message=str(payload["message"]),
        edits=tuple(
            StdEdit(
                op=str(edit["op"]),
                std_index=int(edit["std_index"]),
                new_std=None if edit.get("new_std") is None else str(edit["new_std"]),
            )
            for edit in edits
        ),
        location=SourceLocation(
            std_index=location.get("std_index"),
            side=location.get("side"),
            path=location.get("path"),
        ),
        safety=str(payload["safety"]),
        data=tuple(sorted(data.items())),
        verified=bool(payload.get("verified", False)),
    )


# ---------------------------------------------------------------------------
# text-level application (.xsm files)
# ---------------------------------------------------------------------------


def std_line_numbers(text: str) -> list[int]:
    """0-based line numbers of the ``std:`` lines of ``.xsm`` text, in
    std-index order (the numbering ``parse_mapping`` produces)."""
    return [
        line_number
        for line_number, raw_line in enumerate(text.splitlines())
        if raw_line.split("#", 1)[0].strip().startswith("std:")
    ]


def apply_edits_to_text(text: str, edits: TypingSequence[StdEdit]) -> str:
    """Apply std edits to ``.xsm`` source text, preserving everything else.

    Only the affected ``std:`` lines are rewritten (comments, blank
    lines and the DTD sections stay byte-identical), so ``repro fix
    --apply`` produces minimal diffs.  Edit indices refer to std
    positions of the *input* text, in file order — the same numbering
    ``parse_mapping`` produces.
    """
    lines = text.splitlines()
    std_lines = std_line_numbers(text)
    replacements: dict[int, str] = {}
    removals: set[int] = set()
    for edit in edits:
        if not 0 <= edit.std_index < len(std_lines):
            raise XsmError(
                f"fix edit targets std {edit.std_index} but the file "
                f"has {len(std_lines)}"
            )
        line_number = std_lines[edit.std_index]
        if edit.op == "replace":
            assert edit.new_std is not None
            replacements[line_number] = f"std: {edit.new_std}"
        else:
            removals.add(line_number)
    rewritten = [
        replacements.get(line_number, raw_line)
        for line_number, raw_line in enumerate(lines)
        if line_number not in removals
    ]
    trailing = "\n" if text.endswith("\n") or removals or replacements else ""
    return "\n".join(rewritten) + trailing if rewritten else ""


def select_compatible(fixes: TypingSequence[Fix]) -> tuple[Fix, ...]:
    """A conflict-free batch: at most one fix per std index.

    Fix edits index the unedited mapping, so two fixes touching the
    same std cannot both apply in one pass; the first (report order)
    wins and the rest wait for the next ``repro fix`` round.
    """
    taken: set[int] = set()
    selected: list[Fix] = []
    for fix in fixes:
        indices = {edit.std_index for edit in fix.edits}
        if indices & taken:
            continue
        taken |= indices
        selected.append(fix)
    return tuple(selected)


# ---------------------------------------------------------------------------
# per-code fix builders
# ---------------------------------------------------------------------------


def _side_of(mapping: "SchemaMapping", diagnostic: Diagnostic) -> tuple[int, str, Pattern, "DTD"] | None:
    """(std_index, side, pattern, dtd) for a per-std, per-side diagnostic."""
    location = diagnostic.location
    if location.std_index is None or location.side not in ("source", "target"):
        return None
    std = mapping.stds[location.std_index]
    if location.side == "source":
        return location.std_index, "source", std.source, mapping.source_dtd
    return location.std_index, "target", std.target, mapping.target_dtd


def _replace_side(std: STD, side: str, pattern: Pattern) -> STD:
    if side == "source":
        return STD(pattern, std.target, std.source_conditions, std.target_conditions)
    return STD(std.source, pattern, std.source_conditions, std.target_conditions)


def _relabel(pattern: Pattern, old: str, new: str) -> Pattern:
    return pattern.map_patterns(
        lambda p: Pattern(new, p.vars, p.items) if p.label == old else p
    )


def _ranked_labels(wanted: str, dtd: "DTD", arities: set[int]) -> list[str]:
    """DTD labels nearest to *wanted*: arity-compatible ones first, then
    by string similarity (ties alphabetical, for determinism)."""

    def key(label: str) -> tuple[int, float, str]:
        compatible = all(dtd.arity(label) == arity for arity in arities)
        ratio = difflib.SequenceMatcher(None, wanted, label).ratio()
        return (0 if compatible else 1, -ratio, label)

    return sorted(dtd.labels, key=key)


def _witness(
    dtd: "DTD", pattern: Pattern, context: ExecutionContext | None
) -> "object | None":
    """A Lemma 4.1 satisfying tree for *pattern*, or None (incl. budget)."""
    try:
        return satisfying_tree(dtd, satisfiability_pattern(pattern), context)
    except BoundExceededError:
        return None


def _remove_std(
    diagnostic: Diagnostic, message: str, safety: str,
    data: tuple[tuple[str, object], ...] = (),
) -> Fix | None:
    std_index = diagnostic.location.std_index
    if std_index is None:
        return None
    return Fix(
        code=diagnostic.code,
        message=message,
        edits=(StdEdit("remove", std_index),),
        location=diagnostic.location,
        safety=safety,
        data=data,
    )


def _fix_unknown_label(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM201: remap the unknown label to the nearest alphabet symbol.

    Only offered when the rewritten side is satisfiable — the witness
    tree (Lemma 4.1 probe) ships in the fix data as proof.
    """
    located = _side_of(mapping, diagnostic)
    label = diagnostic.get("label")
    if located is None or not isinstance(label, str):
        return None
    std_index, side, pattern, dtd = located
    std = mapping.stds[std_index]
    arities = {
        len(node.vars)
        for node in pattern.subpatterns()
        if node.label == label and node.vars is not None
    }
    for candidate in _ranked_labels(label, dtd, arities)[:5]:
        repaired = _relabel(pattern, label, candidate)
        witness = _witness(dtd, repaired, context)
        if witness is None:
            continue
        return Fix(
            code="SM201",
            message=(
                f"replace unknown label {label!r} with {candidate!r} "
                f"throughout the {side} pattern (witness tree attached)"
            ),
            edits=(StdEdit("replace", std_index, str(_replace_side(std, side, repaired))),),
            location=diagnostic.location,
            safety=RELAXING,
            data=(("from", label), ("to", candidate),
                  ("witness", serialize_tree(witness))),
        )
    return None


def _fresh_variables(std: STD, count: int) -> list[Var]:
    used = {var.name for var in std.source_variables()}
    used |= {var.name for var in std.target_variables()}
    fresh: list[Var] = []
    index = 0
    while len(fresh) < count:
        name = f"u{index}"
        index += 1
        if name not in used:
            used.add(name)
            fresh.append(Var(name))
    return fresh


def _fix_arity_mismatch(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM202: truncate or pad the attribute tuple to the DTD arity."""
    del context
    located = _side_of(mapping, diagnostic)
    label = diagnostic.get("label")
    dtd_arity = diagnostic.get("dtd_arity")
    if located is None or not isinstance(label, str) or not isinstance(dtd_arity, int):
        return None  # the wildcard variant has no single right arity
    std_index, side, pattern, _dtd = located
    std = mapping.stds[std_index]
    needed = sum(
        max(0, dtd_arity - len(node.vars))
        for node in pattern.subpatterns()
        if node.label == label and node.vars is not None
    )
    fresh = iter(_fresh_variables(std, needed))

    def repair(node: Pattern) -> Pattern:
        if node.label != label or node.vars is None or len(node.vars) == dtd_arity:
            return node
        if len(node.vars) > dtd_arity:
            vars_: tuple[Term, ...] = node.vars[:dtd_arity]
        else:
            vars_ = node.vars + tuple(
                next(fresh) for __ in range(dtd_arity - len(node.vars))
            )
        return Pattern(node.label, vars_, node.items)

    repaired = pattern.map_patterns(repair)
    if repaired == pattern:
        return None
    action = "truncated/padded"
    return Fix(
        code="SM202",
        message=(
            f"{action} the attribute tuple(s) of {label!r} in the {side} "
            f"pattern to the DTD arity {dtd_arity}"
        ),
        edits=(StdEdit("replace", std_index, str(_replace_side(std, side, repaired))),),
        location=diagnostic.location,
        safety=RELAXING,
        data=(("label", label), ("dtd_arity", dtd_arity)),
    )


def _fix_root_conflict(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM203: relabel the pattern root to the DTD root."""
    del context
    located = _side_of(mapping, diagnostic)
    if located is None:
        return None
    std_index, side, pattern, dtd = located
    std = mapping.stds[std_index]
    vars_ = pattern.vars
    if vars_ is not None and len(vars_) != dtd.arity(dtd.root):
        vars_ = None  # the root's attributes don't line up: unconstrain them
    repaired = Pattern(dtd.root, vars_, pattern.items)
    return Fix(
        code="SM203",
        message=(
            f"relabel the {side} pattern root {pattern.label!r} to the "
            f"DTD root {dtd.root!r}"
        ),
        edits=(StdEdit("replace", std_index, str(_replace_side(std, side, repaired))),),
        location=diagnostic.location,
        safety=RELAXING,
        data=(("from", pattern.label), ("to", dtd.root)),
    )


def _fix_dead_std(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    del mapping, context
    return _remove_std(
        diagnostic,
        "remove the dead std: its source pattern never matches a "
        "conforming tree, so removal preserves the mapping's semantics",
        PRESERVING,
    )


def _fix_unsafe_std(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    del mapping, context
    return _remove_std(
        diagnostic,
        "remove the unsafe std: its target pattern is unsatisfiable, so "
        "any source tree firing it has no solution",
        RELAXING,
    )


def _rename_in_term(term: Term, renaming: dict[Var, Var]) -> Term:
    if isinstance(term, Var):
        return renaming.get(term, term)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(
            term.function, tuple(_rename_in_term(arg, renaming) for arg in term.args)
        )
    return term


def _fix_unbound_comparison(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM207/SM208: rename the unbound variable to the nearest bound one,
    or drop the comparison when nothing is bound."""
    del context
    std_index = diagnostic.location.std_index
    unbound = diagnostic.get("variables")
    if std_index is None or not isinstance(unbound, tuple):
        return None
    std = mapping.stds[std_index]
    if diagnostic.code == "SM207":
        bound = sorted({var.name for var in std.source.variables()})
        conditions, attribute = std.source_conditions, "source_conditions"
    else:
        bound = sorted(
            {var.name for var in std.source.variables()}
            | {var.name for var in std.target.variables()}
        )
        conditions, attribute = std.target_conditions, "target_conditions"
    unbound_names = set(unbound)
    if bound:
        renaming = {
            Var(name): Var(
                max(bound, key=lambda b: (difflib.SequenceMatcher(None, name, b).ratio(), b))
            )
            for name in sorted(unbound_names)
        }
        repaired_conditions = tuple(
            Comparison(
                _rename_in_term(c.left, renaming), c.op,
                _rename_in_term(c.right, renaming),
            )
            for c in conditions
        )
        message = (
            "rename unbound comparison variable(s) "
            + ", ".join(f"{old.name}→{new.name}" for old, new in sorted(
                renaming.items(), key=lambda pair: pair[0].name))
            + " to bound ones"
        )
    else:
        repaired_conditions = tuple(
            c for c in conditions
            if not unbound_names & {var.name for var in c.variables()}
        )
        message = "drop the comparison(s) over variables no pattern binds"
    if repaired_conditions == conditions:
        return None
    repaired = dataclasses.replace(std, **{attribute: repaired_conditions})
    return Fix(
        code=diagnostic.code,
        message=message,
        edits=(StdEdit("replace", std_index, str(repaired)),),
        location=diagnostic.location,
        safety=RELAXING,
        data=(("variables", unbound),),
    )


def _fix_false_comparison(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM210: a statically false comparison.  A false *source* condition
    means the std never fires (removal preserving); a false *target*
    condition makes every firing unsatisfiable (removal relaxing)."""
    del mapping, context
    side = diagnostic.location.side
    preserving = side == "source"
    return _remove_std(
        diagnostic,
        f"remove the std: its {side} comparison is false under every "
        "assignment, so it "
        + ("never fires" if preserving else "can never be satisfied"),
        PRESERVING if preserving else RELAXING,
        data=(("comparison", diagnostic.get("comparison")),),
    )


class _Unresolvable(Exception):
    pass


def _resolve_wildcards(pattern: Pattern, dtd: "DTD", allowed: frozenset[str] | None) -> Pattern:
    """Replace every wildcard by its unique admissible label, or raise.

    *allowed* is the parent production's alphabet (None at the root).
    A wildcard constraining ``k`` attributes only matches arity-``k``
    labels, so the arity filter keeps the resolution preserving.
    """
    if pattern.label == WILDCARD:
        candidates = frozenset((dtd.root,)) if allowed is None else allowed
        if pattern.vars is not None:
            candidates = frozenset(
                label for label in candidates
                if dtd.arity(label) == len(pattern.vars)
            )
        if len(candidates) != 1:
            raise _Unresolvable
        (label,) = candidates
    else:
        label = pattern.label
    if label not in dtd.labels:
        raise _Unresolvable
    child_allowed = frozenset(
        symbol for symbol in dtd.child_labels(label)
        if isinstance(symbol, str)
    )
    items: list[Sequence | Descendant] = []
    for item in pattern.items:
        if isinstance(item, Descendant):
            raise _Unresolvable  # descendants admit any reachable label
        items.append(
            Sequence(
                tuple(
                    _resolve_wildcards(element, dtd, child_allowed)
                    for element in item.elements
                ),
                item.connectors,
            )
        )
    return Pattern(label, pattern.vars, tuple(items))


def _fix_closure_breaking_std(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    """SM301 (wildcard only): resolve each wildcard to the unique label
    its parent's production admits — semantics-preserving, since every
    conforming tree realizes exactly that label there."""
    del context
    features = diagnostic.get("features")
    if features != ("wildcard",):
        return None  # descendant / sibling order has no sound rewrite
    located = _side_of(mapping, diagnostic)
    if located is None:
        return None
    std_index, side, pattern, dtd = located
    std = mapping.stds[std_index]
    try:
        repaired = _resolve_wildcards(pattern, dtd, None)
    except _Unresolvable:
        return None
    return Fix(
        code="SM301",
        message=(
            f"resolve the wildcard(s) of the {side} pattern to the unique "
            "labels the DTD admits, restoring full specification "
            "(grammar (5))"
        ),
        edits=(StdEdit("replace", std_index, str(_replace_side(std, side, repaired))),),
        location=diagnostic.location,
        safety=PRESERVING,
    )


def _fix_redundant_std(
    mapping: "SchemaMapping", diagnostic: Diagnostic,
    context: ExecutionContext | None,
) -> Fix | None:
    del mapping, context
    kind = "duplicate" if diagnostic.code == "SM310" else "subsumed"
    return _remove_std(
        diagnostic,
        f"remove the {kind} std: std {diagnostic.get('subsumed_by')} "
        "already enforces it (pattern-homomorphism certificate)",
        PRESERVING,
        data=(("subsumed_by", diagnostic.get("subsumed_by")),),
    )


FixBuilder = Callable[
    ["SchemaMapping", Diagnostic, ExecutionContext | None], "Fix | None"
]

#: Codes a quick-fix exists for, and their builders.
FIX_BUILDERS: dict[str, FixBuilder] = {
    "SM201": _fix_unknown_label,
    "SM202": _fix_arity_mismatch,
    "SM203": _fix_root_conflict,
    "SM204": _fix_dead_std,
    "SM205": _fix_unsafe_std,
    "SM207": _fix_unbound_comparison,
    "SM208": _fix_unbound_comparison,
    "SM210": _fix_false_comparison,
    "SM301": _fix_closure_breaking_std,
    "SM310": _fix_redundant_std,
    "SM311": _fix_redundant_std,
}

FIXABLE_CODES: frozenset[str] = frozenset(FIX_BUILDERS)


# ---------------------------------------------------------------------------
# the verification gate
# ---------------------------------------------------------------------------


def _solve_rank(verdict: Verdict) -> int:
    """Refuted < Unknown < Proved: the non-regression order for CONS."""
    if verdict.is_refuted:
        return 0
    if verdict.is_unknown:
        return 1
    return 2


def verify_fix(
    mapping: "SchemaMapping",
    fix: Fix,
    before: LintReport,
    context: ExecutionContext | None = None,
    *,
    before_verdict: Verdict | None = None,
) -> tuple[Fix | None, str]:
    """The gate every fix must pass before it is offered.

    Returns ``(verified_fix, "ok")`` or ``(None, reason)``.  The reason
    strings are the ``reason`` label values of
    ``repro_fixes_rejected_total``.
    """
    try:
        repaired = fix.apply(mapping)
    except XsmError:
        return None, "apply-failed"
    after = lint_mapping(repaired, context)
    before_count = len(before.by_code(fix.code))
    if len(after.by_code(fix.code)) >= before_count:
        return None, "re-lint"
    new_errors = {d.code for d in after.errors} - {d.code for d in before.errors}
    if new_errors:
        return None, "new-errors"
    if before_verdict is None:
        before_verdict = solve(ConsistencyProblem(mapping), context)
    after_verdict = solve(ConsistencyProblem(repaired), context)
    if _solve_rank(after_verdict) < _solve_rank(before_verdict):
        return None, "solve-regression"
    if not after_verdict.is_unknown:
        try:
            certify(after_verdict)
        except CertificationError:
            return None, "certification"
    return dataclasses.replace(fix, verified=True), "ok"


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------


def fixes_for_report(
    mapping: "SchemaMapping",
    report: LintReport,
    context: ExecutionContext | None = None,
    *,
    only_codes: TypingSequence[str] | None = None,
) -> tuple[Fix, ...]:
    """Verified fixes for an existing report, in diagnostic order."""
    if only_codes is not None:
        unknown = set(only_codes) - set(CATALOG)
        if unknown:
            raise XsmError(f"unknown diagnostic code(s): {sorted(unknown)}")
    if context is None:
        context = current_context() or ExecutionContext()
    fixes: list[Fix] = []
    before_verdict: Verdict | None = None
    with context.activate(), trace("fix", mapping=report.name or None) as span:
        proposed = verified = rejected = 0
        for diagnostic in report.diagnostics:
            if only_codes is not None and diagnostic.code not in only_codes:
                continue
            builder = FIX_BUILDERS.get(diagnostic.code)
            if builder is None:
                continue
            candidate = builder(mapping, diagnostic, context)
            if candidate is None:
                continue
            proposed += 1
            _FIXES_PROPOSED.labels(code=candidate.code).inc()
            if before_verdict is None:
                before_verdict = solve(ConsistencyProblem(mapping), context)
            fix, reason = verify_fix(
                mapping, candidate, report, context,
                before_verdict=before_verdict,
            )
            if fix is None:
                rejected += 1
                _FIXES_REJECTED.labels(code=candidate.code, reason=reason).inc()
                continue
            verified += 1
            _FIXES_VERIFIED.labels(code=fix.code).inc()
            fixes.append(fix)
        span.annotate(proposed=proposed, verified=verified, rejected=rejected)
    return tuple(fixes)


def fix_mapping(
    mapping: "SchemaMapping",
    context: ExecutionContext | None = None,
    *,
    name: str = "",
    only_codes: TypingSequence[str] | None = None,
) -> tuple[LintReport, tuple[Fix, ...]]:
    """Lint *mapping* and compute verified fixes for its diagnostics."""
    report = lint_mapping(mapping, context, name=name)
    return report, fixes_for_report(
        mapping, report, context, only_codes=only_codes
    )
