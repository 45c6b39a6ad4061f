"""Source-to-target dependencies (Definition 3.1).

An std is

    pi(x, y), alpha(x, y)  ->  pi'(x, z), alpha'(x, z)

with ``alpha`` / ``alpha'`` conjunctions of equalities and inequalities
over data values (the paper's ``alpha_{=,!=}`` formulae).  Semantics: for
every match of ``pi`` on the source tree whose values satisfy ``alpha``,
some extension of the shared values must match ``pi'`` on the target tree
and satisfy ``alpha'``.

Text syntax (``parse_std``)::

    r[a(x), b(y)], x != y -> r2[c(x) ->* d(y)], x = z

The left/right split is on the *top-level* ``->`` (inside brackets ``->``
is the next-sibling axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ParseError, XsmError
from repro.patterns.ast import Pattern
from repro.patterns.parser import _Parser, serialize_pattern, serialize_term
from repro.values import Const, SkolemTerm, Term, Var


@dataclass(frozen=True, slots=True)
class Comparison:
    """An atomic comparison ``left op right`` with ``op`` in {"=", "!="}."""

    left: Term
    op: str
    right: Term

    def __post_init__(self):
        if self.op not in ("=", "!="):
            raise ValueError(f"comparison operator must be '=' or '!=', got {self.op!r}")

    def variables(self) -> Iterator[Var]:
        for term in (self.left, self.right):
            if isinstance(term, Var):
                yield term
            elif isinstance(term, SkolemTerm):
                yield from _skolem_vars(term)

    def evaluate(self, assignment: dict[Var, object]) -> bool:
        """Truth value under a (total, for the mentioned variables) assignment."""
        left = _eval_term(self.left, assignment)
        right = _eval_term(self.right, assignment)
        return (left == right) if self.op == "=" else (left != right)

    def substitute(self, assignment: dict[Var, object]) -> "Comparison":
        """Replace assigned variables by constants."""
        return Comparison(
            _subst_term(self.left, assignment),
            self.op,
            _subst_term(self.right, assignment),
        )

    def __str__(self) -> str:
        return f"{serialize_term(self.left)} {self.op} {serialize_term(self.right)}"


def _skolem_vars(term: SkolemTerm) -> Iterator[Var]:
    for arg in term.args:
        if isinstance(arg, Var):
            yield arg
        elif isinstance(arg, SkolemTerm):
            yield from _skolem_vars(arg)


def _eval_term(term: Term, assignment: dict[Var, object]):
    if isinstance(term, Var):
        if term not in assignment:
            raise XsmError(f"comparison evaluated with unbound variable {term}")
        return assignment[term]
    if isinstance(term, Const):
        return term.value
    raise XsmError(
        f"cannot evaluate Skolem term {term} directly; use repro.mappings.skolem"
    )


def _subst_term(term: Term, assignment: dict[Var, object]) -> Term:
    if isinstance(term, Var) and term in assignment:
        return Const(assignment[term])
    if isinstance(term, SkolemTerm):
        return SkolemTerm(term.function, tuple(_subst_term(a, assignment) for a in term.args))
    return term


@dataclass(frozen=True, slots=True)
class STD:
    """One source-to-target dependency."""

    source: Pattern
    target: Pattern
    source_conditions: tuple[Comparison, ...] = ()
    target_conditions: tuple[Comparison, ...] = ()
    #: Facts derived from the std (digests, lint results), computed once
    #: per instance.  Not part of its value: excluded from equality,
    #: hashing, ``repr`` and pickles.
    _memos: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def _memo(
        self, name: str, compute: Callable[[], object], key: object = None,
        keep: Callable[[], bool] | None = None,
    ):
        """The memoized fact *name*, recomputed when *key* (the digests of
        what else it depends on, say the DTDs) differs from last time.

        A fresh value is stored only if *keep* (when given) approves it
        after the computation."""
        entry = self._memos.get(name)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = compute()
        if keep is None or keep():
            self._memos[name] = (key, value)
        return value

    def __getstate__(self):
        return (
            self.source, self.target, self.source_conditions, self.target_conditions
        )

    def __setstate__(self, state):
        for name, value in zip(_STD_FIELDS, state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_memos", {})

    # -- variable bookkeeping ------------------------------------------------

    def source_variables(self) -> tuple[Var, ...]:
        """Variables of the source side (pattern + alpha), in order."""
        seen: dict[Var, None] = {}
        for var in self.source.variables():
            seen.setdefault(var, None)
        for comparison in self.source_conditions:
            for var in comparison.variables():
                seen.setdefault(var, None)
        return tuple(seen)

    def target_variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for var in self.target.variables():
            seen.setdefault(var, None)
        for comparison in self.target_conditions:
            for var in comparison.variables():
                seen.setdefault(var, None)
        return tuple(seen)

    def shared_variables(self) -> tuple[Var, ...]:
        """The universally quantified tuple ``x`` passed from source to target."""
        def compute() -> tuple[Var, ...]:
            source_vars = set(self.source_variables())
            return tuple(v for v in self.target_variables() if v in source_vars)

        return self._memo("shared", compute)

    def existential_variables(self) -> tuple[Var, ...]:
        """The target-only tuple ``z`` (existentially quantified)."""
        source_vars = set(self.source_variables())
        return tuple(v for v in self.target_variables() if v not in source_vars)

    def skolem_functions(self) -> frozenset[str]:
        """Names of Skolem functions used on the target side (Section 8)."""
        names: set[str] = set()

        def collect(term: Term) -> None:
            if isinstance(term, SkolemTerm):
                names.add(term.function)
                for arg in term.args:
                    collect(arg)

        for term in self.target.terms():
            collect(term)
        for comparison in self.target_conditions:
            collect(comparison.left)
            collect(comparison.right)
        return frozenset(names)

    def strip_values(self) -> "STD":
        """The ``SM°`` projection: drop all attribute terms and conditions."""
        return STD(self.source.strip_values(), self.target.strip_values())

    def __str__(self) -> str:
        left = ", ".join(
            [serialize_pattern(self.source)]
            + [str(c) for c in self.source_conditions]
        )
        right = ", ".join(
            [serialize_pattern(self.target)]
            + [str(c) for c in self.target_conditions]
        )
        return f"{left} -> {right}"


_STD_FIELDS = ("source", "target", "source_conditions", "target_conditions")


def _parse_comparisons(parser: _Parser) -> list[Comparison]:
    comparisons = []
    while parser.peek() is not None and parser.peek()[1] == ",":
        parser.next()
        left = parser.parse_term()
        token = parser.next()
        if token[1] not in ("=", "!="):
            raise ParseError(
                f"expected '=' or '!=', got {token[1]!r}", parser.text, token[2]
            )
        right = parser.parse_term()
        comparisons.append(Comparison(left, token[1], right))
    return comparisons


def parse_std(text: str) -> STD:
    """Parse an std: ``pattern (, comparison)* -> pattern (, comparison)*``."""
    parser = _Parser(text)
    source = parser.parse_path()
    source_conditions = _parse_comparisons(parser)
    token = parser.next()
    if token[0] != "arrow":
        raise ParseError(f"expected '->', got {token[1]!r}", text, token[2])
    target = parser.parse_path()
    target_conditions = _parse_comparisons(parser)
    if parser.peek() is not None:
        __, value, offset = parser.peek()
        raise ParseError(f"trailing input {value!r} in std", text, offset)
    return STD(source, target, tuple(source_conditions), tuple(target_conditions))
