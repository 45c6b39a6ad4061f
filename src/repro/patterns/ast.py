"""AST for the extended tree patterns of the paper (grammar (2)).

    pi     := l(x)[lambda]                         patterns
    lambda := eps | mu | //pi | lambda, lambda     lists
    mu     := pi | pi -> mu | pi ->* mu            sequences

A :class:`Pattern` node carries

* ``label`` — an element type or the wildcard ``_``,
* ``vars`` — ``None`` when the pattern says nothing about attributes (the
  ``SM°`` shape ``l[lambda]``), or a tuple of terms (:class:`~repro.values.Var`,
  :class:`~repro.values.Const`, or, on target sides of Skolem stds,
  :class:`~repro.values.SkolemTerm`) that must equal the node's attribute
  tuple position-wise,
* ``items`` — the list ``lambda``: each item is either a
  :class:`Sequence` (``mu``, a chain of patterns related by next-sibling
  ``->`` / following-sibling ``->*``) or a :class:`Descendant` (``//pi``).

Patterns are immutable and hashable.  A pattern keeps its hash once
computed, but never pickles it: string hashes differ between processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Union as TypingUnion

from repro.values import Const, SkolemTerm, Term, Var

#: The wildcard label.
WILDCARD = "_"

#: Connectors inside sequences: ``"next"`` for ``->``, ``"following"`` for ``->*``.
Connector = Literal["next", "following"]


@dataclass(frozen=True, slots=True)
class Pattern:
    """A tree pattern ``label(vars)[items]``."""

    label: str
    vars: tuple[Term, ...] | None = None
    items: tuple["ListItem", ...] = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _below: tuple["Pattern", ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for item in self.items:
            if not isinstance(item, (Sequence, Descendant)):
                raise TypeError(f"list item must be Sequence or Descendant: {item!r}")

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.label, self.vars, self.items))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # rebuilt through the constructor: the kept hash and node tuple
        # stay behind
        return (Pattern, (self.label, self.vars, self.items))

    # -- views -------------------------------------------------------------

    def subpatterns(self) -> tuple["Pattern", ...]:
        """All pattern nodes of the AST in document order (self first).

        The nodes below are collected once per node and kept, like the
        hash; *self* is left out of what is kept, so no pattern refers
        to itself.
        """
        below = self._below
        if below is None:
            nodes: list[Pattern] = []
            for item in self.items:
                if isinstance(item, Descendant):
                    nodes.extend(item.pattern.subpatterns())
                else:
                    for element in item.elements:
                        nodes.extend(element.subpatterns())
            below = tuple(nodes)
            object.__setattr__(self, "_below", below)
        return (self, *below)

    def terms(self) -> Iterator[Term]:
        """All attribute terms in document order (with repeats)."""
        for sub in self.subpatterns():
            if sub.vars is not None:
                yield from sub.vars

    def variables(self) -> tuple[Var, ...]:
        """Distinct variables in order of first occurrence."""
        seen: dict[Var, None] = {}
        for term in self.terms():
            for var in _term_vars(term):
                seen.setdefault(var, None)
        return tuple(seen)

    def has_repeated_variables(self) -> bool:
        """True iff some variable occurs more than once (implicit equality)."""
        seen: set[Var] = set()
        for term in self.terms():
            for var in _term_vars(term):
                if var in seen:
                    return True
                seen.add(var)
        return False

    def labels_used(self) -> frozenset[str]:
        """All element-type labels (the wildcard excluded)."""
        return frozenset(
            sub.label for sub in self.subpatterns() if sub.label != WILDCARD
        )

    @property
    def size(self) -> int:
        """Number of pattern nodes."""
        return sum(1 for __ in self.subpatterns())

    # -- transformations ------------------------------------------------------

    def map_patterns(self, fn: Callable[["Pattern"], "Pattern"]) -> "Pattern":
        """Rebuild bottom-up, applying *fn* to every (already rebuilt) node."""
        new_items: list[ListItem] = []
        for item in self.items:
            if isinstance(item, Descendant):
                new_items.append(Descendant(item.pattern.map_patterns(fn)))
            else:
                new_items.append(
                    Sequence(
                        tuple(e.map_patterns(fn) for e in item.elements),
                        item.connectors,
                    )
                )
        return fn(Pattern(self.label, self.vars, tuple(new_items)))

    def strip_values(self) -> "Pattern":
        """Forget all attribute terms (the ``SM°`` projection of Section 3)."""
        return self.map_patterns(lambda p: Pattern(p.label, None, p.items))

    def substitute(self, assignment: dict[Var, object]) -> "Pattern":
        """Replace assigned variables by constants (unassigned ones remain)."""

        def replace(term: Term) -> Term:
            if isinstance(term, Var) and term in assignment:
                return Const(assignment[term])
            if isinstance(term, SkolemTerm):
                return SkolemTerm(term.function, tuple(replace(a) for a in term.args))
            return term

        def on_node(p: Pattern) -> Pattern:
            if p.vars is None:
                return p
            return Pattern(p.label, tuple(replace(t) for t in p.vars), p.items)

        return self.map_patterns(on_node)

    def rename_variables(self, renaming: dict[Var, Var]) -> "Pattern":
        """Apply a variable renaming throughout."""

        def replace(term: Term) -> Term:
            if isinstance(term, Var):
                return renaming.get(term, term)
            if isinstance(term, SkolemTerm):
                return SkolemTerm(term.function, tuple(replace(a) for a in term.args))
            return term

        def on_node(p: Pattern) -> Pattern:
            if p.vars is None:
                return p
            return Pattern(p.label, tuple(replace(t) for t in p.vars), p.items)

        return self.map_patterns(on_node)

    def __str__(self) -> str:
        from repro.patterns.parser import serialize_pattern

        return serialize_pattern(self)


@dataclass(frozen=True, slots=True)
class Sequence:
    """A sequence ``pi1 (-> | ->*) pi2 ... pik`` matched among the children.

    ``connectors[i]`` relates ``elements[i]`` and ``elements[i+1]``:
    ``"next"`` requires them on adjacent siblings, ``"following"`` on
    siblings in strict left-to-right order (any gap).
    """

    elements: tuple[Pattern, ...]
    connectors: tuple[Connector, ...] = ()

    def __post_init__(self):
        if len(self.connectors) != len(self.elements) - 1:
            raise ValueError(
                f"sequence with {len(self.elements)} elements needs "
                f"{len(self.elements) - 1} connectors, got {len(self.connectors)}"
            )
        for connector in self.connectors:
            if connector not in ("next", "following"):
                raise ValueError(f"unknown connector {connector!r}")


@dataclass(frozen=True, slots=True)
class Descendant:
    """A ``//pi`` list item: ``pi`` must match some proper descendant.

    We read "descendant" as XPath does: a child, grandchild, etc. — never
    the node itself.
    """

    pattern: Pattern


ListItem = TypingUnion[Sequence, Descendant]


def _term_vars(term: Term) -> Iterator[Var]:
    if isinstance(term, Var):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.args:
            yield from _term_vars(arg)


def _coerce_term(value) -> Term:
    if isinstance(value, (Var, Const, SkolemTerm)):
        return value
    if isinstance(value, str):
        return Var(value)
    return Const(value)


def node(
    label: str,
    vars: tuple | list | None = None,
    items: tuple | list = (),
) -> Pattern:
    """Convenience constructor for :class:`Pattern`.

    Strings inside *vars* become variables, other plain values become
    constants, and bare :class:`Pattern` objects inside *items* are wrapped
    into singleton sequences::

        node("prof", ["x"], [node("teach"), Descendant(node("course", ["c"]))])
    """
    coerced_vars = None if vars is None else tuple(_coerce_term(v) for v in vars)
    coerced_items: list[ListItem] = []
    for item in items:
        if isinstance(item, Pattern):
            coerced_items.append(Sequence((item,)))
        elif isinstance(item, (Sequence, Descendant)):
            coerced_items.append(item)
        else:
            raise TypeError(f"cannot use {item!r} as a pattern list item")
    return Pattern(label, coerced_vars, tuple(coerced_items))


def seq(*parts) -> Sequence:
    """Build a sequence from alternating patterns and connector strings::

        seq(node("course", ["c1"]), "->", node("course", ["c2"]))
        seq(node("a"), "->*", node("b"), "->", node("c"))
    """
    if not parts or not isinstance(parts[0], Pattern):
        raise TypeError("seq() starts with a Pattern")
    elements = [parts[0]]
    connectors: list[Connector] = []
    index = 1
    while index < len(parts):
        connector = parts[index]
        if connector == "->":
            connectors.append("next")
        elif connector == "->*":
            connectors.append("following")
        else:
            raise TypeError(f"expected '->' or '->*', got {connector!r}")
        if index + 1 >= len(parts) or not isinstance(parts[index + 1], Pattern):
            raise TypeError("connector must be followed by a Pattern")
        elements.append(parts[index + 1])
        index += 2
    return Sequence(tuple(elements), tuple(connectors))
