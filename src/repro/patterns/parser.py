"""Parser and serializer for the textual pattern syntax.

Syntax (mirrors the paper, with ``//`` for descendant and ``->``/``->*``
for next-/following-sibling)::

    r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]],
              supervise[student(s)]]]
    r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)]]
    r//a(x)                  -- descendant shortcut l//l'
    r/a(x)/b                 -- child shortcut l/l'
    _[a, b]                  -- wildcard label
    a("lit", 5, x)           -- quoted strings and numbers are constants,
                                bare identifiers are variables
    t(f(x), y)               -- f(x) is a Skolem term (Section 8)

A node without parentheses (``teach``) leaves attributes unconstrained
(the ``SM°`` form); ``teach()`` demands zero attributes.
"""

from __future__ import annotations

import re

from repro.errors import ParseError, check_nesting
from repro.patterns.ast import (
    WILDCARD,
    Descendant,
    ListItem,
    Pattern,
    Sequence,
)
from repro.values import Const, SkolemTerm, Term, Var

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrowstar>->\*)
  | (?P<arrow>->)
  | (?P<dslash>//)
  | (?P<neq>!=)
  | (?P<number>-?\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-.]*)
  | (?P<punct>[()\[\],/=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        match = _TOKEN_RE.match(text, i)
        if match is None:
            raise ParseError("unexpected character in pattern", text, i)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), i))
        i = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of pattern", self.text, len(self.text))
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        __, got, offset = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", self.text, offset)

    # path := node (('/' | '//') node)*
    # *depth* counts the pattern nodes above this one: each path step
    # nests one level deeper, like an item list does
    def parse_path(self, depth: int = 0) -> Pattern:
        steps: list[tuple[str | None, Pattern]] = [(None, self.parse_node(depth))]
        while True:
            token = self.peek()
            if token is None or token[1] not in ("/", "//"):
                break
            __, separator, __ = self.next()
            steps.append((separator, self.parse_node(depth + len(steps))))
        pattern = steps[-1][1]
        for index in range(len(steps) - 2, -1, -1):
            __, parent = steps[index]
            separator = steps[index + 1][0]
            item: ListItem = (
                Descendant(pattern) if separator == "//" else Sequence((pattern,))
            )
            pattern = Pattern(parent.label, parent.vars, parent.items + (item,))
        return pattern

    def parse_node(self, depth: int) -> Pattern:
        kind, label, offset = self.next()
        if kind != "ident":
            raise ParseError(f"expected a label, got {label!r}", self.text, offset)
        check_nesting(depth, self.text, offset)
        vars_: tuple[Term, ...] | None = None
        items: list[ListItem] = []
        token = self.peek()
        if token is not None and token[1] == "(":
            self.next()
            terms: list[Term] = []
            if self.peek() is not None and self.peek()[1] != ")":
                terms.append(self.parse_term())
                while self.peek() is not None and self.peek()[1] == ",":
                    self.next()
                    terms.append(self.parse_term())
            self.expect(")")
            vars_ = tuple(terms)
            token = self.peek()
        if token is not None and token[1] == "[":
            self.next()
            if self.peek() is not None and self.peek()[1] != "]":
                items.append(self.parse_item(depth + 1))
                while self.peek() is not None and self.peek()[1] == ",":
                    self.next()
                    items.append(self.parse_item(depth + 1))
            self.expect("]")
        return Pattern(label, vars_, tuple(items))

    def parse_term(self, depth: int = 0) -> Term:
        kind, value, offset = self.next()
        check_nesting(depth, self.text, offset)
        if kind == "number":
            return Const(int(value))
        if kind == "string":
            return Const(value[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if kind == "ident":
            token = self.peek()
            if token is not None and token[1] == "(":
                self.next()
                args: list[Term] = []
                if self.peek() is not None and self.peek()[1] != ")":
                    args.append(self.parse_term(depth + 1))
                    while self.peek() is not None and self.peek()[1] == ",":
                        self.next()
                        args.append(self.parse_term(depth + 1))
                self.expect(")")
                return SkolemTerm(value, tuple(args))
            return Var(value)
        raise ParseError(f"expected a term, got {value!r}", self.text, offset)

    def parse_item(self, depth: int) -> ListItem:
        token = self.peek()
        if token is not None and token[0] == "dslash":
            self.next()
            return Descendant(self.parse_path(depth))
        return self.parse_sequence(depth)

    def parse_sequence(self, depth: int) -> Sequence:
        elements = [self.parse_path(depth)]
        connectors: list[str] = []
        while True:
            token = self.peek()
            if token is None or token[0] not in ("arrow", "arrowstar"):
                break
            kind, __, __ = self.next()
            connectors.append("next" if kind == "arrow" else "following")
            elements.append(self.parse_path(depth))
        return Sequence(tuple(elements), tuple(connectors))


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern from text; raise :class:`ParseError` on junk.

    Patterns deeper than :data:`repro.errors.MAX_NESTING` count as junk.
    """
    parser = _Parser(text)
    pattern = parser.parse_path()
    if parser.peek() is not None:
        __, value, offset = parser.peek()
        raise ParseError(f"trailing input {value!r} in pattern", text, offset)
    return pattern


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-.]*\Z")


def serialize_term(term: Term) -> str:
    """Render a term; constants are always quoted/numeric, never bare."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, SkolemTerm):
        return f"{term.function}({', '.join(serialize_term(a) for a in term.args)})"
    value = term.value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize_pattern(pattern: Pattern) -> str:
    """Render *pattern* in the syntax accepted by :func:`parse_pattern`."""
    parts = [pattern.label]
    if pattern.vars is not None:
        parts.append("(" + ", ".join(serialize_term(t) for t in pattern.vars) + ")")
    if pattern.items:
        rendered = []
        for item in pattern.items:
            if isinstance(item, Descendant):
                rendered.append("//" + serialize_pattern(item.pattern))
            else:
                chunks = [serialize_pattern(item.elements[0])]
                for connector, element in zip(item.connectors, item.elements[1:]):
                    chunks.append("->" if connector == "next" else "->*")
                    chunks.append(serialize_pattern(element))
                rendered.append(" ".join(chunks))
        parts.append("[" + ", ".join(rendered) + "]")
    return "".join(parts)
