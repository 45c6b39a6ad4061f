"""Parser for the DTD production syntax.

Grammar (standard precedence: postfix ``* + ?`` bind tightest, then
sequence, then ``|``)::

    expr   := seq ('|' seq)*
    seq    := item ((',')? item)*        -- comma optional between items
    item   := atom ('*' | '+' | '?')*
    atom   := IDENT | 'eps' | 'empty' | '(' expr ')'

Examples accepted (all appear in the paper)::

    prof*
    teach, supervise
    course, course
    b1 | b2
    c1? c2? c3?
    eps
"""

from __future__ import annotations

import re

from repro.errors import ParseError, check_nesting
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    concat,
    union,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-.]*)
  | (?P<punct>[()|,*+?])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        match = _TOKEN_RE.match(text, i)
        if match is None:
            raise ParseError("unexpected character in regex", text, i)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), i))
        i = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        #: open parentheses around the current position
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of regex", self.text, len(self.text))
        self.pos += 1
        return token

    def parse_expr(self) -> Regex:
        parts = [self.parse_seq()]
        while self.peek() is not None and self.peek()[1] == "|":
            self.next()
            parts.append(self.parse_seq())
        return union(parts)

    def parse_seq(self) -> Regex:
        parts = [self.parse_item()]
        while True:
            token = self.peek()
            if token is None or token[1] in ")|":
                break
            if token[1] == ",":
                self.next()
                token = self.peek()
                if token is None or token[1] in ")|,":
                    raise ParseError("dangling comma in regex", self.text,
                                     len(self.text) if token is None else token[2])
            parts.append(self.parse_item())
        return concat(parts)

    def parse_item(self) -> Regex:
        expr = self.parse_atom()
        ops = 0
        while self.peek() is not None and self.peek()[1] in "*+?":
            __, op, offset = self.next()
            # each operator wraps the expression one level deeper
            ops += 1
            check_nesting(self.depth + ops, self.text, offset)
            if op == "*":
                expr = Star(expr)
            elif op == "+":
                expr = Plus(expr)
            else:
                expr = Optional(expr)
        return expr

    def parse_atom(self) -> Regex:
        kind, value, offset = self.next()
        if value == "(":
            self.depth += 1
            check_nesting(self.depth, self.text, offset)
            expr = self.parse_expr()
            self.depth -= 1
            kind, value, offset = self.next()
            if value != ")":
                raise ParseError(f"expected ')', got {value!r}", self.text, offset)
            return expr
        if kind == "ident":
            if value == "eps":
                return EPSILON
            if value == "empty":
                return EMPTY
            return Symbol(value)
        raise ParseError(f"unexpected token {value!r} in regex", self.text, offset)


def parse_regex(text: str) -> Regex:
    """Parse a regular expression in DTD production syntax.

    The empty string parses to epsilon (an element with no children).
    Nesting deeper than :data:`repro.errors.MAX_NESTING` (parentheses
    plus postfix operators) is a :class:`ParseError`.
    """
    if not text.strip():
        return EPSILON
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.peek() is not None:
        __, value, offset = parser.peek()
        raise ParseError(f"trailing input {value!r} in regex", text, offset)
    return expr
