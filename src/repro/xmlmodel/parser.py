"""Compact text syntax for trees: ``label(v1, v2)[child1, child2]``.

The syntax mirrors the way the paper writes trees and patterns::

    r[prof("Ada")[teach[year(2009)[course("db101"), course("db102")]]]]

* attribute values are integers, quoted strings, or bare identifiers
  (parsed as strings);
* ``(...)`` may be omitted when a node has no attributes;
* ``[...]`` may be omitted when a node has no children.

:func:`parse_tree` and :func:`serialize_tree` are exact inverses on the
values representable in the syntax (strings and ints).
"""

from __future__ import annotations

import re

from repro.errors import ParseError, check_nesting
from repro.xmlmodel.tree import TreeNode

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-.]*)
  | (?P<punct>[()\[\],])
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-.]*\Z")


class _Tokenizer:
    """Shared tokenizer for the tree syntax (also reused by pattern parsing)."""

    def __init__(self, text: str, extra_punct: str = ""):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize(extra_punct)
        self.pos = 0

    def _tokenize(self, extra_punct: str) -> None:
        i = 0
        text = self.text
        while i < len(text):
            match = _TOKEN_RE.match(text, i)
            if match is None:
                raise ParseError("unexpected character", text, i)
            kind = match.lastgroup
            value = match.group()
            if kind != "ws":
                self.tokens.append((kind, value, i))
            i = match.end()

    def peek(self) -> tuple[str, str, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        kind, got, offset = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", self.text, offset)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _parse_value(tokenizer: _Tokenizer) -> object:
    kind, value, offset = tokenizer.next()
    if kind == "number":
        return int(value)
    if kind == "string":
        return value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if kind == "ident":
        return value
    raise ParseError(f"expected a value, got {value!r}", tokenizer.text, offset)


def _parse_node(tokenizer: _Tokenizer, depth: int = 0) -> TreeNode:
    kind, label, offset = tokenizer.next()
    if kind != "ident":
        raise ParseError(f"expected an element label, got {label!r}", tokenizer.text, offset)
    check_nesting(depth, tokenizer.text, offset)
    attrs: list[object] = []
    children: list[TreeNode] = []
    token = tokenizer.peek()
    if token is not None and token[1] == "(":
        tokenizer.next()
        if tokenizer.peek() is not None and tokenizer.peek()[1] != ")":
            attrs.append(_parse_value(tokenizer))
            while tokenizer.peek() is not None and tokenizer.peek()[1] == ",":
                tokenizer.next()
                attrs.append(_parse_value(tokenizer))
        tokenizer.expect(")")
        token = tokenizer.peek()
    if token is not None and token[1] == "[":
        tokenizer.next()
        if tokenizer.peek() is not None and tokenizer.peek()[1] != "]":
            children.append(_parse_node(tokenizer, depth + 1))
            while tokenizer.peek() is not None and tokenizer.peek()[1] == ",":
                tokenizer.next()
                children.append(_parse_node(tokenizer, depth + 1))
        tokenizer.expect("]")
    return TreeNode(label, attrs, children)


def parse_tree(text: str) -> TreeNode:
    """Parse a tree from the compact syntax; raise :class:`ParseError` on junk.

    Trees deeper than :data:`repro.errors.MAX_NESTING` count as junk.
    """
    tokenizer = _Tokenizer(text)
    node = _parse_node(tokenizer)
    if not tokenizer.at_end():
        __, value, offset = tokenizer.next()
        raise ParseError(f"trailing input {value!r}", text, offset)
    return node


def _serialize_value(value: object) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    text = str(value)
    if _IDENT_RE.match(text):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize_tree(node: TreeNode) -> str:
    """Render *node* back into the compact syntax parsed by :func:`parse_tree`."""
    parts: list[str] = []
    stack: list[TreeNode | str] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(item.label)
        if item.attrs:
            parts.append("(" + ", ".join(_serialize_value(v) for v in item.attrs) + ")")
        if item.children:
            parts.append("[")
            stack.append("]")
            for position in range(len(item.children) - 1, 0, -1):
                stack += (item.children[position], ", ")
            stack.append(item.children[0])
    return "".join(parts)
