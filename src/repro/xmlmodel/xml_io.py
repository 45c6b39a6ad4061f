"""Real XML (angle-bracket) import and export.

The library's native syntax (``r[a(1), b]``) is compact for theory work,
but documents in the wild are XML.  This module converts both ways with
the standard library's expat reader and no third-party dependencies:

* :func:`to_xml` renders a tree as an XML string; attribute *names* come
  from the DTD (the tree itself stores only the ordered value tuple, as in
  the paper's model), falling back to ``a0, a1, ...``.  Tab, LF and CR in
  values become character references, which a conforming reader does not
  normalise to spaces; code points XML 1.0 cannot carry are an error;
* :func:`from_xml` reads well-formed XML 1.0 without DTD subsets or text
  content.  A plain ``<!DOCTYPE r>`` is skipped, but an internal or
  external subset is refused: its entities and attribute defaults would
  change values behind the library's DTD.  Text other than whitespace is
  refused (the paper's model has no text nodes), and so is nesting deeper
  than :data:`repro.errors.MAX_NESTING`.

Values round-trip as strings; the default ``coerce=int_coercion`` turns
digit strings into ints, matching the native parser's convention.
"""

from __future__ import annotations

import re
from pyexpat import ErrorString, ExpatError, ParserCreate
from typing import Callable

from repro.errors import MAX_NESTING, ParseError, XsmError, check_nesting
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode

_NOT_XML = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NOT_XML_RE = re.compile(f"[{_NOT_XML}]")
#: What :func:`_escape` rewrites or refuses; most values hold none of it.
_SPECIAL_RE = re.compile(f'[&<>"\t\n\r{_NOT_XML}]')
_INT_RE = re.compile(r"-?\d+")


def _escape(value: str) -> str:
    if _SPECIAL_RE.search(value) is None:
        return value
    bad = _NOT_XML_RE.search(value)
    if bad is not None:
        raise XsmError(f"value {value!r} holds {bad.group()!r}, which XML 1.0 cannot carry")
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def _attribute_names(dtd: DTD | None, label: str, arity: int) -> tuple[str, ...]:
    if dtd is not None:
        declared = dtd.attributes.get(label, ())
        if len(declared) == arity:
            return declared
    return tuple(f"a{i}" for i in range(arity))


def to_xml(node: TreeNode, dtd: DTD | None = None, indent: int = 2) -> str:
    """Render *node* as an XML document string."""
    lines: list[str] = []
    names: dict[tuple[str, int], tuple[str, ...]] = {}
    # (node, depth) still to render, or (None, closing tag) to write
    stack: list[tuple] = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if current is None:
            lines.append(depth)
            continue
        pad = " " * (indent * depth)
        label, values = current.label, current.attrs
        key = (label, len(values))
        if key not in names:
            names[key] = _attribute_names(dtd, *key)
        attrs = "".join(
            f' {name}="{_escape(str(value))}"' for name, value in zip(names[key], values)
        )
        if not current.children:
            lines.append(f"{pad}<{label}{attrs}/>")
            continue
        lines.append(f"{pad}<{label}{attrs}>")
        stack.append((None, f"{pad}</{label}>"))
        stack += [(child, depth + 1) for child in reversed(current.children)]
    return "\n".join(lines) + "\n"


def int_coercion(value: str):
    """The default value coercion: digit strings become ints."""
    if _INT_RE.fullmatch(value):
        return int(value)
    return value


class _Coerced(dict):
    """Attribute string -> coerced value, computed on first lookup."""

    def __init__(self, coerce: Callable[[str], object]):
        self.coerce = coerce

    def __missing__(self, value: str) -> object:
        result = self[value] = self.coerce(value)
        return result


def from_xml(
    text: str,
    dtd: DTD | None = None,
    coerce: Callable[[str], object] | None = int_coercion,
) -> TreeNode:
    """Parse an XML document into a tree; raise :class:`ParseError` on junk.

    With a *dtd*, attributes are ordered by the DTD's declaration (and
    unknown/missing attributes are an error); without one, attribute
    document order is kept.  *coerce* is called once per distinct
    attribute string of the document, and its result is shared.
    """
    parser = ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    declared = dtd.attributes if dtd is not None else {}
    names_of = {label: list(names) for label, names in declared.items()}
    coerced = _Coerced(coerce).__getitem__ if coerce is not None else None
    # an (attribute values, children) frame per open element, above one for the root
    stack: list[tuple[tuple, list[TreeNode]]] = [((), [])]

    def here(byte_index: int | None = None) -> int:
        if byte_index is None:
            byte_index = parser.CurrentByteIndex
        return _char_offset(text, byte_index)

    def start(label: str, flat: list[str]) -> None:
        depth = len(stack) - 1
        if depth > MAX_NESTING:
            check_nesting(depth, text, here())
        values = flat[1::2]
        if dtd is not None and flat[::2] != names_of.get(label):
            values = _order_attributes(declared.get(label), label, flat, text, here)
        stack.append((tuple(map(coerced, values) if coerced else values), []))

    def end(label: str) -> None:
        values, children = stack.pop()
        stack[-1][1].append(TreeNode(label, values, children))

    def characters(data: str) -> None:
        if not data.isspace():
            # buffered text arrives with the next event; point at its start
            start_byte = parser.CurrentByteIndex - len(data.lstrip().encode())
            raise ParseError(
                "text content is not part of the tree model", text, here(start_byte)
            )

    def doctype(name, system_id, public_id, has_internal_subset) -> None:
        if has_internal_subset or system_id is not None or public_id is not None:
            raise ParseError(f"DOCTYPE {name!r} has a DTD subset", text, here())

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(text, True)
    except ExpatError as error:
        message = f"malformed XML: {ErrorString(error.code)}"
        raise ParseError(message, text, here(parser.ErrorByteIndex)) from None
    except UnicodeEncodeError as error:
        raise ParseError(f"malformed XML: {error.reason}", text, error.start) from None
    return stack[0][1][0]


def _char_offset(text: str, byte_index: int) -> int:
    """The character offset in *text* of UTF-8 byte offset *byte_index*."""
    if byte_index <= 0 or text.isascii():
        return max(0, min(byte_index, len(text)))
    return len(text.encode()[:byte_index].decode(errors="ignore"))


def _order_attributes(
    declared: tuple[str, ...] | None,
    label: str,
    flat: list[str],
    text: str,
    here: Callable[[], int],
) -> list[str]:
    """The values of *flat* (``[name, value, ...]``) in *declared* order."""
    if declared is None:
        raise ParseError(f"unknown element type {label!r}", text, here())
    by_name = dict(zip(flat[::2], flat[1::2]))
    if set(by_name) != set(declared):
        raise ParseError(
            f"element {label!r} must carry attributes {list(declared)}, "
            f"got {sorted(by_name)}",
            text,
            here(),
        )
    return [by_name[name] for name in declared]
