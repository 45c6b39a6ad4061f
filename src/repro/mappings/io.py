"""The ``.xsm`` mapping file format: a whole schema mapping in one file.

Format (``#`` comments allowed anywhere)::

    # professors to courses
    source:
        r -> prof*
        prof(name) -> teach
        teach(y) -> course, course
        course(cn)
    target:
        r -> course*
        course(cn, y)
    std: r[prof(x)[teach(y)[course(c1)]]] -> r[course(c1, y)]
    std: ...

Sections: exactly one ``source:`` and one ``target:`` block of DTD
declarations (the usual DTD syntax, indented or not), followed by any
number of ``std:`` lines.  :func:`render_mapping` writes the same format,
so composed mappings can be saved and reloaded.

:func:`parse_mapping` is the one entry point every caller parses mapping
text through.  A warm session passes its parse table (``table=``), so a
text it has seen is a lookup and a revision re-parses only its changed
DTD sections and std lines; a one-shot caller passes none and parses
everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ParseError
from repro.mappings.skolem import SkolemMapping
from repro.mappings.std import parse_std
from repro.xmlmodel.dtd import parse_dtd

if TYPE_CHECKING:
    from repro.engine.cache import LRU


def parse_mapping(text: str, table: LRU | None = None) -> SkolemMapping:
    """Parse a mapping from the ``.xsm`` format.

    *table* is an optional parse table (an
    :class:`~repro.engine.cache.LRU`, as a warm
    :class:`~repro.incremental.IncrementalEngine` owns) shared by every
    request of a session.  It maps the whole text to the mapping parsed
    from it, so a repeated text returns the same object (and the digests
    memoized on it), and each DTD section and std line to its ``DTD`` or
    ``STD``, so a new revision parses only the lines it changed.  Text
    that raises :class:`~repro.errors.ParseError` leaves no entry for
    itself.  Without a table every call parses afresh.
    """
    if table is not None:
        mapping = table.get(("mapping", text), None)
        if mapping is not None:
            return mapping
    source_lines: list[str] = []
    target_lines: list[str] = []
    stds: list[str] = []
    section: list[str] | None = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "source:":
            section = source_lines
        elif line == "target:":
            section = target_lines
        elif line.startswith("std:"):
            stds.append(line[len("std:"):].strip())
            section = None
        elif section is not None:
            section.append(line)
        else:
            raise ParseError(
                f"line {line_number}: expected 'source:', 'target:' or 'std:', "
                f"got {line!r}"
            )
    if not source_lines:
        raise ParseError("mapping file has no 'source:' section")
    if not target_lines:
        raise ParseError("mapping file has no 'target:' section")
    if table is None:
        return SkolemMapping(
            parse_dtd("\n".join(source_lines)),
            parse_dtd("\n".join(target_lines)),
            [parse_std(std) for std in stds],
        )

    def part(key: tuple[str, str], parse):
        value = table.get(key, None)
        if value is None:
            value = parse(key[1])
            table.put(key, value)
        return value

    mapping = SkolemMapping(
        part(("source", "\n".join(source_lines)), parse_dtd),
        part(("target", "\n".join(target_lines)), parse_dtd),
        [part(("std", std), parse_std) for std in stds],
    )
    table.put(("mapping", text), mapping)
    return mapping


def _render_dtd(dtd) -> list[str]:
    lines = []
    labels = sorted(dtd.productions, key=lambda l: (l != dtd.root, l))
    for label in labels:
        attrs = dtd.attributes[label]
        head = label if not attrs else f"{label}({', '.join(attrs)})"
        lines.append(f"    {head} -> {dtd.productions[label]}")
    return lines


def render_mapping(mapping) -> str:
    """Write a mapping in the ``.xsm`` format (inverse of :func:`parse_mapping`)."""
    lines = ["source:"]
    lines.extend(_render_dtd(mapping.source_dtd))
    lines.append("target:")
    lines.extend(_render_dtd(mapping.target_dtd))
    for std in mapping.stds:
        lines.append(f"std: {std}")
    return "\n".join(lines) + "\n"
