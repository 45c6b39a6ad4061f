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
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.mappings.skolem import SkolemMapping
from repro.mappings.std import parse_std
from repro.xmlmodel.dtd import parse_dtd


def parse_mapping(text: str, reuse: dict | None = None) -> SkolemMapping:
    """Parse a mapping from the ``.xsm`` format.

    *reuse* lets successive revisions of one mapping share parsed parts.
    It is a dict the caller keeps between calls, mapping each DTD section
    and std line to the object parsed from it.  A section whose text is
    already there is not parsed again; on success the dict is left
    holding exactly the sections of *text*, so it never grows past one
    revision.
    """
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
    previous = reuse if reuse is not None else {}
    parsed: dict = {}

    def part(key: tuple[str, str], parse):
        value = previous.get(key)
        if value is None:
            value = parse(key[1])
        parsed[key] = value
        return value

    mapping = SkolemMapping(
        part(("source", "\n".join(source_lines)), parse_dtd),
        part(("target", "\n".join(target_lines)), parse_dtd),
        [part(("std", std), parse_std) for std in stds],
    )
    if reuse is not None:
        reuse.clear()
        reuse.update(parsed)
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
