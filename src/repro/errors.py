"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`XsmError` so callers can
catch everything coming out of the schema-mapping machinery with a single
``except`` clause while still being able to distinguish parse problems from
semantic ones.
"""

from __future__ import annotations


class XsmError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParseError(XsmError):
    """Raised when parsing a tree, DTD, regex, or pattern from text fails.

    Carries the offending ``text`` and the ``position`` (character offset)
    where the parser gave up, when available.
    """

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        self.text = text
        self.position = position
        if text is not None and position is not None:
            snippet = text[max(0, position - 15):position + 15]
            message = f"{message} (at offset {position}: ...{snippet!r}...)"
        super().__init__(message)


#: How deep the text parsers let brackets nest.  Every later stage walks
#: parsed trees, patterns and regexes recursively, so deeper input is
#: refused up front with a :class:`ParseError` instead of failing later
#: with a ``RecursionError``.
MAX_NESTING = 100


def check_nesting(depth: int, text: str, position: int) -> None:
    """Raise :class:`ParseError` when *depth* exceeds :data:`MAX_NESTING`."""
    if depth > MAX_NESTING:
        raise ParseError(
            f"nesting deeper than {MAX_NESTING} levels", text, position
        )


class ConformanceError(XsmError):
    """Raised when a tree is required to conform to a DTD but does not."""


class SignatureError(XsmError):
    """Raised when a mapping uses features outside the declared class SM(sigma)."""


class NotInClassError(XsmError):
    """Raised when an operation requires a restricted mapping class.

    For example, the syntactic composition of Theorem 8.2 requires strictly
    nested-relational DTDs and fully-specified stds; feeding it anything else
    raises this error and names the violated restriction.
    """


class UnknownVerdictError(XsmError):
    """Raised when an ``Unknown`` verdict is forced into a boolean.

    The engine's verdicts are truthy (``Proved`` is True, ``Refuted`` is
    False) so existing boolean call sites keep working, but an ``Unknown``
    has no honest boolean value — callers must inspect ``.is_unknown`` or
    ``.decision()``.
    """


class BoundExceededError(XsmError):
    """Raised by bounded decision procedures that could not conclude.

    The bounded procedures (general absolute consistency, composition
    membership with unrestricted intermediates, semi-decision procedures for
    the undecidable fragments) are sound whenever they answer; when the
    search bound is exhausted without an answer they raise this error rather
    than guessing.
    """

    def __init__(self, message: str, bound: int | None = None):
        self.bound = bound
        super().__init__(message)
