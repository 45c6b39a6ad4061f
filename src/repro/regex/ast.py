"""Regular expression AST over an arbitrary hashable alphabet.

The operators are exactly those allowed in DTD productions: concatenation,
union (``|``), Kleene star (``*``), plus (``+``), optional (``?``), the empty
word ``eps`` and the empty language.  Expressions are immutable and hashable.

The smart constructors :func:`concat` and :func:`union` perform the obvious
simplifications (flattening, identity/absorbing elements) so that
programmatically assembled expressions stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Regex:
    """Base class for regular expressions.

    A node hashes its structure once: the first ``hash()`` is kept in
    its ``_hash`` field, so a dict probe keyed by a production (the
    DTD's per-production NFAs, the bitset automaton's DFA table) reads
    one cached int instead of walking the tree.  String hashes differ
    from process to process, so pickling rebuilds a node through its
    constructor (``__reduce__``) and never carries the kept hash along.
    """

    __slots__ = ()
    # set by the dataclass subclasses
    _hash: int | None
    __match_args__: tuple[str, ...]

    def _cached_hash(self) -> int:
        cached = self._hash
        if cached is None:
            # a node's type and first field: equal nodes agree on both
            cached = hash((type(self), getattr(self, self.__match_args__[0])))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def symbols(self) -> frozenset:
        """The set of alphabet symbols occurring in the expression."""
        return frozenset(self._symbols())

    def _symbols(self) -> Iterator[object]:
        return iter(())

    def nullable(self) -> bool:
        """True iff the empty word belongs to the language."""
        raise NotImplementedError

    def is_empty_language(self) -> bool:
        """True iff the language is empty (contains no word at all)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Epsilon(Regex):
    """The language containing only the empty word."""

    def nullable(self) -> bool:
        return True

    def is_empty_language(self) -> bool:
        return False

    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True, slots=True)
class Empty(Regex):
    """The empty language."""

    def nullable(self) -> bool:
        return False

    def is_empty_language(self) -> bool:
        return True

    def __str__(self) -> str:
        return "empty"


EPSILON = Epsilon()
EMPTY = Empty()


@dataclass(frozen=True, slots=True)
class Symbol(Regex):
    """A single alphabet symbol."""

    symbol: object
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        yield self.symbol

    def nullable(self) -> bool:
        return False

    def is_empty_language(self) -> bool:
        return False

    def __str__(self) -> str:
        return str(self.symbol)


@dataclass(frozen=True, slots=True)
class Concat(Regex):
    """Concatenation of two or more expressions."""

    parts: tuple[Regex, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        for part in self.parts:
            yield from part._symbols()

    def nullable(self) -> bool:
        return all(part.nullable() for part in self.parts)

    def is_empty_language(self) -> bool:
        return any(part.is_empty_language() for part in self.parts)

    def __str__(self) -> str:
        return ", ".join(
            f"({part})" if isinstance(part, Union) else str(part) for part in self.parts
        )


@dataclass(frozen=True, slots=True)
class Union(Regex):
    """Union (alternation) of two or more expressions."""

    parts: tuple[Regex, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        for part in self.parts:
            yield from part._symbols()

    def nullable(self) -> bool:
        return any(part.nullable() for part in self.parts)

    def is_empty_language(self) -> bool:
        return all(part.is_empty_language() for part in self.parts)

    def __str__(self) -> str:
        return " | ".join(
            f"({part})" if isinstance(part, (Concat, Union)) else str(part)
            for part in self.parts
        )


def _unary_str(expr: Regex, suffix: str) -> str:
    inner = str(expr)
    if isinstance(expr, (Concat, Union)):
        inner = f"({inner})"
    return inner + suffix


@dataclass(frozen=True, slots=True)
class Star(Regex):
    """Zero or more repetitions."""

    inner: Regex
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        yield from self.inner._symbols()

    def nullable(self) -> bool:
        return True

    def is_empty_language(self) -> bool:
        return False

    def __str__(self) -> str:
        return _unary_str(self.inner, "*")


@dataclass(frozen=True, slots=True)
class Plus(Regex):
    """One or more repetitions."""

    inner: Regex
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        yield from self.inner._symbols()

    def nullable(self) -> bool:
        return self.inner.nullable()

    def is_empty_language(self) -> bool:
        return self.inner.is_empty_language()

    def __str__(self) -> str:
        return _unary_str(self.inner, "+")


@dataclass(frozen=True, slots=True)
class Optional(Regex):
    """Zero or one occurrence."""

    inner: Regex
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = Regex._cached_hash

    def _symbols(self) -> Iterator[object]:
        yield from self.inner._symbols()

    def nullable(self) -> bool:
        return True

    def is_empty_language(self) -> bool:
        return False

    def __str__(self) -> str:
        return _unary_str(self.inner, "?")


def concat(parts: Iterable[Regex]) -> Regex:
    """Smart concatenation: flattens, drops epsilons, absorbs empty."""
    flat: list[Regex] = []
    for part in parts:
        if isinstance(part, Empty):
            return EMPTY
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union(parts: Iterable[Regex]) -> Regex:
    """Smart union: flattens, drops empty languages, dedups."""
    flat: list[Regex] = []
    for part in parts:
        if isinstance(part, Empty):
            continue
        flat.extend(part.parts if isinstance(part, Union) else (part,))
    if len(flat) > 1:
        # first occurrence wins; a lone alternative is never hashed
        flat = list(dict.fromkeys(flat))
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))
