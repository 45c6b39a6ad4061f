"""Schema mappings and their feature-signature classification.

The paper writes ``SM(sigma)`` for the class of mappings whose stds use
only the features in ``sigma``: navigation axes (child is always present;
descendant, next-sibling, following-sibling), wildcard, and the value
comparisons ``=`` / ``!=``.  :meth:`SchemaMapping.signature` computes the
signature of a mapping; the shorthand groups of the paper are exposed as
:data:`VERTICAL` (⇓), :data:`HORIZONTAL` (⇒) and :data:`COMPARISONS` (∼).

Following [4] (and the remark after Definition 3.1), reusing a variable in
a *target* pattern does not count as the ``=`` feature — only source-side
equalities do.  Inequalities never appear inside patterns; they live in the
``alpha`` formulae.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import SignatureError
from repro.mappings.std import STD, parse_std
from repro.patterns.features import (
    CHILD,
    COMPARISONS,
    DESCENDANT,
    EQUALITY,
    FOLLOWING_SIBLING,
    HORIZONTAL,
    INEQUALITY,
    NEXT_SIBLING,
    VERTICAL,
    WILDCARD_FEATURE,
    axes_of,
)
from repro.xmlmodel.dtd import DTD, parse_dtd


@dataclass(frozen=True)
class Signature:
    """A set of mapping features, printable in the paper's ``SM(...)`` style."""

    features: frozenset[str]

    def __contains__(self, feature: str) -> bool:
        return feature in self.features

    def issubset(self, allowed: Iterable[str]) -> bool:
        """Is every used feature allowed?  Child and wildcard are free."""
        allowed_set = set(allowed) | {CHILD, WILDCARD_FEATURE}
        return self.features <= allowed_set

    def __str__(self) -> str:
        groups = []
        if self.features & VERTICAL:
            groups.append("⇓" if DESCENDANT in self.features else "↓")
        if self.features & HORIZONTAL:
            horizontal = self.features & HORIZONTAL
            groups.append("⇒" if horizontal == HORIZONTAL else
                          ("→" if NEXT_SIBLING in horizontal else "→*"))
        if self.features & COMPARISONS:
            comparisons = self.features & COMPARISONS
            groups.append("∼" if comparisons == COMPARISONS else
                          ("=" if EQUALITY in comparisons else "≠"))
        return f"SM({', '.join(groups)})"


#: The features grammar (5) (fully-specified patterns) rules out.
_UNSPECIFIED = frozenset(
    {DESCENDANT, NEXT_SIBLING, FOLLOWING_SIBLING, WILDCARD_FEATURE}
)


def _std_features(std: STD) -> frozenset[str]:
    """The signature features one std uses (memoized on the std)."""
    return std._memo("features", lambda: _compute_std_features(std))


def _compute_std_features(std: STD) -> frozenset[str]:
    features: set[str] = set()
    for pattern in (std.source, std.target):
        axes = axes_of(pattern)
        if axes.descendant:
            features.add(DESCENDANT)
        if axes.next_sibling:
            features.add(NEXT_SIBLING)
        if axes.following_sibling:
            features.add(FOLLOWING_SIBLING)
        if axes.wildcard:
            features.add(WILDCARD_FEATURE)
    if std.source.has_repeated_variables():
        features.add(EQUALITY)
    for comparison in std.source_conditions + std.target_conditions:
        features.add(EQUALITY if comparison.op == "=" else INEQUALITY)
    return frozenset(features)


class SchemaMapping:
    """An XML schema mapping ``M = (D_s, D_t, Sigma)`` (Definition 3.2)."""

    def __init__(self, source_dtd: DTD, target_dtd: DTD, stds: Iterable[STD | str]):
        self.source_dtd = source_dtd
        self.target_dtd = target_dtd
        self.stds: tuple[STD, ...] = tuple(
            parse_std(std) if isinstance(std, str) else std for std in stds
        )

    @classmethod
    def parse(
        cls, source_dtd: DTD | str, target_dtd: DTD | str, stds: Sequence[str]
    ) -> "SchemaMapping":
        """Build a mapping from textual DTDs and stds (works for subclasses)."""
        if isinstance(source_dtd, str):
            source_dtd = parse_dtd(source_dtd)
        if isinstance(target_dtd, str):
            target_dtd = parse_dtd(target_dtd)
        return cls(source_dtd, target_dtd, stds)

    def __repr__(self) -> str:
        return (
            f"SchemaMapping({self.signature()}, {len(self.stds)} stds, "
            f"source root {self.source_dtd.root!r}, target root {self.target_dtd.root!r})"
        )

    # -- per-instance memos ---------------------------------------------------
    # The DTDs and the std tuple are fixed at construction, so whole-mapping
    # facts (signature, digests, class predicates) are computed once per
    # instance.  Memos are per-process accelerators: shed on pickling.

    def _memo(self, name: str, compute: Callable[[], object]):
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = compute()
        return value

    def __getstate__(self):
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.startswith("_")
        }

    # -- classification -------------------------------------------------------

    def signature(self) -> Signature:
        """The feature set actually used by the stds (memoized — the std
        tuple is fixed at construction, and routing, prediction and the
        linter all re-ask)."""
        return self._memo("_signature", self._compute_signature)

    def _compute_signature(self) -> Signature:
        return Signature(
            frozenset({CHILD}).union(*(_std_features(std) for std in self.stds))
        )

    def check_signature(self, allowed: Iterable[str]) -> None:
        """Raise :class:`SignatureError` if features outside *allowed* are used."""
        signature = self.signature()
        if not signature.issubset(allowed):
            extra = signature.features - (set(allowed) | {CHILD, WILDCARD_FEATURE})
            raise SignatureError(
                f"mapping uses features {sorted(extra)} outside the class "
                f"SM({sorted(allowed)})"
            )

    def uses_data_comparisons(self) -> bool:
        """True iff the signature contains ``=`` or ``!=`` (the ∼ features)."""
        return bool(self.signature().features & COMPARISONS)

    def uses_skolem_functions(self) -> bool:
        return self._memo(
            "_skolem", lambda: any(std.skolem_functions() for std in self.stds)
        )

    def is_nested_relational(self) -> bool:
        """Both DTDs nested-relational (the tractable frontier of Fig. 1)."""
        return (
            self.source_dtd.is_nested_relational()
            and self.target_dtd.is_nested_relational()
        )

    def is_fully_specified(self) -> bool:
        """All stds built from fully-specified patterns (grammar (5)):
        no wildcard, descendant or horizontal feature in the signature."""
        return not self.signature().features & _UNSPECIFIED

    # -- transformations --------------------------------------------------------

    def strip_values(self) -> "SchemaMapping":
        """The ``SM°`` mapping: every std stripped of attribute values."""
        return SchemaMapping(
            self.source_dtd, self.target_dtd, [std.strip_values() for std in self.stds]
        )
