"""Composition of schema mappings (Sections 7 and 8).

* :mod:`repro.composition.semantics` — membership in
  ``[[M12]] ∘ [[M23]]`` (Theorem 7.3) via intermediate-tree search with a
  finite data-value abstraction.
* :mod:`repro.composition.conscomp` — consistency of composition
  (Theorem 7.1 / Proposition 7.2), exact for comparison-free mappings via
  chained trigger-set reachability over tree automata.
* :mod:`repro.composition.compose` — the constructive closure result
  (Theorem 8.2): syntactic composition for Skolem mappings over strictly
  nested-relational DTDs with fully-specified stds.
* :mod:`repro.composition.gallery` — the Proposition 8.1 counterexamples
  showing which features break closure.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".semantics": (
        "composition_contains", "composition_contains_exact",
        "composition_value_domain",
    ),
    ".conscomp": ("is_composition_consistent", "is_composition_consistent_bounded"),
    ".compose": ("compose",),
})
