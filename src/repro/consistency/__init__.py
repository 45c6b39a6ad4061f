"""Static analysis of schema mappings: consistency (Sections 5 and 6).

* :mod:`repro.consistency.cons_automata` — the EXPTIME algorithm for
  ``CONS(⇓, ⇒)`` (Theorem 5.2): mappings without data comparisons, decided
  by trigger-set reachability over products of tree automata.
* :mod:`repro.consistency.cons_nested` — the PTIME algorithm for
  ``CONS(⇓)`` over nested-relational DTDs (Fact 5.1, from [4]).
* :mod:`repro.consistency.bounded` — the one bounded search, for the
  classes with data comparisons: the NEXPTIME witness-guessing for
  nested-relational ``CONS(⇓, ∼)`` (Theorem 5.5) and the semi-decision
  procedure for the undecidable classes (Theorem 5.4); its target
  generator also serves bounded CONSCOMP and composition membership.
  Trees come one per equality type (:mod:`repro.consistency.enumeration`),
  and sources are decided exactly where an exact test applies.
* :mod:`repro.consistency.abscons` — absolute consistency (Section 6).

:func:`is_consistent` dispatches to the strongest applicable algorithm.
"""

from repro.consistency.cons_automata import (
    consistency_witness_automata,
    is_consistent_automata,
)
from repro.consistency.cons_nested import (
    is_consistent_nested,
    nested_consistency_witness,
)
from repro.consistency.bounded import (
    find_consistency_witness_bounded,
    is_consistent_bounded,
)
from repro.consistency.dispatch import consistency_witness, is_consistent
from repro.consistency.expansion import (
    expand_mapping_sources,
    expand_source_pattern,
    is_absolutely_consistent_expanded,
)
from repro.consistency.abscons import (
    abscons_counterexample,
    abscons_ptime_analysis,
    is_absolutely_consistent,
    is_absolutely_consistent_sm0,
    is_absolutely_consistent_ptime,
)

__all__ = [
    "is_consistent",
    "consistency_witness",
    "is_consistent_automata",
    "consistency_witness_automata",
    "is_consistent_nested",
    "nested_consistency_witness",
    "is_consistent_bounded",
    "find_consistency_witness_bounded",
    "is_absolutely_consistent",
    "is_absolutely_consistent_sm0",
    "is_absolutely_consistent_ptime",
    "abscons_counterexample",
    "abscons_ptime_analysis",
    "expand_source_pattern",
    "expand_mapping_sources",
    "is_absolutely_consistent_expanded",
]
