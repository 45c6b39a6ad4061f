"""Brute-force machinery for cross-validating the real algorithms.

Everything in this package is deliberately naive: it enumerates trees
conforming to a DTD up to a size bound over a small data-value domain and
decides consistency / membership / composition questions by exhaustive
search.  The test suite compares every polished algorithm against these
oracles on small random instances — which is how a reproduction of a
theory paper earns trust in its decision procedures.  It also keeps the
reference implementations the production code was rewritten from: the
plain tree automata (:mod:`repro.verification.automata`) and the
round-based reachability over them (:mod:`repro.verification.reachability`).
Production code never imports this package.
"""

from repro.verification.enumeration import (
    count_trees,
    enumerate_label_trees,
    enumerate_trees,
)
from repro.verification.oracle import (
    oracle_composition_contains,
    oracle_counterexample,
    oracle_has_solution,
    oracle_is_absolutely_consistent,
    oracle_is_consistent,
    oracle_is_solution,
    oracle_solutions,
)
from repro.verification.reachability import reachable_states_naive

__all__ = [
    "enumerate_label_trees",
    "enumerate_trees",
    "count_trees",
    "oracle_has_solution",
    "oracle_solutions",
    "oracle_is_consistent",
    "oracle_is_absolutely_consistent",
    "oracle_is_solution",
    "oracle_counterexample",
    "oracle_composition_contains",
    "reachable_states_naive",
]
