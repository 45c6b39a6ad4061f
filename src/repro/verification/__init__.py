"""Brute-force machinery for cross-validating the real algorithms.

Everything in this package is deliberately naive: it enumerates trees
conforming to a DTD up to a size bound over a small data-value domain and
decides consistency / membership / composition questions by exhaustive
search.  The test suite compares every polished algorithm against these
oracles on small random instances — which is how a reproduction of a
theory paper earns trust in its decision procedures.
"""

from importlib import import_module

#: Public name -> defining submodule, imported on first access (PEP 562), so
#: importing ``repro.verification.enumeration`` does not load the oracles.
_EXPORTS = {
    "enumerate_label_trees": "enumeration",
    "enumerate_trees": "enumeration",
    "count_trees": "enumeration",
    "oracle_has_solution": "oracle",
    "oracle_solutions": "oracle",
    "oracle_is_consistent": "oracle",
    "oracle_is_absolutely_consistent": "oracle",
    "oracle_is_solution": "oracle",
    "oracle_counterexample": "oracle",
    "oracle_composition_contains": "oracle",
    "reachable_states_naive": "reachability",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
