"""Data exchange: constructing target instances (the paper's Section 9
future-work direction, realized for the tractable class).

:func:`~repro.exchange.canonical.canonical_solution` builds a canonical
target tree for a source tree under a mapping with fully-specified stds
and a nested-relational target DTD — the class where solutions merge
deterministically (rigid positions are forced together, starred positions
stay apart, missing required structure is filled minimally with nulls).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".canonical": ("canonical_solution",),
})
