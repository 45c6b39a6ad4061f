"""Front door for consistency checking: picks the strongest algorithm.

Mirrors Figure 1 of the paper:

====================  =======================  ===========================
features              DTDs                     algorithm
====================  =======================  ===========================
no comparisons, ⇓     nested-relational        PTIME (cons_nested)
no comparisons        arbitrary                EXPTIME (cons_automata)
with ∼ / constants    any                      bounded search (sound only)
====================  =======================  ===========================

The routing itself lives in :mod:`repro.engine.core`; this module keeps
the historical entry points as thin wrappers over
``engine.solve(ConsistencyProblem(mapping))``.  :func:`is_consistent`
returns a :class:`~repro.engine.verdicts.Verdict` — in particular the
bounded fallback yields ``Unknown`` instead of raising
:class:`~repro.errors.BoundExceededError`.
"""

from __future__ import annotations

from repro.engine.budget import Budget, ExecutionContext
from repro.engine.problems import ConsistencyProblem
from repro.engine.verdicts import Verdict, WitnessPair
from repro.mappings.mapping import SchemaMapping
from repro.xmlmodel.tree import TreeNode


def budget_context(
    context: ExecutionContext | None,
    max_source_size: int | None,
    max_target_size: int | None = None,
) -> ExecutionContext | None:
    """*context* with its budget's size bounds overridden where given."""
    if max_source_size is None and max_target_size is None:
        return context
    budget = context.budget if context is not None else Budget.default()
    overrides = {}
    if max_source_size is not None:
        overrides["max_source_size"] = max_source_size
    if max_target_size is not None:
        overrides["max_target_size"] = max_target_size
    return ExecutionContext(
        budget.with_(**overrides),
        cache=context.cache if context is not None else None,
    )


def is_consistent(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    context: ExecutionContext | None = None,
) -> Verdict:
    """Decide consistency with the strongest applicable algorithm.

    Exact for mappings without data comparisons; for the classes with only
    an inconclusive bounded search available, exhausting the bounds
    returns ``Unknown`` (with ``bound_exhausted=True``).
    """
    from repro.engine.core import solve

    return solve(
        ConsistencyProblem(mapping),
        budget_context(context, max_source_size, max_target_size),
    )


def consistency_witness(
    mapping: SchemaMapping,
    max_source_size: int | None = None,
    max_target_size: int | None = None,
    context: ExecutionContext | None = None,
) -> tuple[TreeNode, TreeNode] | None:
    """A pair in ``[[M]]``, or None when no witness is known.

    None covers both refuted consistency and an exhausted bounded search;
    use :func:`is_consistent` for the tri-state.
    """
    from repro.consistency.cons_nested import nested_consistency_witness

    verdict = is_consistent(mapping, max_source_size, max_target_size, context)
    if not verdict.is_proved:
        return None
    certificate = verdict.certificate
    if isinstance(certificate, WitnessPair):
        return certificate.source, certificate.target
    # the PTIME route proves consistency analytically; build the pair now
    return nested_consistency_witness(mapping)
