"""Consistency of composition: is ``[[M1]] ∘ ... ∘ [[Mn]]`` non-empty?
(Theorem 7.1 and Proposition 7.2.)

For comparison-free mappings the problem is EXPTIME-complete and decided
exactly by chaining the trigger-set machinery of Section 5:

* the first source DTD yields the achievable trigger sets of ``Sigma_1``'s
  source patterns;
* each intermediate DTD ``D_i`` yields achievable pairs
  ``(satisfied targets of Sigma_{i-1}, triggered sources of Sigma_i)``
  from **one** closure automaton holding both pattern families — a tree
  ``T_i`` works iff its satisfied-set covers some feasible trigger set
  from the previous stage, in which case its own trigger set becomes
  feasible for the next;
* the last target DTD must cover some feasible final trigger set.

All data values are taken equal, which is lossless without comparisons
(same argument as in :mod:`repro.consistency.cons_automata`).

With comparisons the problem is undecidable (Theorem 7.1(2)); the bounded
variant searches for an explicit witness chain and reports ``Unknown``
when its bounds are exhausted.
"""

from __future__ import annotations

from repro.engine.budget import ExecutionContext, resolve_budget
from repro.automata.dtd_automaton import decorate
from repro.engine.cache import achievable_sets
from repro.engine.verdicts import (
    AnalysisCertificate,
    Proved,
    Refuted,
    Unknown,
    Verdict,
    WitnessChain,
)
from repro.errors import SignatureError, XsmError
from repro.mappings.mapping import SchemaMapping
from repro.mappings.membership import SolutionChecker
from repro.patterns.ast import Pattern
from repro.values import Const
from repro.verification.enumeration import enumerate_trees
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.tree import TreeNode


def _check_chain(mappings: list[SchemaMapping]) -> None:
    if not mappings:
        raise XsmError("composition of zero mappings")
    for mapping in mappings:
        if mapping.uses_data_comparisons():
            raise SignatureError(
                "exact consistency of composition handles comparison-free "
                "mappings only (the problem is undecidable with ∼); "
                "use is_composition_consistent_bounded"
            )
        for std in mapping.stds:
            for pattern in (std.source, std.target):
                if any(isinstance(t, Const) for t in pattern.terms()):
                    raise SignatureError("constants are outside SM(⇓,⇒)")
    for left, right in zip(mappings, mappings[1:]):
        if left.target_dtd.labels != right.source_dtd.labels or any(
            str(left.target_dtd.productions[label])
            != str(right.source_dtd.productions[label])
            for label in left.target_dtd.labels
        ):
            raise XsmError("mappings do not chain: target DTD differs from next source DTD")


def _pattern_labels(patterns: list[Pattern]) -> frozenset[str]:
    labels: set[str] = set()
    for pattern in patterns:
        labels.update(pattern.labels_used())
    return frozenset(labels)


def _achievable(
    dtd: DTD, patterns: list[Pattern], context: ExecutionContext | None
) -> dict[frozenset[int], TreeNode]:
    """Achievable satisfaction bit-sets of *patterns*, with witness trees.

    One product reachability pass, compiled and memoized through the
    engine's :class:`~repro.engine.cache.CompilationCache`.
    """
    return achievable_sets(
        dtd, patterns, _pattern_labels(patterns), with_arity=True, context=context
    )


def is_composition_consistent(
    mappings: list[SchemaMapping], context: ExecutionContext | None = None
) -> Verdict:
    """Exact ``CONSCOMP`` for a chain of comparison-free mappings (EXPTIME).

    ``Proved`` carries a witness chain ``T_1, ..., T_{n+1}`` (all values
    0) with consecutive pairs in the respective ``[[M_i]]``; ``Refuted``
    names the stage at which no conforming tree can serve.
    """
    _check_chain(mappings)
    first = mappings[0]
    source_sets = _achievable(
        first.source_dtd, [std.source for std in first.stds], context
    )
    if not source_sets:
        return Refuted(
            AnalysisCertificate(
                "conscomp", "the first mapping's source DTD is unsatisfiable"
            )
        )
    # feasible trigger set -> a chain of (undecorated) witness trees so far
    feasible: dict[frozenset[int], tuple[TreeNode, ...]] = {
        triggered: (witness,) for triggered, witness in source_sets.items()
    }
    for index in range(len(mappings)):
        current = mappings[index]
        nxt = mappings[index + 1] if index + 1 < len(mappings) else None
        target_patterns = [std.target for std in current.stds]
        next_sources = [std.source for std in nxt.stds] if nxt else []
        combined = _achievable(
            current.target_dtd, target_patterns + next_sources, context
        )
        k = len(target_patterns)
        new_feasible: dict[frozenset[int], tuple[TreeNode, ...]] = {}
        for bits, witness in combined.items():
            satisfied = frozenset(i for i in bits if i < k)
            triggered = frozenset(i - k for i in bits if i >= k)
            for required, chain in feasible.items():
                if required <= satisfied:
                    new_feasible.setdefault(triggered, chain + (witness,))
                    break
        if not new_feasible:
            return Refuted(
                AnalysisCertificate(
                    "conscomp",
                    f"stage {index + 1}: no conforming tree of the "
                    f"intermediate DTD satisfies all targets of any feasible "
                    f"trigger set of mapping {index + 1}",
                )
            )
        feasible = new_feasible
    # the final stage's "triggered" sets are all empty frozensets; success
    chain = min(feasible.values(), key=lambda trees: sum(t.size for t in trees))
    dtds = [mappings[0].source_dtd] + [m.target_dtd for m in mappings]
    decorated = tuple(decorate(dtd, tree) for dtd, tree in zip(dtds, chain))
    return Proved(WitnessChain(decorated))


def is_composition_consistent_bounded(
    mappings: list[SchemaMapping],
    max_tree_size: int | None = None,
    value_domain: tuple = (0, 1),
    context: ExecutionContext | None = None,
) -> Verdict:
    """Bounded witness-chain search (sound only): works with comparisons.

    ``Proved`` carries the witness chain; exhausting the bounds yields
    ``Unknown`` (the class is undecidable, so no refutation is possible).
    """
    if not mappings:
        raise XsmError("composition of zero mappings")
    if max_tree_size is None:
        max_tree_size = resolve_budget(context).max_chain_size

    def extend(index: int, previous: TreeNode, chain: list[TreeNode]) -> bool:
        if index == len(mappings):
            return True
        mapping = mappings[index]
        # *previous* is fixed for this whole stage: one obligation set
        checker = SolutionChecker(mapping, previous)
        for tree in enumerate_trees(mapping.target_dtd, max_tree_size, value_domain):
            if context is not None:
                context.charge()
            if checker.is_solution_for(tree, check_conformance=False):
                chain.append(tree)
                if extend(index + 1, tree, chain):
                    return True
                chain.pop()
        return False

    first = mappings[0]
    for source in enumerate_trees(first.source_dtd, max_tree_size, value_domain):
        if context is not None:
            context.charge()
        chain: list[TreeNode] = [source]
        if extend(0, source, chain):
            return Proved(WitnessChain(tuple(chain)))
    return Unknown(
        f"no witness chain with trees of size <= {max_tree_size} over the "
        f"value domain {value_domain!r}; the class admits no complete "
        "procedure (Theorem 7.1(2))",
        bound_exhausted=True,
    )
