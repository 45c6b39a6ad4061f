"""Randomized verification of Theorem 8.2: for generated Skolem-class
pairs, the syntactic composition must agree with the semantic composition
on all bounded instance pairs.

This is the strongest trust anchor for compose(): the chase enumeration,
the support-copy logic and the Skolem-term plumbing all have to be right
for hundreds of generated mapping pairs to agree with brute-force search.
"""

import random

import pytest

from repro.composition.compose import compose
from repro.composition.semantics import composition_contains
from repro.mappings.skolem import is_skolem_solution
from repro.verification.enumeration import enumerate_trees
from repro.workloads.random_instances import random_composable_pair


def verify_pair(seed: int, source_slack=2, final_slack=2):
    rng = random.Random(seed)
    m12, m23 = random_composable_pair(rng)
    m13 = compose(m12, m23)
    m13.check_composable_class()
    checked = 0
    # bounds adapt to each DTD's minimal tree so enumeration is never empty;
    # the middle bound must accommodate the merge of ALL M12 requirements
    # (one instance each for these [:6]-small sources) or the semantic side
    # reports spurious "no middle" answers
    source_bound = int(m12.source_dtd.label_costs()[m12.source_dtd.root]) + source_slack
    final_bound = int(m23.target_dtd.label_costs()[m23.target_dtd.root]) + final_slack
    requirement_budget = sum(std.target.size for std in m12.stds) * 2
    max_mid_size = (
        int(m12.target_dtd.label_costs()[m12.target_dtd.root]) + requirement_budget
    )
    if max_mid_size > 9:
        pytest.skip(f"seed {seed}: required middle bound {max_mid_size} too costly")
    sources = list(enumerate_trees(m12.source_dtd, source_bound, (0, 1)))[:6]
    finals = list(enumerate_trees(m23.target_dtd, final_bound, (0, 1)))[:6]
    for source in sources:
        for final in finals:
            direct = is_skolem_solution(m13, source, final, check_conformance=False)
            semantic = composition_contains(
                m12, m23, source, final,
                max_mid_size=max_mid_size, extra_fresh=1,
            )
            # semantic search returns Unknown past its middle-tree bound;
            # proved-ness is the comparable decision
            assert direct.is_proved == semantic.is_proved, (
                f"seed {seed}: disagree on ({source!r}, {final!r}): "
                f"composed={direct}, semantic={semantic}\n"
                f"M12 stds: {[str(s) for s in m12.stds]}\n"
                f"M23 stds: {[str(s) for s in m23.stds]}\n"
                f"M13 stds: {[str(s) for s in m13.stds]}"
            )
            checked += 1
    return checked


@pytest.mark.parametrize("seed", range(60))
def test_random_composition_agrees_with_semantics(seed):
    assert verify_pair(seed) > 0


@pytest.mark.parametrize("seed", range(60, 80))
def test_random_composition_larger_instances(seed):
    assert verify_pair(seed, source_slack=3, final_slack=3) > 0
