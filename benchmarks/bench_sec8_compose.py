"""Section 8 — closure under composition (experiments F8.1/F8.2).

Theorem 8.2's constructive composition is exercised two ways:

* F8.1 — compose-and-verify: random/parameterized Skolem-class pairs are
  composed syntactically and the result checked against the semantic
  composition on sampled instances; the table reports composition time
  and the size of the composed mapping.
* F8.1b — iterated composition: mapping chains are folded with compose();
  the composed std count/term depth growth is the price of closure
  (Skolem terms nest, SO-tgd preconditions appear).
"""

from harness import print_table, sweep

from repro.composition.compose import compose
from repro.composition.semantics import composition_contains
from repro.mappings.skolem import SkolemMapping, is_skolem_solution
from repro.workloads.families import skolem_copy_chain
from repro.xmlmodel.parser import parse_tree


def test_f81_compose_and_verify(benchmark):
    """F8.1: syntactic composition equals the semantic composition."""

    def build(n: int):
        return skolem_copy_chain(n, 0), skolem_copy_chain(n, 1)

    rows = sweep(
        range(1, 5),
        lambda n: lambda: len(compose(*build(n)).stds),
    )
    print_table(
        "F8.1",
        "Theorem 8.2: the Skolem class is closed under composition",
        rows,
        size_label="rels",
        note="result column = number of composed stds",
    )
    # semantic verification on a sampled pair (n = 2)
    m01, m12 = build(2)
    m02 = compose(m01, m12)
    m02.check_composable_class()
    t0 = parse_tree("s0[s0rel0(7)]")
    t2_good = parse_tree("s2[s2rel0(7), s2rel1(9), s2rel1(5), s2rel0(4)]")
    direct = is_skolem_solution(m02, t0, t2_good)
    semantic = composition_contains(
        m01, m12, t0, t2_good, max_mid_size=3, extra_fresh=1
    )
    assert direct == semantic
    benchmark(lambda: compose(*build(2)))


def test_f81b_iterated_composition(benchmark):
    """F8.1b: folding a chain of mappings; composed-mapping growth."""

    def fold(depth: int):
        mapping = skolem_copy_chain(2, 0)
        for stage in range(1, depth):
            mapping = compose(mapping, skolem_copy_chain(2, stage))
        return mapping

    def measure(depth: int):
        mapping = fold(depth)
        mapping.check_composable_class()
        stds = len(mapping.stds)
        longest = max(len(str(std)) for std in mapping.stds)
        return f"{stds} stds, longest {longest} chars"

    rows = sweep(range(1, 5), lambda depth: lambda: measure(depth))
    print_table(
        "F8.1b",
        "iterated composition stays in the class (closure), at a size cost",
        rows,
        size_label="depth",
        note="Skolem terms nest once per stage; SO-tgd preconditions appear",
    )
    benchmark(lambda: fold(3))


def test_f82_outside_class_examples(benchmark):
    """F8.2: Prop 8.1 — the gallery pairs cannot be composed syntactically.

    Semantic verification of the disjunctive compositions lives in
    tests/test_composition_closure.py; here we record that compose()
    refuses each breaking feature (and time the semantic decision of one
    disjunctive composition instance, which is all that remains possible).
    """
    import pytest

    from repro.composition.gallery import (
        descendant_pair,
        inequality_pair,
        next_sibling_pair,
        unstarred_attribute_pair,
        wildcard_pair,
    )
    from repro.errors import NotInClassError

    refused = []
    for factory in (wildcard_pair, descendant_pair, next_sibling_pair,
                    inequality_pair, unstarred_attribute_pair):
        with pytest.raises(NotInClassError):
            compose(*factory())
        refused.append(factory.__name__)
    print(f"\n[F8.2] compose() refuses (Prop 8.1): {', '.join(refused)}")
    m12, m23 = wildcard_pair()
    source, final = parse_tree("r"), parse_tree("r[c1]")
    assert composition_contains(m12, m23, source, final, max_mid_size=3)
    benchmark(
        lambda: composition_contains(m12, m23, source, final, max_mid_size=3)
    )
