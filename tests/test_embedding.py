"""The ``pattern-sat-nested`` route (repro.patterns.embedding): pattern
satisfiability over nested-relational DTDs by one embedding pass,
differential-tested against Lemma 4.1's automata."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fragment import nested_sat_violation, predict_satisfiability
from repro.automata.bitset import decorate
from repro.consistency.cons_nested import merge_nested_trees
from repro.engine import certify, solve
from repro.engine.problems import SatisfiabilityProblem
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence
from repro.patterns.embedding import embedder_for
from repro.patterns.matching import matches_at_root
from repro.patterns.parser import parse_pattern
from repro.patterns.satisfiability import satisfying_tree, structural_witness
from repro.values import Var
from repro.verification.reachability import satisfying_tree_reference
from repro.workloads.random_instances import (
    abstract_pattern_from_tree,
    random_conforming_tree,
    random_fully_specified_mapping,
    random_nested_relational_dtd,
)
from repro.xmlmodel.dtd import DTD, parse_dtd


def chain_dtd(n: int) -> DTD:
    """``l0 -> l1 -> ... -> l{n-1}``, the last label with one attribute."""
    productions = {f"l{i}": f"l{i + 1}" for i in range(n - 1)}
    productions[f"l{n - 1}"] = "eps"
    return DTD("l0", productions, {f"l{n - 1}": ("a",)})


# ---------------------------------------------------------------------------
# the class test and the route
# ---------------------------------------------------------------------------


class TestClass:
    NESTED = "r -> a*, b?\na(x) -> c\nb(y)\nc(z)"

    @pytest.mark.parametrize("text", [
        "r/a", "r[a(x)[c(x)], //c(y)]", "_//_(u, v)", "r[zz]", "r[a(x, y)]",
        "r[//c(x), a(x)]",
    ])
    def test_in_class(self, text):
        dtd = parse_dtd(self.NESTED)
        assert nested_sat_violation(dtd, parse_pattern(text)) is None
        assert predict_satisfiability(dtd, parse_pattern(text)).algorithm == (
            "pattern-sat-nested"
        )

    @pytest.mark.parametrize("dtd_text, text, reason", [
        ("r -> a | b", "r/a", "nested-relational"),
        ("r -> a\na -> a?", "r/a", "nested-relational"),
        (NESTED, "r/a(1)", "constants"),
        (NESTED, "r[a -> a]", "sibling order"),
        (NESTED, "r[a ->* b]", "sibling order"),
    ])
    def test_out_of_class(self, dtd_text, text, reason):
        dtd = parse_dtd(dtd_text)
        violation = nested_sat_violation(dtd, parse_pattern(text))
        assert reason in violation
        prediction = predict_satisfiability(dtd, parse_pattern(text))
        assert prediction.algorithm == "pattern-sat" and prediction.exact

    def test_solve_routes_from_the_prediction_and_certifies(self):
        dtd = parse_dtd(self.NESTED)
        proved = solve(SatisfiabilityProblem(dtd, parse_pattern("r[//c(x), b(x)]")))
        assert proved.report.algorithm == "pattern-sat-nested"
        assert proved.is_proved and certify(proved)
        refuted = solve(SatisfiabilityProblem(dtd, parse_pattern("r[c]")))
        assert refuted.report.algorithm == "pattern-sat-nested"
        assert refuted.is_refuted
        assert refuted.certificate.algorithm == "pattern-sat-nested"
        assert certify(refuted)

    def test_the_witness_merges_into_the_minimal_tree(self):
        # values follow decorate's convention (all 0), so the witness
        # merges with the minimal tree the way cons_nested merges targets
        dtd = parse_dtd(self.NESTED)
        witness = satisfying_tree(dtd, parse_pattern("r[a(x)[c(y)], b(x)]"))
        assert witness == decorate(dtd, witness)
        assert {node.attrs for node in witness.nodes()} <= {(), (0,)}
        merged = merge_nested_trees(dtd, dtd.minimal_tree(), witness)
        assert dtd.conforms(merged)

    def test_witness_keeps_required_children_and_adds_needed_ones(self):
        dtd = parse_dtd("r -> a, b?, c*, d+\nc -> e?\na\nb\nd\ne")
        witness = satisfying_tree(dtd, parse_pattern("r[//e]"))
        assert [child.label for child in witness.children] == ["a", "c", "d"]
        assert dtd.conforms(witness)
        assert satisfying_tree(dtd, parse_pattern("r")) == dtd.minimal_tree()


# ---------------------------------------------------------------------------
# differential: the embedding pass against the automata
# ---------------------------------------------------------------------------

VARIABLES = (Var("x"), Var("y"))


def _descendant_labels(dtd: DTD, label: str) -> list[str]:
    seen: list[str] = []
    frontier = sorted(dtd.child_labels(label))
    while frontier:
        below = frontier.pop()
        if below not in seen:
            seen.append(below)
            frontier.extend(sorted(dtd.child_labels(below)))
    return sorted(seen)


def random_in_class_pattern(rng: random.Random, dtd: DTD) -> Pattern:
    """A random constant-free ⇓ pattern over *dtd*'s labels.

    Children follow the DTD's edges most of the time, so about half the
    patterns embed; the rest name wildcards, an undeclared label,
    arbitrary labels and wrong arities.  Two variables make repeated
    variables common.
    """
    labels = sorted(dtd.labels)

    def attrs(label: str):
        if rng.random() < 0.35:
            return None
        arity = dtd.arity(label)
        if label not in dtd.labels or rng.random() < 0.15:
            arity = rng.randint(0, 2)
        return tuple(rng.choice(VARIABLES) for __ in range(arity))

    def walk(label: str, depth: int) -> Pattern:
        items = []
        for __ in range(rng.randint(0, 2) if depth < 3 else 0):
            descendant = rng.random() < 0.35
            follows = (
                _descendant_labels(dtd, label) if descendant
                else sorted(dtd.child_labels(label))
            ) if label in dtd.labels else []
            roll = rng.random()
            if follows and roll < 0.7:
                child = rng.choice(follows)
            elif roll < 0.85:
                child = rng.choice(labels)
            else:
                child = rng.choice([WILDCARD, "zz"])
            sub = walk(child, depth + 1)
            items.append(Descendant(sub) if descendant else Sequence((sub,)))
        return Pattern(label, attrs(label), tuple(items))

    root = dtd.root if rng.random() < 0.9 else rng.choice([WILDCARD, labels[-1]])
    return walk(root, 0)


def abstracted_pattern(rng: random.Random, dtd: DTD) -> Pattern:
    """A pattern abstracted from a conforming tree (it embeds), its
    sibling pairs split into one-element sequences and its variables
    folded onto two, so repeated variables occur."""
    tree = random_conforming_tree(dtd, rng, max_repeat=2)
    pattern = abstract_pattern_from_tree(rng, tree)

    def in_class(node: Pattern) -> Pattern:
        items = []
        for item in node.items:
            if isinstance(item, Sequence):
                items.extend(Sequence((element,)) for element in item.elements)
            else:
                items.append(item)
        return Pattern(node.label, node.vars, tuple(items))

    folding = {var: rng.choice(VARIABLES) for var in pattern.variables()}
    return pattern.map_patterns(in_class).rename_variables(folding)


def _check(dtd: DTD, pattern: Pattern) -> bool:
    """The three procedures agree on *pattern*; is it satisfiable?"""
    assert nested_sat_violation(dtd, pattern) is None, pattern
    witness = satisfying_tree(dtd, pattern)
    structural = structural_witness(dtd, pattern)
    reference = satisfying_tree_reference(dtd, pattern)
    assert (witness is None) == (structural is None) == (reference is None), (
        dtd, pattern,
    )
    if witness is not None:
        assert dtd.conforms(witness), (dtd, pattern, witness)
        assert matches_at_root(pattern, witness), (dtd, pattern, witness)
    return witness is not None


def test_embedding_agrees_with_the_automata_on_seeded_patterns():
    rng = random.Random(3100)
    answers = {True: 0, False: 0}
    for index in range(520):
        dtd = random_nested_relational_dtd(rng, n_labels=rng.randint(2, 7))
        make = abstracted_pattern if index % 3 == 0 else random_in_class_pattern
        answers[_check(dtd, make(rng, dtd))] += 1
    # the seeded patterns exercise both answers
    assert answers[True] >= 150 and answers[False] >= 150, answers


def test_embedding_agrees_on_std_sides_of_random_mappings():
    """Each std side against both DTDs of its mapping: its own DTD (it
    usually embeds) and the other one (it usually does not)."""
    rng = random.Random(3101)
    answers = {True: 0, False: 0}
    for __ in range(60):
        mapping = random_fully_specified_mapping(rng, n_stds=2)
        for std in mapping.stds:
            for pattern in (std.source, std.target):
                for dtd in (mapping.source_dtd, mapping.target_dtd):
                    answers[_check(dtd, pattern)] += 1
    assert answers[True] >= 100 and answers[False] >= 100, answers


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_embedding_agrees_with_the_automata_property(seed, abstracted):
    rng = random.Random(seed)
    dtd = random_nested_relational_dtd(rng, n_labels=rng.randint(1, 6))
    make = abstracted_pattern if abstracted else random_in_class_pattern
    _check(dtd, make(rng, dtd))


def test_embedder_answers_per_label():
    dtd = parse_dtd("r -> a*, b?\na(x) -> c\nb(y)\nc(z)")
    embedder = embedder_for(dtd)
    assert embedder.embeddable(parse_pattern("a(u)[c]"), "a")
    assert not embedder.embeddable(parse_pattern("a(u)[c]"), "r")
    assert embedder.embeddable(parse_pattern("_[//c(z)]"), "r")
    assert not embedder.embeddable(parse_pattern("_[//c(z)]"), "c")
    assert not embedder.embeddable(parse_pattern("a[c(u, v)]"), "a")


# ---------------------------------------------------------------------------
# deep DTDs: no recursion over the DTD's depth
# ---------------------------------------------------------------------------

DEEP = 3000


def test_deep_dtd_classification_is_iterative():
    dtd = chain_dtd(DEEP)
    assert not dtd.is_recursive()
    assert dtd.is_nested_relational()
    looped = DTD("l0", {**{f"l{i}": f"l{i + 1}" for i in range(DEEP - 1)},
                        f"l{DEEP - 1}": f"l{DEEP // 2}?"})
    assert looped.is_recursive()


def test_deep_minimal_tree_is_iterative():
    tree = chain_dtd(DEEP).minimal_tree()
    assert tree.height == DEEP
    assert list(tree.leaves())[0].attrs == (0,)


def test_deep_decorate_is_iterative():
    dtd = chain_dtd(DEEP)
    bare = chain_dtd(DEEP).minimal_tree(lambda label, attribute: None)
    decorated = decorate(dtd, bare, lambda label, attribute: 7)
    assert decorated.height == DEEP
    assert list(decorated.leaves())[0].attrs == (7,)


def test_deep_satisfiability_is_fast_and_iterative():
    dtd = chain_dtd(DEEP)
    started = time.perf_counter()
    verdict = solve(SatisfiabilityProblem(dtd, parse_pattern(f"l0[//l{DEEP - 1}]")))
    elapsed = time.perf_counter() - started
    assert verdict.is_proved
    assert verdict.report.algorithm == "pattern-sat-nested"
    assert verdict.certificate.tree.height == DEEP
    assert elapsed < 2.0, elapsed
