"""Differential tests for DTD conformance and NFA membership.

``DTD.check_conformance`` decides each distinct ``(label, arity,
child-label word)`` once per call, and ``NFA.accepts`` memoizes its
subset steps per call.  Both must give exactly the answers of the plain
per-node check and the plain subset simulation kept below as references:
the same verdict, and for a non-conforming tree the same first failing
node and the same ``ConformanceError`` text.
"""

import random

import pytest

from repro.cli import main
from repro.errors import ConformanceError
from repro.regex.nfa import NFA
from repro.regex.parser import parse_regex
from repro.workloads.random_instances import (
    random_arbitrary_dtd,
    random_nested_relational_dtd,
    random_tree_from_dtd,
)
from repro.xmlmodel.dtd import DTD, parse_dtd
from repro.xmlmodel.tree import TreeNode
from repro.xmlmodel.xml_io import to_xml

# -- references ----------------------------------------------------------------


def reference_accepts(nfa, word) -> bool:
    """Plain subset simulation: one full step per letter, no memo."""
    current = nfa.initial
    for letter in word:
        successors = set()
        for state in current:
            successors.update(nfa.transitions.get(state, {}).get(letter, ()))
        current = frozenset(successors)
    return bool(current & nfa.accepting)


def reference_check(dtd: DTD, node: TreeNode) -> None:
    """The per-node conformance check: every node decided on its own."""
    if node.label != dtd.root:
        raise ConformanceError(
            f"root is labelled {node.label!r}, expected {dtd.root!r}"
        )
    for inner in node.nodes():
        if inner.label not in dtd.productions:
            raise ConformanceError(f"unknown element type {inner.label!r}")
        expected_arity = dtd.arity(inner.label)
        if len(inner.attrs) != expected_arity:
            raise ConformanceError(
                f"{inner.label!r} carries {len(inner.attrs)} attribute values, "
                f"DTD declares {expected_arity}"
            )
        word = tuple(child.label for child in inner.children)
        if not reference_accepts(dtd.production_nfa(inner.label), word):
            raise ConformanceError(
                f"children of {inner.label!r} read {word!r}, which does not "
                f"match its production {dtd.productions[inner.label]}"
            )


def outcome(check, dtd: DTD, node: TreeNode) -> str | None:
    try:
        check(dtd, node)
    except ConformanceError as error:
        return str(error)
    return None


# -- mutants -------------------------------------------------------------------


def _paths(node: TreeNode, path=()):
    """(path, node) for every node, in document order."""
    yield path, node
    for index, child in enumerate(node.children):
        yield from _paths(child, path + (index,))


def _replace(node: TreeNode, path, make) -> TreeNode:
    if not path:
        return make(node)
    children = list(node.children)
    children[path[0]] = _replace(children[path[0]], path[1:], make)
    return TreeNode(node.label, node.attrs, tuple(children))


def _bad_words(node: TreeNode, label: str):
    """Child-word mutations of *node*: add a *label* child, drop, duplicate, reverse."""
    children = node.children
    extra = TreeNode(label)
    yield children + (extra,)
    yield (extra,) + children
    if children:
        yield children[1:]
        yield children[:-1]
        yield children + (children[-1],)
        if len(children) > 1:
            yield tuple(reversed(children))


def mutants(tree: TreeNode, dtd: DTD, rng: random.Random):
    """(kind, mutant) pairs: wrong label, wrong arity, bad child word at
    the root, at an inner node and at a leaf."""
    labels = sorted(dtd.productions)
    paths = dict(_paths(tree))
    leaves = [path for path, node in paths.items() if not node.children]
    middle = [path for path, node in paths.items() if path and node.children]
    for path, node in rng.sample(list(paths.items()), min(4, len(paths))):
        wrong = rng.choice([other for other in labels if other != node.label] or ["zz"])
        for label in (wrong, "zz"):
            yield "label", _replace(
                tree, path, lambda n, label=label: TreeNode(label, n.attrs, n.children)
            )
        for attrs in (node.attrs + (0,), node.attrs[:-1]):
            if attrs != node.attrs:
                yield "arity", _replace(
                    tree, path, lambda n, attrs=attrs: TreeNode(n.label, attrs, n.children)
                )
    for kind, choices in (("root", [()]), ("middle", middle), ("leaf", leaves)):
        for path in rng.sample(choices, min(2, len(choices))):
            for word in _bad_words(paths[path], rng.choice(labels)):
                yield kind, _replace(
                    tree, path, lambda n, word=word: TreeNode(n.label, n.attrs, word)
                )


def _random_instances(seed: int):
    rng = random.Random(seed)
    for __ in range(12):
        if rng.random() < 0.5:
            dtd = random_arbitrary_dtd(rng, n_labels=rng.randint(2, 6), max_arity=2)
        else:
            dtd = random_nested_relational_dtd(rng, n_labels=rng.randint(2, 6))
        if dtd.label_costs()[dtd.root] == float("inf"):
            continue
        for __ in range(3):
            tree = random_tree_from_dtd(
                dtd, rng, value_pool=(0, 1, 2), max_nodes=rng.randint(1, 60)
            )
            yield dtd, tree, rng


# -- conformance -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_conformance_matches_per_node_reference(seed):
    kinds: dict[str, int] = {}
    for dtd, tree, rng in _random_instances(seed):
        assert outcome(reference_check, dtd, tree) is None
        assert dtd.conforms(tree)
        for kind, mutant in mutants(tree, dtd, rng):
            expected = outcome(reference_check, dtd, mutant)
            assert outcome(DTD.check_conformance, dtd, mutant) == expected
            assert dtd.conforms(mutant) == (expected is None)
            if expected is not None:
                kinds[kind] = kinds.get(kind, 0) + 1
    # every mutation kind produced failing trees, so each kind was compared
    assert set(kinds) == {"label", "arity", "root", "middle", "leaf"}, kinds


def test_first_failure_after_repeated_words():
    """A failure after many nodes with an already-accepted key is still
    found, and it is the first failing node in document order."""
    dtd = parse_dtd("r -> a*\na(x) -> b?\nb")
    good = TreeNode("a", (1,), (TreeNode("b"),))
    bad_word = TreeNode("a", (1,), (TreeNode("b"), TreeNode("b")))
    bad_arity = TreeNode("a", (), (TreeNode("b"),))
    for children in (
        (good,) * 200 + (bad_word,) + (bad_arity,),
        (good,) * 200 + (bad_arity,) + (bad_word,),
        (good, TreeNode("a", (1,)), TreeNode("a", (2,), (TreeNode("c"),))),
    ):
        tree = TreeNode("r", (), children)
        expected = outcome(reference_check, dtd, tree)
        assert expected is not None
        assert outcome(DTD.check_conformance, dtd, tree) == expected


def test_validate_output_matches_reference(tmp_path, capsys):
    """``repro validate`` prints the reference's error text for each mutant."""
    dtd_text = "r -> a*, b\na -> (c | d)*\nb -> c?\nc\nd"
    dtd = parse_dtd(dtd_text)
    (tmp_path / "schema.dtd").write_text(dtd_text)
    rng = random.Random(3)
    checked = 0
    for __ in range(3):
        tree = random_tree_from_dtd(dtd, rng, value_pool=(0, 1), max_nodes=25)
        for kind, mutant in mutants(tree, dtd, rng):
            if kind == "arity" or any(
                node.label not in dtd.productions for node in mutant.nodes()
            ):
                continue  # from_xml refuses undeclared elements and attributes
            expected = outcome(reference_check, dtd, mutant)
            document = tmp_path / "doc.xml"
            document.write_text(to_xml(mutant, dtd))
            code = main(["validate", "--dtd", str(tmp_path / "schema.dtd"), str(document)])
            out = capsys.readouterr().out.strip()
            if expected is None:
                assert (code, out) == (0, "VALID")
            else:
                assert (code, out) == (1, f"INVALID: {expected}")
                checked += 1
    assert checked > 10


# -- NFA membership ----------------------------------------------------------------


@pytest.mark.parametrize(
    "regex",
    ["a*", "(a | b)*, c", "a, b?, (c | a)+", "(a, b)*, a?", "eps", "(a | b), (b | c)*"],
)
def test_accepts_matches_plain_subset_simulation(regex):
    nfa = NFA.from_regex(parse_regex(regex))
    rng = random.Random(regex)
    letters = ["a", "b", "c", "z"]  # "z" is outside every alphabet
    for __ in range(300):
        word = tuple(rng.choice(letters) for __ in range(rng.randint(0, 12)))
        assert nfa.accepts(word) == reference_accepts(nfa, word), word
    assert nfa.accepts(("a",) * 36000) == reference_accepts(nfa, ("a",) * 36000)
