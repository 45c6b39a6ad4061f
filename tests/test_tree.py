"""Tests for the unranked ordered tree model (repro.xmlmodel.tree)."""

import pytest
from hypothesis import given, strategies as st

from repro.xmlmodel.tree import TreeNode, parent_map, tree


def sample_tree() -> TreeNode:
    return tree(
        "r",
        children=[
            tree("a", attrs=(1,), children=[tree("b"), tree("c", attrs=("x", "y"))]),
            tree("a", attrs=(2,)),
        ],
    )


class TestConstruction:
    def test_attrs_and_children_are_tuples(self):
        node = tree("a", attrs=[1, 2], children=[tree("b")])
        assert node.attrs == (1, 2)
        assert isinstance(node.children, tuple)

    def test_non_node_child_rejected(self):
        with pytest.raises(TypeError):
            TreeNode("a", children=["not a node"])

    def test_leaf_defaults(self):
        leaf = tree("x")
        assert leaf.attrs == ()
        assert leaf.children == ()


class TestMeasurements:
    def test_size(self):
        assert sample_tree().size == 5

    def test_height(self):
        assert sample_tree().height == 3
        assert tree("x").height == 1

    def test_single_node_size(self):
        assert tree("x").size == 1


class TestNavigation:
    def test_nodes_preorder(self):
        labels = [n.label for n in sample_tree().nodes()]
        assert labels == ["r", "a", "b", "c", "a"]

    def test_descendants_excludes_self(self):
        labels = [n.label for n in sample_tree().descendants()]
        assert labels == ["a", "b", "c", "a"]

    def test_leaves(self):
        labels = [n.label for n in sample_tree().leaves()]
        assert labels == ["b", "c", "a"]

    def test_parent_map(self):
        root = sample_tree()
        parents = parent_map(root)
        first_a = root.children[0]
        b = first_a.children[0]
        assert parents[id(b)] is first_a
        assert parents[id(first_a)] is root
        assert id(root) not in parents


class TestIdentity:
    def test_structural_equality(self):
        assert sample_tree() == sample_tree()

    def test_inequality_on_attrs(self):
        assert tree("a", attrs=(1,)) != tree("a", attrs=(2,))

    def test_inequality_on_order(self):
        left = tree("r", children=[tree("a"), tree("b")])
        right = tree("r", children=[tree("b"), tree("a")])
        assert left != right

    def test_hash_consistent_with_equality(self):
        assert hash(sample_tree()) == hash(sample_tree())

    def test_usable_as_dict_key(self):
        d = {sample_tree(): 1}
        assert d[sample_tree()] == 1


class TestValues:
    def test_adom(self):
        assert sample_tree().adom() == frozenset({1, 2, "x", "y"})

    def test_labels(self):
        assert sample_tree().labels() == frozenset({"r", "a", "b", "c"})

    def test_map_values(self):
        doubled = tree("a", attrs=(1, 2)).map_values(lambda v: v * 2)
        assert doubled.attrs == (2, 4)

    def test_map_values_recurses(self):
        t = sample_tree().map_values(lambda v: "k")
        assert t.adom() == frozenset({"k"})


class TestFunctionalUpdates:
    def test_with_children(self):
        node = tree("a", attrs=(1,)).with_children([tree("b")])
        assert node.attrs == (1,)
        assert [c.label for c in node.children] == ["b"]

    def test_with_attrs(self):
        node = sample_tree().with_attrs((9,))
        assert node.attrs == (9,)
        assert len(node.children) == 2


labels_st = st.sampled_from(["a", "b", "c", "d"])
values_st = st.integers(min_value=0, max_value=3)


def trees_st(max_depth: int = 3):
    return st.recursive(
        st.builds(tree, labels_st, st.tuples(values_st)),
        lambda children: st.builds(
            tree, labels_st, st.tuples(values_st), st.lists(children, max_size=3)
        ),
        max_leaves=8,
    )


@given(trees_st())
def test_size_counts_nodes(t):
    assert t.size == sum(1 for __ in t.nodes())


@given(trees_st())
def test_equality_reflexive_and_hash_stable(t):
    assert t == t
    assert hash(t) == hash(TreeNode(t.label, t.attrs, t.children))


@given(trees_st())
def test_descendants_are_nodes_minus_root(t):
    assert [id(n) for n in t.nodes()][1:] == [id(n) for n in t.descendants()]


def test_importing_the_tree_model_leaves_the_automata_unloaded():
    """``repro.xmlmodel`` sits below the automata: loading a tree is cheap."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, repro.xmlmodel.tree; "
        "print(sorted(m for m in ('repro.automata', 'repro.patterns') "
        "if m in sys.modules))"
    )
    output = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert output.strip() == "[]"


class TestDeepTrees:
    """A tree built in code may be deeper than the interpreter's
    recursion limit; equality, hashing, measuring, value mapping,
    pickling and rendering must not recurse."""

    DEPTH = 3000

    def chain(self, leaf: str = "b") -> TreeNode:
        node = tree(leaf, attrs=(0,))
        for level in range(self.DEPTH):
            node = tree("a", attrs=(level,), children=[node])
        return node

    def test_hash(self):
        assert hash(self.chain()) == hash(self.chain())

    def test_eq(self):
        assert self.chain() == self.chain()
        assert self.chain() != self.chain(leaf="c")

    def test_repr(self):
        from repro.xmlmodel.parser import serialize_tree

        text = serialize_tree(self.chain())
        assert text.startswith("a(2999)[a(2998)[") and text.endswith("b(0)" + "]" * self.DEPTH)
        assert repr(self.chain()) == f"TreeNode({text!r})"

    def test_size_and_height(self):
        assert self.chain().size == self.DEPTH + 1
        assert self.chain().height == self.DEPTH + 1

    def test_map_values(self):
        mapped = self.chain().map_values(lambda value: value + 1)
        assert mapped.attrs == (self.DEPTH,)
        assert mapped == self.chain().map_values(lambda value: value + 1)
        assert list(mapped.leaves())[0].attrs == (1,)

    def test_pickle_round_trip(self):
        import pickle

        assert pickle.loads(pickle.dumps(self.chain())) == self.chain()

    def test_to_xml(self):
        from repro.xmlmodel.xml_io import to_xml

        lines = to_xml(self.chain()).splitlines()
        assert len(lines) == 2 * self.DEPTH + 1
        assert lines[self.DEPTH] == " " * (2 * self.DEPTH) + '<b a0="0"/>'
        assert lines[-1] == "</a>"

