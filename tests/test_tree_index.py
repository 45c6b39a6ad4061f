"""Tests for the structural tree index (repro.patterns.index)."""

import pytest

from repro.patterns.index import TreeIndex
from repro.patterns.matching import engine_for, find_matches
from repro.patterns.parser import parse_pattern
from repro.verification.oracle import naive_find_matches
from repro.xmlmodel.parser import parse_tree
from repro.xmlmodel.tree import TreeNode, tree


@pytest.fixture
def document():
    return parse_tree("r[a(1)[c(3)], b(2), a(1), b[a(4)]]")


class TestPreorderIntervals:
    def test_preorder_is_document_order(self, document):
        index = TreeIndex(document)
        assert [n.label for n in index.node_at] == [
            "r", "a", "c", "b", "a", "b", "a"
        ]
        assert index.size == 7

    def test_interval_is_exactly_the_subtree(self, document):
        index = TreeIndex(document)
        for node in document.nodes():
            first, last = index.pre[id(node)], index.end[id(node)]
            span = {id(n) for n in index.node_at[first : last + 1]}
            assert span == {id(n) for n in node.nodes()}

    def test_descendant_count(self, document):
        index = TreeIndex(document)
        assert index.descendant_count(document) == 6
        for leaf in document.leaves():
            assert index.descendant_count(leaf) == 0


class TestLabelIndexes:
    def test_by_label_positions_are_sorted(self, document):
        index = TreeIndex(document)
        for positions in index.by_label.values():
            assert positions == sorted(positions)
        assert len(index.by_label["a"]) == 3
        assert len(index.by_label["b"]) == 2

    def test_attribute_value_index(self, document):
        index = TreeIndex(document)
        assert len(index.by_label_attrs[("a", (1,))]) == 2
        assert len(index.by_label_attrs[("a", (4,))]) == 1
        assert ("a", (2,)) not in index.by_label_attrs


class TestLabelMasks:
    def test_absent_label_gives_none(self, document):
        index = TreeIndex(document)
        assert index.labels_mask(["a", "zzz"]) is None
        assert index.labels_mask(["a", "b"]) is not None

    def test_subtree_and_below_coverage(self, document):
        index = TreeIndex(document)
        mask_a = index.labels_mask(["a"])
        mask_c = index.labels_mask(["c"])
        first_a = document.children[0]
        assert index.subtree_covers(first_a, mask_a)
        assert not index.below_covers(first_a, mask_a)  # only at the node
        assert index.below_covers(first_a, mask_c)
        assert index.below_covers(document, mask_a | mask_c)


class TestCandidates:
    def test_by_label_within_subtree(self, document):
        index = TreeIndex(document)
        last_b = document.children[3]
        assert [n.attrs for n in index.candidates(last_b, "a")] == [(4,)]
        assert list(index.candidates(last_b, "c")) == []

    def test_strict_excludes_the_node_itself(self, document):
        index = TreeIndex(document)
        first_a = document.children[0]
        assert [n.label for n in index.candidates(first_a, "a")] == []
        assert [n.label for n in index.candidates(first_a, "a", strict=False)] == ["a"]

    def test_wildcard_enumerates_descendants(self, document):
        index = TreeIndex(document)
        assert len(list(index.candidates(document))) == 6

    def test_attribute_access_path(self, document):
        index = TreeIndex(document)
        assert len(list(index.candidates(document, "a", attrs=(1,)))) == 2
        assert len(list(index.candidates(document, "a", attrs=(9,)))) == 0


class TestCaching:
    def test_engine_is_cached_on_the_root(self, document):
        engine = engine_for(document)
        assert engine_for(document) is engine

    def test_distinct_trees_get_distinct_engines(self):
        left, right = parse_tree("r[a]"), parse_tree("r[a]")
        assert engine_for(left) is not engine_for(right)


class TestSharedSubtreeObjects:
    def test_matching_with_aliased_nodes(self):
        # the same TreeNode object under two parents: intervals for the
        # shared node are overwritten during the build, which is safe
        # because match relations are position-independent
        shared = tree("a", (7,), [tree("c", (8,))])
        root = tree("r", (), [tree("b", (), [shared]), shared])
        pattern = parse_pattern("r[//a(x)[c(y)]]")
        engine = [frozenset(d.items()) for d in find_matches(pattern, root)]
        naive = [frozenset(d.items()) for d in naive_find_matches(pattern, root)]
        assert set(engine) == set(naive)
        assert len(engine) == 1


class TestStats:
    def test_counters_accumulate_and_reset(self):
        document = parse_tree("r[a(1), a(2), a(1)]")
        engine = engine_for(document)
        engine.find_matches(parse_pattern("r[//a(x)]"))
        assert engine.stats.nodes_visited > 0
        before = engine.stats.as_dict()
        engine.find_matches(parse_pattern("r[//a(x)]"))
        assert engine.stats.cache_hits > before["cache_hits"]
        engine.stats.reset()
        assert all(v == 0 for v in engine.stats.as_dict().values())

    def test_absent_label_prunes_without_visiting(self):
        document = parse_tree("r[a, a, a]")
        engine = engine_for(document)
        assert not engine.exists_at_root(parse_pattern("r[//zzz]"))
        assert engine.stats.index_prunes > 0
