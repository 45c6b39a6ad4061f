"""Tests for the compact tree text syntax (repro.xmlmodel.parser)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.xmlmodel.parser import parse_tree, serialize_tree
from repro.xmlmodel.tree import tree


class TestParse:
    def test_leaf(self):
        assert parse_tree("a") == tree("a")

    def test_attrs_int(self):
        assert parse_tree("a(1, 2)") == tree("a", attrs=(1, 2))

    def test_negative_int(self):
        assert parse_tree("a(-5)") == tree("a", attrs=(-5,))

    def test_attrs_string(self):
        assert parse_tree('a("hello world")') == tree("a", attrs=("hello world",))

    def test_bare_identifier_value(self):
        assert parse_tree("a(ada)") == tree("a", attrs=("ada",))

    def test_children(self):
        assert parse_tree("r[a, b]") == tree("r", children=[tree("a"), tree("b")])

    def test_nested(self):
        expected = tree(
            "r",
            children=[tree("a", attrs=(1,), children=[tree("b")]), tree("a", attrs=(2,))],
        )
        assert parse_tree("r[a(1)[b], a(2)]") == expected

    def test_paper_example(self):
        text = 'r[prof("Ada")[teach[year(2009)[course(db101), course(db102)]]]]'
        t = parse_tree(text)
        assert t.size == 6
        assert t.children[0].attrs == ("Ada",)

    def test_empty_brackets(self):
        assert parse_tree("a[]") == tree("a")
        assert parse_tree("a()") == tree("a")

    def test_whitespace_tolerated(self):
        assert parse_tree("  r [ a ( 1 ) , b ]  ") == tree(
            "r", children=[tree("a", attrs=(1,)), tree("b")]
        )

    def test_escaped_quote(self):
        assert parse_tree(r'a("say \"hi\"")') == tree("a", attrs=('say "hi"',))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "r[", "r[a,]", "r]", "r[a b]", "(1)", "r[a](1)", "r a", "r[a,,b]"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_tree(text)

    def test_error_reports_offset(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tree("r[a, !]")
        assert excinfo.value.position is not None


class TestSerialize:
    def test_leaf(self):
        assert serialize_tree(tree("a")) == "a"

    def test_quotes_non_identifier_strings(self):
        assert serialize_tree(tree("a", attrs=("x y",))) == 'a("x y")'

    def test_bare_identifier_unquoted(self):
        assert serialize_tree(tree("a", attrs=("ada",))) == "a(ada)"

    def test_nested(self):
        t = tree("r", children=[tree("a", attrs=(1,), children=[tree("b")])])
        assert serialize_tree(t) == "r[a(1)[b]]"

    def test_siblings_keep_their_order(self):
        t = parse_tree("r[a(1)[b, c(x, y)], a(2)]")
        assert serialize_tree(t) == "r[a(1)[b, c(x, y)], a(2)]"


values_st = st.one_of(
    st.integers(min_value=-99, max_value=99),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=6,
    ),
)
labels_st = st.sampled_from(["r", "a", "b", "prof"])


def trees_st():
    return st.recursive(
        st.builds(tree, labels_st, st.lists(values_st, max_size=2)),
        lambda children: st.builds(
            tree, labels_st, st.lists(values_st, max_size=2), st.lists(children, max_size=3)
        ),
        max_leaves=6,
    )


@given(trees_st())
def test_roundtrip(t):
    assert parse_tree(serialize_tree(t)) == t


@pytest.mark.parametrize("depth", [101, 3000])
def test_deep_nesting_is_a_parse_error(depth):
    with pytest.raises(ParseError, match="nesting"):
        parse_tree("a[" * depth + "b" + "]" * depth)


def test_nesting_up_to_the_limit_parses():
    node = parse_tree("a[" * 100 + "b" + "]" * 100)
    depth = 0
    while node.children:
        (node,) = node.children
        depth += 1
    assert depth == 100
