"""Tests for pattern parsing and serialization (repro.patterns.parser)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.patterns.ast import WILDCARD, Descendant, Pattern, Sequence, node, seq
from repro.patterns.parser import parse_pattern, serialize_pattern
from repro.values import Const, SkolemTerm, Var


class TestParse:
    def test_leaf_without_parens_is_unconstrained(self):
        assert parse_pattern("a").vars is None

    def test_leaf_with_empty_parens_requires_no_attrs(self):
        assert parse_pattern("a()").vars == ()

    def test_variables_and_constants(self):
        p = parse_pattern('a(x, 5, "lit")')
        assert p.vars == (Var("x"), Const(5), Const("lit"))

    def test_wildcard(self):
        assert parse_pattern("_[a]").label == WILDCARD

    def test_children(self):
        assert parse_pattern("r[a, b]") == node("r", items=[node("a"), node("b")])

    def test_next_sibling(self):
        p = parse_pattern("r[a(x) -> b(y)]")
        assert p == node("r", items=[seq(node("a", ["x"]), "->", node("b", ["y"]))])

    def test_following_sibling(self):
        p = parse_pattern("r[a ->* b]")
        (item,) = p.items
        assert item.connectors == ("following",)

    def test_long_sequence(self):
        p = parse_pattern("r[a -> b ->* c -> d]")
        (item,) = p.items
        assert item.connectors == ("next", "following", "next")

    def test_descendant_item(self):
        p = parse_pattern("r[//a(x), b]")
        assert p.items[0] == Descendant(node("a", ["x"]))

    def test_child_path_sugar(self):
        assert parse_pattern("r/a/b") == node("r", items=[node("a", items=[node("b")])])

    def test_descendant_path_sugar(self):
        assert parse_pattern("r//a(x)") == Pattern(
            "r", None, (Descendant(node("a", ["x"])),)
        )

    def test_mixed_path_sugar(self):
        p = parse_pattern("r/a//b")
        assert p == node("r", items=[Pattern("a", None, (Descendant(node("b")),))])

    def test_path_inside_sequence(self):
        p = parse_pattern("r[a/c -> b]")
        (item,) = p.items
        assert item.elements[0] == node("a", items=[node("c")])

    def test_path_with_existing_items(self):
        p = parse_pattern("r[x]/y")
        assert p == node("r", items=[node("x"), node("y")])

    def test_skolem_term(self):
        p = parse_pattern("t(f(x, g(y)), z)")
        assert p.vars == (
            SkolemTerm("f", (Var("x"), SkolemTerm("g", (Var("y"),)))),
            Var("z"),
        )

    def test_paper_pattern_pi3(self):
        text = (
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], "
            "supervise[student(s)]]]"
        )
        p = parse_pattern(text)
        assert p.variables() == (Var("x"), Var("y"), Var("cn1"), Var("cn2"), Var("s"))

    def test_paper_pattern_pi4(self):
        text = (
            "r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], "
            "student(s)[supervisor(x)]]"
        )
        p = parse_pattern(text)
        assert p.has_repeated_variables()
        (course_item, student_item) = p.items
        assert course_item.connectors == ("following",)

    @pytest.mark.parametrize(
        "text",
        ["", "r[", "r[a ->]", "-> a", "r[a,]", "r(x", "r[a]]", "r a", "//a",
         "r[//]", "r(x,)", "5", "r['a']"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_pattern(text)


class TestSerialize:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "a()",
            'a(x, 5, "lit")',
            "_[a, b]",
            "r[a -> b ->* c]",
            "r[//a(x), b]",
            "t(f(x, g(y)), z)",
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], "
            "supervise[student(s)]]]",
        ],
    )
    def test_roundtrip(self, text):
        p = parse_pattern(text)
        assert parse_pattern(serialize_pattern(p)) == p

    def test_const_strings_always_quoted(self):
        # a bare identifier would parse back as a variable
        assert serialize_pattern(node("a", [Const("ada")])) == 'a("ada")'

    def test_str_dunder(self):
        assert str(parse_pattern("r[a -> b]")) == "r[a -> b]"


labels_st = st.sampled_from(["a", "b", "_"])
terms_st = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Const(1), Const("v w")]),
)


def patterns_st():
    return st.recursive(
        st.builds(
            lambda l, v: Pattern(l, v),
            labels_st,
            st.one_of(st.none(), st.lists(terms_st, max_size=2).map(tuple)),
        ),
        lambda inner: st.builds(
            lambda l, items: Pattern(l, None, tuple(items)),
            labels_st,
            st.lists(
                st.one_of(
                    st.builds(Descendant, inner),
                    st.builds(lambda e: Sequence((e,)), inner),
                    st.builds(
                        lambda e1, e2, c: Sequence((e1, e2), (c,)),
                        inner,
                        inner,
                        st.sampled_from(["next", "following"]),
                    ),
                ),
                min_size=1,
                max_size=2,
            ),
        ),
        max_leaves=5,
    )


@given(patterns_st())
def test_roundtrip_random(pattern):
    assert parse_pattern(serialize_pattern(pattern)) == pattern


@pytest.mark.parametrize("text", [
    "a[" * 3000 + "b" + "]" * 3000,
    "a" + "/a" * 3000,
    "a" + "//a" * 3000,
    "a(" + "f(" * 3000 + "x" + ")" * 3000 + ")",
    "a[" * 101 + "b" + "]" * 101,
])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nesting"):
        parse_pattern(text)


def test_nesting_up_to_the_limit_parses():
    text = "a[" * 100 + "b" + "]" * 100
    assert serialize_pattern(parse_pattern(text)) == text
