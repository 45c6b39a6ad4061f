"""Tests for regexes, the Glushkov NFA and DFA operations (repro.regex)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.regex import (
    DFA,
    EMPTY,
    EPSILON,
    NFA,
    Concat,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    concat,
    parse_regex,
    union,
)


class TestParser:
    def test_single_symbol(self):
        assert parse_regex("a") == Symbol("a")

    def test_star(self):
        assert parse_regex("prof*") == Star(Symbol("prof"))

    def test_sequence_with_commas(self):
        assert parse_regex("teach, supervise") == Concat(
            (Symbol("teach"), Symbol("supervise"))
        )

    def test_sequence_juxtaposition(self):
        assert parse_regex("c1? c2? c3?") == Concat(
            (Optional(Symbol("c1")), Optional(Symbol("c2")), Optional(Symbol("c3")))
        )

    def test_union(self):
        assert parse_regex("b1 | b2") == Union((Symbol("b1"), Symbol("b2")))

    def test_precedence_star_tightest(self):
        assert parse_regex("a, b*") == Concat((Symbol("a"), Star(Symbol("b"))))

    def test_parentheses(self):
        assert parse_regex("(a, b)*") == Star(Concat((Symbol("a"), Symbol("b"))))

    def test_eps(self):
        assert parse_regex("eps") == EPSILON
        assert parse_regex("") == EPSILON
        assert parse_regex("   ") == EPSILON

    def test_plus_and_optional(self):
        assert parse_regex("a+?") == Optional(Plus(Symbol("a")))

    @pytest.mark.parametrize("text", ["a |", "(a", "a)", ",a", "a,", "*", "a,|b"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_regex(text)


class TestSmartConstructors:
    def test_concat_flattens(self):
        e = concat([Symbol("a"), concat([Symbol("b"), Symbol("c")])])
        assert e == Concat((Symbol("a"), Symbol("b"), Symbol("c")))

    def test_concat_drops_epsilon(self):
        assert concat([EPSILON, Symbol("a"), EPSILON]) == Symbol("a")

    def test_concat_absorbs_empty(self):
        assert concat([Symbol("a"), EMPTY]) == EMPTY

    def test_union_dedups(self):
        assert union([Symbol("a"), Symbol("a")]) == Symbol("a")

    def test_union_of_nothing_is_empty(self):
        assert union([]) == EMPTY

    def test_nullable(self):
        assert parse_regex("a*").nullable()
        assert parse_regex("a?, b?").nullable()
        assert not parse_regex("a, b*").nullable()
        assert parse_regex("a | b*").nullable()

    def test_symbols(self):
        assert parse_regex("(a|b), c*").symbols() == frozenset({"a", "b", "c"})


def nfa(text: str) -> NFA:
    return NFA.from_regex(parse_regex(text))


class TestGlushkovNFA:
    @pytest.mark.parametrize(
        "expr,word,expected",
        [
            ("a", ("a",), True),
            ("a", (), False),
            ("a", ("b",), False),
            ("a*", (), True),
            ("a*", ("a", "a", "a"), True),
            ("a+", (), False),
            ("a+", ("a",), True),
            ("a?", (), True),
            ("a?", ("a", "a"), False),
            ("a, b", ("a", "b"), True),
            ("a, b", ("b", "a"), False),
            ("a | b", ("a",), True),
            ("a | b", ("b",), True),
            ("a | b", ("a", "b"), False),
            ("(a, b)*", ("a", "b", "a", "b"), True),
            ("(a, b)*", ("a", "b", "a"), False),
            ("(a | b)*, c", ("a", "b", "b", "c"), True),
            ("eps", (), True),
            ("eps", ("a",), False),
            ("empty", (), False),
            ("course, course", ("course", "course"), True),
            ("course, course", ("course",), False),
        ],
    )
    def test_accepts(self, expr, word, expected):
        assert nfa(expr).accepts(word) is expected

    def test_shortest_word(self):
        assert nfa("a, b*, c").shortest_word() == ("a", "c")

    def test_shortest_word_empty_language(self):
        assert nfa("empty").shortest_word() is None

    def test_shortest_word_epsilon(self):
        assert nfa("a*").shortest_word() == ()

    def test_is_empty(self):
        assert nfa("empty").is_empty()
        assert not nfa("a").is_empty()

    def test_words_enumeration(self):
        words = set(nfa("a?, b?").words(2))
        assert words == {(), ("a",), ("b",), ("a", "b")}

    def test_words_respects_bound(self):
        words = set(nfa("a*").words(2))
        assert words == {(), ("a",), ("a", "a")}

    def test_product_intersection(self):
        product = nfa("(a|b)*").product(nfa("a, (a|b)"))
        assert product.accepts(("a", "a"))
        assert product.accepts(("a", "b"))
        assert not product.accepts(("b", "a"))
        assert not product.accepts(("a",))

    def test_union_nfa(self):
        combined = nfa("a").union_nfa(nfa("b, b"))
        assert combined.accepts(("a",))
        assert combined.accepts(("b", "b"))
        assert not combined.accepts(("b",))

    def test_step_with_custom_matcher(self):
        automaton = nfa("x, y")
        # letters are ints; transition symbols "x"/"y" match parity.
        matcher = lambda symbol, letter: (symbol == "x") == (letter % 2 == 0)
        states = automaton.initial
        states = automaton.step(states, 4, matcher)
        states = automaton.step(states, 7, matcher)
        assert automaton.is_accepting_set(states)


class TestDFA:
    def test_determinize_preserves_language(self):
        automaton = nfa("(a|b)*, a, b")
        dfa = automaton.determinize()
        for word in [("a", "b"), ("b", "a", "b"), ("a",), (), ("a", "b", "a")]:
            assert dfa.accepts(word) == automaton.accepts(word)

    def test_complement(self):
        dfa = nfa("a, b").determinize(alphabet={"a", "b"})
        comp = dfa.complement()
        assert not comp.accepts(("a", "b"))
        assert comp.accepts(("a",))
        assert comp.accepts(())

    def test_product_intersection_and_union(self):
        d1 = nfa("a*").determinize(alphabet={"a", "b"})
        d2 = nfa("a, a").determinize(alphabet={"a", "b"})
        inter = d1.product(d2)
        assert inter.accepts(("a", "a"))
        assert not inter.accepts(("a",))
        union_dfa = d1.product(d2, accept_both=False)
        assert union_dfa.accepts(("a",))

    def test_product_alphabet_mismatch(self):
        d1 = nfa("a").determinize(alphabet={"a"})
        d2 = nfa("b").determinize(alphabet={"b"})
        with pytest.raises(ValueError):
            d1.product(d2)

    def test_is_universal(self):
        dfa = nfa("(a|b)*").determinize(alphabet={"a", "b"})
        assert dfa.is_universal()
        assert not nfa("a*").determinize(alphabet={"a", "b"}).is_universal()

    def test_minimize_preserves_language(self):
        dfa = nfa("(a|b)*, a").determinize(alphabet={"a", "b"})
        minimal = dfa.minimize()
        for word in [("a",), ("b",), ("b", "a"), (), ("a", "b")]:
            assert minimal.accepts(word) == dfa.accepts(word)

    def test_minimize_reduces_states(self):
        dfa = nfa("a | a").determinize(alphabet={"a"})
        assert len(dfa.minimize().states) <= len(dfa.states)

    def test_equivalent(self):
        d1 = nfa("a, a*").determinize(alphabet={"a"})
        d2 = nfa("a+").determinize(alphabet={"a"})
        assert d1.equivalent(d2)
        d3 = nfa("a*").determinize(alphabet={"a"})
        assert not d1.equivalent(d3)

    def test_shortest_word(self):
        dfa = nfa("a, b | c").determinize(alphabet={"a", "b", "c"})
        assert dfa.shortest_word() == ("c",)


# -- randomized cross-validation: regex membership vs NFA vs DFA -----------

symbols_st = st.sampled_from(["a", "b"])


def regex_st():
    return st.recursive(
        st.one_of(
            st.builds(Symbol, symbols_st),
            st.just(EPSILON),
        ),
        lambda inner: st.one_of(
            st.builds(lambda l, r: Concat((l, r)), inner, inner),
            st.builds(lambda l, r: Union((l, r)), inner, inner),
            st.builds(Star, inner),
            st.builds(Plus, inner),
            st.builds(Optional, inner),
        ),
        max_leaves=5,
    )


def naive_matches(expr, word) -> bool:
    """Reference regex semantics by naive recursion on (expr, word) splits."""
    if expr == EPSILON:
        return word == ()
    if expr == EMPTY:
        return False
    if isinstance(expr, Symbol):
        return word == (expr.symbol,)
    if isinstance(expr, Concat):
        head, rest = expr.parts[0], expr.parts[1:]
        tail = Concat(rest) if len(rest) > 1 else rest[0]
        return any(
            naive_matches(head, word[:i]) and naive_matches(tail, word[i:])
            for i in range(len(word) + 1)
        )
    if isinstance(expr, Union):
        return any(naive_matches(part, word) for part in expr.parts)
    if isinstance(expr, Optional):
        return word == () or naive_matches(expr.inner, word)
    if isinstance(expr, (Star, Plus)):
        if word == ():
            return expr.nullable()
        return any(
            i > 0 and naive_matches(expr.inner, word[:i])
            and naive_matches(Star(expr.inner), word[i:])
            for i in range(1, len(word) + 1)
        )
    raise TypeError(expr)


@given(regex_st(), st.lists(symbols_st, max_size=5).map(tuple))
def test_nfa_agrees_with_naive_semantics(expr, word):
    assert NFA.from_regex(expr).accepts(word) == naive_matches(expr, word)


@given(regex_st(), st.lists(symbols_st, max_size=4).map(tuple))
def test_dfa_agrees_with_nfa(expr, word):
    automaton = NFA.from_regex(expr)
    dfa = automaton.determinize(alphabet={"a", "b"})
    assert dfa.accepts(word) == automaton.accepts(word)


@given(regex_st())
def test_shortest_word_is_accepted_and_nullable_consistent(expr):
    automaton = NFA.from_regex(expr)
    word = automaton.shortest_word()
    if word is None:
        assert expr.is_empty_language()
    else:
        assert automaton.accepts(word)
        assert (word == ()) == expr.nullable()


@pytest.mark.parametrize("text", [
    "(" * 3000 + "a" + ")" * 3000,
    "a" + "*" * 3000,
    "(" * 101 + "a" + ")" * 101,
])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nesting"):
        parse_regex(text)


def test_nesting_up_to_the_limit_parses():
    assert parse_regex("(" * 100 + "a" + ")" * 100) == parse_regex("a")
