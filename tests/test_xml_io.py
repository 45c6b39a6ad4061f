"""Tests for real-XML import/export (repro.xmlmodel.xml_io)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MAX_NESTING, ParseError, XsmError
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.parser import parse_tree
from repro.xmlmodel.tree import tree
from repro.xmlmodel.xml_io import from_xml, int_coercion, to_xml


DTD = parse_dtd("r -> a*, b?\na(x, y)\nb(note)")


class TestExport:
    def test_leaf(self):
        assert to_xml(parse_tree("r")) == "<r/>\n"

    def test_attributes_named_by_dtd(self):
        xml = to_xml(parse_tree("r[a(1, 2)]"), DTD)
        assert '<a x="1" y="2"/>' in xml

    def test_attributes_fallback_names(self):
        xml = to_xml(parse_tree("q(7)"))
        assert xml == '<q a0="7"/>\n'

    def test_nesting_and_indent(self):
        xml = to_xml(parse_tree("r[a(1, 2)[a(3, 4)]]"), DTD)
        assert xml == (
            "<r>\n"
            '  <a x="1" y="2">\n'
            '    <a x="3" y="4"/>\n'
            "  </a>\n"
            "</r>\n"
        )

    def test_siblings_keep_their_order(self):
        xml = to_xml(parse_tree("r[a(1, 2)[a(3, 4), a(5, 6)], a(7, 8)]"), DTD)
        assert xml == (
            "<r>\n"
            '  <a x="1" y="2">\n'
            '    <a x="3" y="4"/>\n'
            '    <a x="5" y="6"/>\n'
            "  </a>\n"
            '  <a x="7" y="8"/>\n'
            "</r>\n"
        )

    def test_escaping(self):
        xml = to_xml(tree("b", attrs=('say "<hi>" & bye',)), DTD)
        assert "&quot;" in xml and "&lt;hi&gt;" in xml and "&amp;" in xml

    def test_whitespace_in_values_is_written_as_character_references(self):
        node = tree("q", attrs=("x\ny\tz\r",))
        xml = to_xml(node)
        assert xml == '<q a0="x&#10;y&#9;z&#13;"/>\n'
        assert from_xml(xml) == node

    @pytest.mark.parametrize(
        "value", ["\x00", "a\x1fb", "\x0b", "\ufffe", "x\uffff", "\ud800"]
    )
    def test_code_points_xml_cannot_carry_are_refused(self, value):
        with pytest.raises(XsmError, match="cannot carry"):
            to_xml(tree("q", attrs=(value,)))


class TestImport:
    def test_simple(self):
        assert from_xml("<r><a x='1' y='2'/></r>") == parse_tree("r[a(1, 2)]")

    def test_whitespace_and_comments_skipped(self):
        text = """<?xml version="1.0"?>
        <!-- a document -->
        <r>
          <a x="1" y="2"/>
        </r>"""
        assert from_xml(text) == parse_tree("r[a(1, 2)]")

    def test_dtd_orders_attributes(self):
        # document order y-before-x; the DTD declaration order wins
        result = from_xml('<r><a y="2" x="1"/></r>', DTD)
        assert result.children[0].attrs == (1, 2)

    def test_dtd_missing_attribute_rejected(self):
        with pytest.raises(ParseError, match="attributes"):
            from_xml('<r><a x="1"/></r>', DTD)

    def test_unknown_element_with_dtd(self):
        with pytest.raises(ParseError, match="unknown element"):
            from_xml("<r><zzz/></r>", DTD)

    def test_coercion(self):
        assert from_xml('<q a="12"/>').attrs == (12,)
        assert from_xml('<q a="12"/>', coerce=None).attrs == ("12",)
        assert int_coercion("x1") == "x1"

    def test_text_content_rejected(self):
        with pytest.raises(ParseError, match="text content"):
            from_xml("<r>hello</r>")

    @pytest.mark.parametrize(
        "text",
        ["", "<r>", "<r></q>", "<r/><r/>", "</r>", "<r><a></r></a>"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            from_xml(text)

    def test_entity_unescaping(self):
        result = from_xml('<q a="&lt;x&gt; &amp; &quot;y&quot;"/>')
        assert result.attrs == ('<x> & "y"',)

    def test_character_references_are_read(self):
        assert from_xml('<q v="&#65;&#x42;"/>').attrs == ("AB",)

    def test_raw_ampersand_rejected(self):
        with pytest.raises(ParseError):
            from_xml('<q v="a&b"/>')

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ParseError, match="duplicate attribute"):
            from_xml('<q v="1" v="2"/>')

    @pytest.mark.parametrize(
        "doctype",
        [
            '<!DOCTYPE r [<!ENTITY e "x">]>',
            '<!DOCTYPE r [<!ENTITY a "aaaaaaaa"><!ENTITY b "&a;&a;&a;&a;">'
            '<!ENTITY c "&b;&b;&b;&b;">]>',
            '<!DOCTYPE r SYSTEM "r.dtd">',
        ],
    )
    def test_dtd_subsets_rejected(self, doctype):
        # no entity expansion, so no billion-laughs amplification either
        with pytest.raises(ParseError, match="DTD subset"):
            from_xml(doctype + '<r v="&c;"/>')

    def test_plain_doctype_skipped(self):
        assert from_xml("<!DOCTYPE r><r><a/></r>") == parse_tree("r[a]")

    def test_error_position_is_a_character_offset(self):
        text = '<r><a x="é" y="ü"/><zzz/></r>'
        with pytest.raises(ParseError) as unknown:
            from_xml(text, DTD)
        assert unknown.value.position == text.index("<zzz")
        text = '<r v="ééé"><q></r>'
        with pytest.raises(ParseError, match="mismatched tag") as mismatched:
            from_xml(text)
        assert mismatched.value.position == text.index("</r>") + len("</")

    def test_unencodable_text_rejected(self):
        with pytest.raises(ParseError) as error:
            from_xml('<r v="\ud800"/>')
        assert error.value.position == len('<r v="')

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
    def test_deep_nesting_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match="nesting"):
            from_xml("<a>" * depth + "<b/>" + "</a>" * depth)

    def test_nesting_up_to_the_limit_parses(self):
        node = from_xml("<a>" * MAX_NESTING + "<b/>" + "</a>" * MAX_NESTING)
        depth = 0
        while node.children:
            (node,) = node.children
            depth += 1
        assert depth == MAX_NESTING


labels_st = st.sampled_from(["r", "a", "b"])
values_st = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=5
    ).filter(lambda s: not s.isdigit() and not (s.startswith("-") and s[1:].isdigit())),
)


def trees_st():
    return st.recursive(
        st.builds(tree, labels_st, st.lists(values_st, max_size=2)),
        lambda ch: st.builds(
            tree, labels_st, st.lists(values_st, max_size=2), st.lists(ch, max_size=3)
        ),
        max_leaves=6,
    )


@given(trees_st())
def test_roundtrip(t):
    # values become strings in XML; ints round-trip via the default coercion
    normalized = t.map_values(lambda v: int_coercion(str(v)))
    assert from_xml(to_xml(t)) == normalized
