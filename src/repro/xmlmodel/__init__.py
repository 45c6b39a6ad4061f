"""XML data model: unranked ordered trees with data values, and DTDs.

This package implements the paper's document model (Section 2): trees

    T = < U, child, next-sibling, lab, (rho_a)_{a in Att} >

as :class:`~repro.xmlmodel.tree.TreeNode` structures, a compact text syntax
for writing them down, and DTDs with regular-expression productions,
conformance checking and the nested-relational classification.
DTD inclusion and equivalence live in :mod:`repro.xmlmodel.dtd_ops`,
which this package does not import: it needs the tree automata, and
loading a tree should not load them.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".tree": ("TreeNode", "tree"),
    ".parser": ("parse_tree", "serialize_tree"),
    ".dtd": ("DTD", "parse_dtd"),
    ".xml_io": ("from_xml", "to_xml"),
})
