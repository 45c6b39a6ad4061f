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

from repro.xmlmodel.tree import TreeNode, tree
from repro.xmlmodel.parser import parse_tree, serialize_tree
from repro.xmlmodel.dtd import DTD, parse_dtd
from repro.xmlmodel.xml_io import from_xml, to_xml

__all__ = [
    "TreeNode",
    "tree",
    "parse_tree",
    "serialize_tree",
    "DTD",
    "parse_dtd",
    "from_xml",
    "to_xml",
]
