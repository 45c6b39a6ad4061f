"""Tree patterns: the paper's extended pattern language (grammar (2)).

Patterns describe tree shapes with four navigation axes — child,
descendant (``//``), next-sibling (``->``), following-sibling (``->*``) —
wildcard labels (``_``) and variables/constants on attributes::

    r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]],
              supervise[student(s)]]]

The subpackage provides the AST (:mod:`repro.patterns.ast`), a parser
(:mod:`repro.patterns.parser`), the matching semantics of Section 3
(:mod:`repro.patterns.matching`), satisfiability with respect to a DTD
(:mod:`repro.patterns.satisfiability`, Lemma 4.1) and feature/signature
analysis (:mod:`repro.patterns.features`).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".ast": ("WILDCARD", "Descendant", "Pattern", "Sequence", "node", "seq"),
    ".parser": ("parse_pattern",),
    ".index": ("CompactTreeIndex", "EngineStats", "TreeIndex"),
    ".compact": ("CompactPatternEngine",),
    ".matching": (
        "PatternEngine", "engine_for", "evaluate", "find_matches",
        "find_matches_anywhere", "holds", "matches_anywhere", "matches_at_root",
    ),
    ".features": ("Axes", "axes_of", "is_fully_specified"),
    ".satisfiability": ("is_satisfiable", "satisfying_tree", "structural_witness"),
    ".separation": ("find_separating_tree", "pattern_contained", "patterns_equivalent"),
})
