"""Regular expressions and finite word automata.

This subpackage is the horizontal-language substrate of the library: DTD
productions are regular expressions over element types, and the horizontal
languages of unranked tree automata are regular languages over automaton
states.  It provides

* a regex AST (:mod:`repro.regex.ast`) with the operators used by DTDs
  (concatenation, union, ``*``, ``+``, ``?``, epsilon),
* a parser for the DTD production syntax (:mod:`repro.regex.parser`),
* Glushkov-construction NFAs with product/union/emptiness/membership
  and their bitset encoding (:mod:`repro.regex.nfa`),
* the bitset DFAs that encoding determinizes into (:mod:`repro.regex.dfa`).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".ast": (
        "Regex", "Epsilon", "Empty", "Symbol", "Concat", "Union", "Star",
        "Plus", "Optional", "EPSILON", "EMPTY", "concat", "union",
    ),
    ".parser": ("parse_regex",),
    ".nfa": ("NFA",),
})
