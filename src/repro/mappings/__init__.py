"""XML schema mappings (Definition 3.1 / 3.2 of the paper).

A mapping ``M = (D_s, D_t, Sigma)`` consists of a source DTD, a target DTD
and a set of source-to-target dependencies (stds)

    pi(x, y), alpha(x, y)  ->  pi'(x, z), alpha'(x, z)

where ``pi`` / ``pi'`` are tree patterns and ``alpha`` / ``alpha'`` are
conjunctions of (in)equalities over data values.  ``[[M]]`` is the set of
pairs of trees ``(T, T')`` with ``T |= D_s``, ``T' |= D_t`` and every std
satisfied; membership in ``[[M]]`` is decided by
:func:`~repro.mappings.membership.is_solution`.

Section 8's extension with Skolem functions lives in
:mod:`repro.mappings.skolem`; the canonical embedding of relational schema
mappings (Section 3) in :mod:`repro.mappings.translation`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".std": ("STD", "Comparison", "parse_std"),
    ".mapping": ("SchemaMapping", "Signature"),
    ".membership": ("is_solution", "violations"),
    ".skolem": ("SkolemMapping", "is_skolem_solution"),
})
