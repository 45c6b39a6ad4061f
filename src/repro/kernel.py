"""Kernel selection for the pattern engine: object vs array-backed.

Documents are evaluated either over linked ``TreeNode`` objects (the
object engine) or over a contiguous array layout (preorder arrays of
label ids, the compact engine).  Both engines decide the same relations,
and the differential tests (``tests/test_kernels.py``) hold them to
byte-identical verdicts.  Selection is a function of the document size
alone: there is no user setting.  :func:`force_kernel` exists only so
the differential tests and the benchmarks can run each engine against
the other.  Every decision increments ``repro_kernel_selected_total`` so
``--stats`` shows which engine actually ran.

The automata have one production encoding, the bitset automata of
:mod:`repro.automata.bitset`, so no kernel is selected for them; the
plain automata they re-encode live in :mod:`repro.verification.automata`,
the reference the differential tests hold them to.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import REGISTRY

PURE = "pure"
BITSET = "bitset"

#: Size thresholds per surface: below the size the pure path runs, at
#: or above it the bitset path.  "Size" is the document's node count.
#: The pattern-engine cutover is the crossover measured by the
#: engine-size sweep of ``benchmarks/bench_scale.py --cutover``
#: (``_meta.engine-cutover`` in ``BENCH_scale.json``): the array-backed
#: engine is faster from 8 nodes up, the object engine wins or ties below.
AUTO_THRESHOLDS = {
    "pattern-engine": 8,
}

_SELECTED = REGISTRY.counter(
    "repro_kernel_selected_total",
    "Kernel selections by surface (pattern-engine)",
    ("kernel", "surface"),
)

#: Pinned kernels, innermost last (see :func:`force_kernel`).
_FORCED: list[str] = []


@contextmanager
def force_kernel(kernel: str) -> Iterator[None]:
    """Pin the pattern-engine kernel within the block.

    A test and benchmark seam for running one implementation against the
    other; production code never forces a kernel.
    """
    if kernel not in (PURE, BITSET):
        raise ValueError(f"unknown kernel {kernel!r}")
    _FORCED.append(kernel)
    try:
        yield
    finally:
        _FORCED.pop()


def select_kernel(surface: str, size: int) -> str:
    """The kernel to run *surface* with, for an input of the given *size*.

    The decision is recorded in the ``repro_kernel_selected_total`` metric.
    """
    if _FORCED:
        kernel = _FORCED[-1]
    else:
        kernel = BITSET if size >= AUTO_THRESHOLDS[surface] else PURE
    _SELECTED.labels(kernel=kernel, surface=surface).inc()
    return kernel
