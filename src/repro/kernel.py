"""Kernel selection: pure-Python oracle vs bitset fast path.

Two independent surfaces carry a vectorized "bitset" implementation next
to the original pure-Python one:

* **automata** — the closure/DTD automata and their product emptiness
  check encode states as machine integers (bit-packed subpattern sets,
  dense DFA state ids) instead of frozensets of tuples;
* **pattern-engine** — documents are evaluated over a contiguous array
  layout (preorder arrays of label ids) instead of linked ``TreeNode``
  objects.

Both kernels decide the same relations, and the differential tests
(``tests/test_kernels.py``) hold them to byte-identical verdicts.
Selection is a function of the input size alone: there is no user
setting.  :func:`force_kernel` exists only so the differential tests and
``benchmarks/bench_scale.py`` can run each implementation against the
other.  Every decision increments ``repro_kernel_selected_total`` so
``--stats`` shows which kernels actually ran.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import REGISTRY

PURE = "pure"
BITSET = "bitset"

#: Size thresholds per surface: below the size the pure path runs, at
#: or above it the bitset path.  "Size" is surface-specific —
#: subpatterns+labels for automata, node count for the pattern engine.
#: The pattern-engine cutover is the crossover measured by the
#: engine-size sweep of ``benchmarks/bench_scale.py --cutover``
#: (``_meta.engine-cutover`` in ``BENCH_scale.json``): the array-backed
#: engine is faster from 8 nodes up, the object engine wins or ties below.
AUTO_THRESHOLDS = {
    "automata": 16,
    "pattern-engine": 8,
}

_SELECTED = REGISTRY.counter(
    "repro_kernel_selected_total",
    "Kernel selections by surface (automata / pattern-engine)",
    ("kernel", "surface"),
)

#: Pinned kernels, innermost last (see :func:`force_kernel`).
_FORCED: list[str] = []


@contextmanager
def force_kernel(kernel: str) -> Iterator[None]:
    """Pin kernel selection on every surface within the block.

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
