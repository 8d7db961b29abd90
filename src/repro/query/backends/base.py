"""The kernel-backend contract: one scan semantics, many implementations.

A *kernel backend* is an interchangeable implementation of the two hot
loops of the library — the Algorithm 4 pruned scan
(:meth:`KernelBackend.scan`) and the within-shard block-bounded scan
(:meth:`KernelBackend.scan_shard`).  Backends trade implementation
strategy (pure-Python loop, blocked numpy vectorisation) but are
**forbidden** from trading answers:

Exactness contract
------------------
Every backend must produce, for every input, results that are
bit-identical to the ``python`` reference backend:

- ``ScanResult.items`` — the same ``(node, proximity)`` tuples with the
  same float *bit patterns*, in the same canonical-heap array order.
  This pins not just the admitted set but the exact sequence of heap
  operations (``min(k, n)``-dummy ``heapify`` + ``heapreplace``),
  because the raw heap array layout depends on it.
- ``n_visited`` / ``n_computed`` / ``n_pruned`` — identical search
  counters, which pins the early-exit point to the exact node.
- ``terminated_early`` — identical Lemma 2 termination flag.
- for ``scan_shard``: the same heap state and the same
  ``(n_checked, n_computed)`` pair, which pins the visit order of the
  shard's blocks and the block that ends the scan.

The float side of the contract rests on one **canonical reduction
primitive**: the proximity dot ``p_u = c · Σ_t data[t] · y[indices[t]]``
is defined as the *strict sequential sum in storage order, with the
accumulator starting at +0.0*.  A sequential ``acc = 0.0; acc += ...``
loop, ``(data * y[idx]).cumsum()[-1] + 0.0`` (the trailing ``+ 0.0``
normalises the signed zero of an all-(-0.0) row) and scipy's
``csr_matvec`` all realise exactly this reduction (verified bitwise),
which is what lets a blocked numpy backend reproduce the scalar
reference bit-for-bit.  BLAS ``dot`` is *not* on this list — its SIMD grouping is
alignment-dependent — which is why no backend may use ``@`` for the
proximity reduction.

The differential battery (``tests/property/test_prop_backends.py``) and
the per-backend golden fixtures enforce the contract in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Tuple, runtime_checkable

import numpy as np


@dataclass(frozen=True)
class ScanResult:
    """Raw kernel output: unranked selections plus search counters.

    ``items`` holds the heap contents (top-k rule) or every qualifying
    node (threshold rule); adapters rank, truncate and pad.
    """

    items: Tuple[Tuple[int, float], ...]
    n_visited: int
    n_computed: int
    n_pruned: int
    terminated_early: bool


@runtime_checkable
class KernelBackend(Protocol):
    """What a registered kernel backend must provide.

    Implementations are stateless singletons; any per-index derived
    state (numpy mirrors, scratch buffers) is cached *on the index
    object* via its ``_backend_cache`` slot, keyed by backend name, so
    two indexes never share scratch space.
    """

    #: Registry key (``"python"``, ``"numpy"``).
    name: str

    def scan(
        self,
        prepared,
        y: np.ndarray,
        seeds,
        *,
        k=None,
        threshold=None,
        total_mass: float,
        schedule=None,
    ) -> ScanResult:
        """Run one Algorithm 4 pruned scan.  See
        :func:`repro.query.kernel.pruned_scan` for parameter semantics;
        the dispatcher has already validated the arguments."""
        ...  # pragma: no cover - protocol signature

    def scan_shard(
        self,
        shard,
        c: float,
        y: np.ndarray,
        ymax: float,
        heap: List[Tuple[float, int, int]],
    ) -> Tuple[int, int]:
        """Scan one shard's members against the canonical heap in place.
        See :func:`repro.core.sharded.scan_shard` for the semantics."""
        ...  # pragma: no cover - protocol signature
