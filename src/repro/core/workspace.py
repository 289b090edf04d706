"""Shared tensor workspace for the assignment DP (performance layer).

Each stage of the §3.1 transition needs several ``(P+1)^3`` tensors — the
value table, its predecessor, the shifted view ``W``, the response tensor,
and the ``max``/``argmin`` scratch block.  The seed solver re-allocated all
of them for every stage of every clustering, which dominated both solve
time (allocation + page faults) and peak memory at large ``P``.

:class:`SolverWorkspace` preallocates one arena per machine size ``P`` and
reuses it across stages, clusterings, and solves.  It also centralises the
two memory/precision knobs of the solver stack:

``value_dtype``
    ``float64`` (default) keeps the DP bit-identical to the analytic
    response model.  ``float32`` halves the tables and the memory traffic
    of the transition; the reconstructed mapping is then re-scored in
    ``float64`` by the solver, so the *reported* throughput stays exact
    (the mapping itself may differ from the ``float64`` optimum only when
    two mappings are closer than ``float32`` resolution).

``memory_budget_mb``
    Caps the bytes the workspace may hold.  The transition scratch block is
    shrunk (down to the largest single ``(pt, pl)`` cell, see
    :func:`min_block_elements`) to fit; the budget must at least cover the
    four resident ``(P+1)^3`` value tensors plus that cell, otherwise
    :class:`~repro.core.exceptions.InfeasibleError` is raised up front
    rather than thrashing.

The transition scratch itself is small: :data:`BLOCK_ELEMENTS` elements
(fewer under a tight budget), one ``max``/``argmin`` block of the
transition, reused block after block.

Argmin tables are stored in the smallest integer dtype that can index
``0..P`` (``uint8`` up to ``P = 255``), a 4x saving over the seed's
``int32`` tables.

The workspace is not thread-safe: share one per thread/process.  The
module-level :func:`default_workspace` is what the solvers use when the
caller does not pass one explicitly.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InfeasibleError

__all__ = [
    "SolverWorkspace",
    "default_workspace",
    "argmin_dtype",
    "min_block_elements",
]

#: Elements of one transition ``max``/``argmin`` block ("T").  2^16 float64
#: values are 512 KiB, small enough to stay cache-resident; a whole stage at
#: P <= 15 is one block.
BLOCK_ELEMENTS = 2**16


def min_block_elements(max_procs: int) -> int:
    """Elements of the largest single-cell block of the transition.

    The cell ``(pt, pl=0)`` reduces over ``q <= pt`` for every
    ``pn <= P - pt``: ``(pt + 1) * (P + 1 - pt)`` elements, largest at
    ``pt = P // 2``.  The scratch block can never be smaller than this.
    """
    pt = max_procs // 2
    return (pt + 1) * (max_procs + 1 - pt)


def argmin_dtype(max_procs: int) -> np.dtype:
    """Smallest unsigned dtype able to index processor counts ``0..max_procs``."""
    if max_procs <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if max_procs <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


class _Arena:
    """The per-``P`` buffer set.  All shapes use ``N = P + 1``."""

    def __init__(self, P: int, value_dtype: np.dtype, block_elements: int):
        N = P + 1
        self.P = P
        self.value_dtype = value_dtype
        # Ping-pong value tables, shifted-view W (pt, pl, q), response R2
        # (pl, pn, q) — the q axis last so the reduction is contiguous.
        self.V0 = np.empty((N, N, N), dtype=value_dtype)
        self.V1 = np.empty((N, N, N), dtype=value_dtype)
        self.W2 = np.empty((N, N, N), dtype=value_dtype)
        self.R2 = np.empty((N, N, N), dtype=value_dtype)
        # Scratch for one max/argmin block and its argmin indices (a block
        # has at most as many index cells as value elements).
        self.t_flat = np.empty(block_elements, dtype=value_dtype)
        self.idx_flat = np.empty(block_elements, dtype=np.intp)

    @property
    def nbytes(self) -> int:
        return (
            self.V0.nbytes + self.V1.nbytes + self.W2.nbytes
            + self.R2.nbytes + self.t_flat.nbytes + self.idx_flat.nbytes
        )


class SolverWorkspace:
    """Reusable tensor arena + dtype/memory policy for the assignment DP."""

    def __init__(
        self,
        value_dtype=np.float64,
        memory_budget_mb: float | None = None,
    ):
        self.value_dtype = np.dtype(value_dtype)
        if self.value_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported value dtype {value_dtype!r}")
        self.memory_budget_mb = memory_budget_mb
        self._arena: _Arena | None = None
        self._extra_bytes = 0  # solver-owned tables (argmin) currently live
        self.peak_table_bytes = 0

    # -- memory policy ----------------------------------------------------
    def _block_elements(self, P: int) -> int:
        N = P + 1
        least = min_block_elements(P)
        most = max(least, min(BLOCK_ELEMENTS, N**4))  # never above one stage
        if self.memory_budget_mb is None:
            return most
        itemsize = self.value_dtype.itemsize
        per_element = itemsize + np.dtype(np.intp).itemsize  # t_flat + idx_flat
        budget = int(self.memory_budget_mb * 2**20)
        resident = 4 * N * N * N * itemsize  # V0, V1, W2, R2
        if budget < resident + least * per_element:
            need_mb = (resident + least * per_element) / 2**20
            raise InfeasibleError(
                f"memory budget {self.memory_budget_mb:.0f} MB cannot hold the "
                f"DP tables at P={P}; need at least {need_mb:.0f} MB"
            )
        return min(most, (budget - resident) // per_element)

    # -- arena management -------------------------------------------------
    def arena(self, P: int) -> _Arena:
        """The buffer set for machine size ``P`` (grown/reused as needed)."""
        ar = self._arena
        if ar is None or ar.P != P or ar.value_dtype != self.value_dtype:
            self._arena = None  # release before allocating the replacement
            ar = _Arena(P, self.value_dtype, self._block_elements(P))
            self._arena = ar
            self._note()
        return ar

    # -- accounting -------------------------------------------------------
    def _note(self) -> None:
        live = (self._arena.nbytes if self._arena else 0) + self._extra_bytes
        if live > self.peak_table_bytes:
            self.peak_table_bytes = live

    def track(self, nbytes: int) -> None:
        """Record solver-owned table bytes (argmin tables) as live."""
        self._extra_bytes += nbytes
        self._note()

    def release(self) -> None:
        """Mark solver-owned tables as freed (end of one solve)."""
        self._extra_bytes = 0

    def reset_peak(self) -> None:
        self._extra_bytes = 0
        self.peak_table_bytes = (
            self._arena.nbytes if self._arena is not None else 0
        )

    def drop(self) -> None:
        """Free the arena entirely (e.g. between sweeps at different P)."""
        self._arena = None
        self._extra_bytes = 0


_DEFAULT: SolverWorkspace | None = None


def default_workspace() -> SolverWorkspace:
    """The process-wide workspace used when solvers get ``workspace=None``."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SolverWorkspace()
    return _DEFAULT
