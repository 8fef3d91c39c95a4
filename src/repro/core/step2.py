"""Step 2 of TileSpGEMM: the symbolic phase (paper §3.3, Algorithm 2).

Given the candidate tiles of ``C`` and the matched ``(A_ik, B_kj)`` tile
pairs, this step determines each candidate tile's bit masks, row pointer
and nonzero count — everything needed to allocate ``C`` — without touching
values.

The kernel is the paper's Figure 5 verbatim, vectorised: for every matched
pair, every nonzero of the ``A`` tile (local position ``(r, c)``) ORs the
``c``-th row mask of the ``B`` tile onto the ``r``-th row mask of the ``C``
tile.  The CUDA ``AtomicOr`` becomes an unbuffered ``np.bitwise_or.at``
scatter; the per-tile row pointers then fall out of mask popcounts plus a
prefix scan, exactly as in the paper.

All working state of this step is bounded by ``num_c_tiles * tile_size``
mask words — the Python analogue of the paper's claim that step 2 runs
entirely in on-chip scratchpad memory with no global intermediate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import TilePairs, subset_pairs
from repro.core.tile_matrix import TileMatrix, mask_dtype_for
from repro.util.arrays import concat_ranges

__all__ = ["SymbolicResult", "mask_structure", "productive_pairs", "step2_symbolic"]


@dataclass
class SymbolicResult:
    """Output of the symbolic phase for the candidate tiles of ``C``.

    Attributes
    ----------
    mask:
        ``(num_c_tiles, T)`` row masks of every candidate tile.
    rowptr:
        ``(num_c_tiles, T)`` per-tile CSR row pointers (paper convention:
        ``T`` entries, the implicit last offset is the tile's nnz).
    tilennz:
        ``(num_c_tiles + 1)`` offsets of each tile's nonzeros in the value
        array to be allocated.
    tile_nnz_counts:
        Per-tile nonzero counts (``diff(tilennz)``).
    symbolic_ops:
        Number of mask-OR operations of the paper's kernel (cost-model
        input): one per (matched pair, A-tile nonzero).
    pair_a_nnz:
        Per matched pair, the nonzero count of its ``A`` tile (cost-model
        input).
    productive:
        The matched pairs that make at least one product, under the same
        candidate tiles (a tile may keep none); the input pairs object
        itself when every pair is productive.  Step 3 multiplies these.
    pair_products:
        Intermediate products of each pair of ``productive``.
    """

    mask: np.ndarray
    rowptr: np.ndarray
    tilennz: np.ndarray
    tile_nnz_counts: np.ndarray
    symbolic_ops: int
    pair_a_nnz: np.ndarray
    productive: TilePairs
    pair_products: np.ndarray

    @property
    def nnz(self) -> int:
        """Total nonzeros of ``C`` (sum over candidate tiles)."""
        return int(self.tilennz[-1])


def step2_symbolic(
    a: TileMatrix, b: TileMatrix, pairs: TilePairs, backend=None
) -> SymbolicResult:
    """Run the symbolic phase over all candidate tiles at once.

    Only the productive pairs are expanded (see :func:`productive_pairs`):
    a pair whose ``A`` columns miss every non-empty row of its ``B`` tile
    would OR only zero masks, so dropping it changes no bit.  The
    cost-model counts (``symbolic_ops``, ``pair_a_nnz``) still describe
    the paper's kernel, which visits every matched pair.

    ``backend`` selects the kernel set for the mask OR-accumulate and the
    popcounts (a name, a :class:`~repro.backend.KernelSet`, or ``None``
    for the ambient default — see :func:`repro.backend.resolve_backend`).
    """
    kernels = resolve_backend(backend)
    T = a.tile_size
    if T != b.tile_size:
        raise ValueError("A and B must use the same tile size")
    if T > 16:
        raise ValueError("the SpGEMM kernels support tile sizes up to 16")
    mask_c = np.zeros((pairs.num_c_tiles, T), dtype=mask_dtype_for(T))

    a_counts = a.tile_nnz_counts()
    pair_a_nnz = a_counts[pairs.pair_a] if pairs.num_pairs else np.empty(0, dtype=np.int64)
    live = productive_pairs(a, b, pairs)
    productive = pairs if live.all() else subset_pairs(pairs, live)

    # Expand every productive pair into its A tile's nonzeros.
    nnz = a_counts[productive.pair_a]
    a_nnz_idx = concat_ranges(a.tilennz[productive.pair_a], nnz)
    pair_of_nnz = np.repeat(np.arange(productive.num_pairs, dtype=np.int64), nnz)
    c_slot = productive.pair_c_slot()[pair_of_nnz]
    r = a.rowidx[a_nnz_idx].astype(np.int64)
    c = a.colidx[a_nnz_idx].astype(np.int64)
    b_rows = b.mask[productive.pair_b[pair_of_nnz], c]
    # AtomicOr(mask_C[slot, r], mask_B[b_tile, c]) for every A nonzero.
    kernels.mask_or_into(mask_c.reshape(-1), c_slot * T + r, b_rows)
    # A pair's products: the lengths of the B rows it gathered, summed
    # (every productive pair's A tile has a nonzero, so no segment is empty).
    nnz_start = np.cumsum(nnz) - nnz
    pair_products = np.add.reduceat(kernels.popcount(b_rows), nnz_start, dtype=np.int64)

    rowptr, tilennz, tile_counts = mask_structure(mask_c, kernels)
    return SymbolicResult(
        mask=mask_c,
        rowptr=rowptr,
        tilennz=tilennz,
        tile_nnz_counts=tile_counts,
        symbolic_ops=int(pair_a_nnz.sum()),
        pair_a_nnz=pair_a_nnz,
        productive=productive,
        pair_products=pair_products,
    )


def productive_pairs(a: TileMatrix, b: TileMatrix, pairs: TilePairs) -> np.ndarray:
    """Which matched pairs make at least one intermediate product.

    Pair ``(A_ik, B_kj)`` makes a product exactly when some nonzero of
    ``A_ik`` sits in a column ``c`` whose row ``c`` of ``B_kj`` is
    non-empty, i.e. when the AND of ``A_ik``'s column occupancy (the OR
    of its row masks) and ``B_kj``'s row occupancy (bit ``c`` set for
    every non-empty row ``c``) is non-zero — one gather and one AND per
    pair instead of an expansion into nonzeros.
    """
    T = a.tile_size
    a_cols = np.bitwise_or.reduce(a.mask, axis=1)
    bits = np.left_shift(1, np.arange(T)).astype(b.mask.dtype)
    b_rows = np.bitwise_or.reduce((b.mask != 0) * bits, axis=1)
    return (a_cols[pairs.pair_a] & b_rows[pairs.pair_b]) != 0


def mask_structure(
    mask_c: np.ndarray, backend=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tile row pointers, tile offsets and nonzero counts from ``C``'s masks.

    The popcounts of the row masks, prefix-scanned within each tile (the
    row pointers, in the rowptr dtype) and across tiles (``tilennz``).
    """
    num_c, T = mask_c.shape
    counts_per_row = resolve_backend(backend).popcount(mask_c).astype(np.int64)
    rowptr = np.zeros_like(counts_per_row)
    if num_c:
        np.cumsum(counts_per_row[:, :-1], axis=1, out=rowptr[:, 1:])
    tile_counts = counts_per_row.sum(axis=1) if num_c else np.zeros(0, dtype=np.int64)
    tilennz = np.zeros(num_c + 1, dtype=np.int64)
    np.cumsum(tile_counts, out=tilennz[1:])
    rowptr_dtype = np.uint8 if T * T <= 256 else np.uint16
    return rowptr.astype(rowptr_dtype), tilennz, tile_counts
