"""Sampling-based upfront estimation of a multiply (OCEAN-style).

The planner (:mod:`repro.runtime.planner`) and the serving tier's
admission gate need to know, *before* any symbolic work runs, roughly
how expensive ``C = A @ B`` will be and how its work is distributed over
A's tile rows.  Following the estimation-driven strategy selection of
OCEAN (PAPERS.md, "Fast Estimation-Based SpGEMM"), two quantities carry
almost all of that signal:

* the **intermediate-product count** ``products = sum_k nnz(a_*k) *
  nnz(b_k*)`` — exact, one vectorised pass over ``nnz(A)``;
* the **compression rate** ``products / nnz(C)`` — estimated by
  row sampling: for a deterministic, evenly spaced subset of A's rows
  the per-row ``nnz(C)`` is computed *exactly* (union of the B rows the
  sampled A row touches), and the sampled compression rate scales the
  exact product total into an nnz(C) estimate.

Total cost is ``O(nnz(A) + nnz(B) + sample_rows * nnz/row)`` — the
``O(sample * nnz / rows)`` sampling term of the OCEAN estimator plus two
linear passes — versus the ``O(products)`` of actually multiplying.
Tiled operands skip the row sort: products are binned in storage order,
and with dense tiles the sampled unions OR row masks, one per B tile
instead of one index per B nonzero.  Every path gives the same estimate.

The per-tile-row product histogram is returned alongside, because
equalising *predicted products* (not row counts) across shards is what
removes stragglers from the sharded parallel engine.

This module is deliberately dependency-light: it accepts CSR or tiled
operands in any mix (same duck-typing contract as
:mod:`repro.serve.admission`) and imports nothing from the runtime or
serving layers, so both can build on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.calibration import compression_band
from repro.util.arrays import concat_ranges
from repro.util.bits import popcount16

__all__ = [
    "MultiplyEstimate",
    "estimate_multiply",
    "row_products",
    "tile_row_products",
    "DEFAULT_SAMPLE_ROWS",
]

#: Rows sampled for the nnz(C)/compression estimate.  64 exact row
#: unions keep the estimator well under a millisecond on the ext
#: matrices while holding the compression-rate error to a few percent.
DEFAULT_SAMPLE_ROWS = 64


# --------------------------------------------------------------- row views
def _tile_coords(m) -> Tuple[np.ndarray, np.ndarray]:
    """Global ``(rows, cols)`` of every stored element of tiled ``m``.

    In storage order, O(nnz) vectorised: element ``e`` of tile ``t`` in
    tile row ``r`` lives at global row ``r * T + rowidx[e]`` and global
    column ``tilecolidx[t] * T + colidx[e]``.
    """
    counts = np.diff(m.tilennz)
    row_base = np.repeat(
        np.arange(m.num_tile_rows, dtype=np.int64) * m.tile_size, np.diff(m.tileptr)
    )
    rows = np.repeat(row_base, counts) + m.rowidx
    cols = np.repeat(m.tilecolidx.astype(np.int64) * m.tile_size, counts) + m.colidx
    return rows, cols


def _csr_view(m):
    """``(indptr, indices)`` row view of ``m`` (CSR or tiled).

    CSR operands are viewed in place; tiled operands sort the
    :func:`_tile_coords` of their elements into row order once.
    """
    if hasattr(m, "indptr"):
        return m.indptr, m.indices
    rows, cols = _tile_coords(m)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m.shape[0]), out=indptr[1:])
    return indptr, cols[order]


def _total_products(a, b) -> int:
    """``sum_k nnz(a_*k) * nnz(b_k*)`` for CSR or tiled operands.

    A gather of B's per-row counts at A's column indices, summed: the
    total needs no row order, so tiled operands skip :func:`_csr_view`'s
    sort.
    """
    if hasattr(b, "indptr"):
        b_rows = np.diff(b.indptr).astype(np.int64)
    else:
        b_rows = np.bincount(_tile_coords(b)[0], minlength=b.shape[0])
    a_cols = a.indices if hasattr(a, "indices") else _tile_coords(a)[1]
    return int(b_rows[a_cols].sum()) if a_cols.size else 0


def _tile_size_of(m, tile_size: Optional[int]) -> int:
    if tile_size is not None:
        return int(tile_size)
    return int(getattr(m, "tile_size", 16))


def _row_products(a_indptr, a_indices, b_indptr) -> np.ndarray:
    b_row_nnz = np.diff(b_indptr).astype(np.int64)
    per_elem = b_row_nnz[a_indices] if a_indices.size else np.zeros(0, np.int64)
    cum = np.zeros(len(per_elem) + 1, dtype=np.int64)
    np.cumsum(per_elem, out=cum[1:])
    return cum[a_indptr[1:]] - cum[a_indptr[:-1]]


def _sampled_row_unions(a_indptr, a_indices, b_indptr, b_indices, sampled, num_cols):
    """``(products, nnz)`` of the ``sampled`` rows of ``a @ b``, summed.

    Every B column a sampled A row touches is keyed ``(sample, column)``
    in one vectorised gather; the distinct keys of the sorted key array
    are the sampled rows' output nonzeros.
    """
    a_lo = a_indptr[sampled]
    a_len = a_indptr[sampled + 1] - a_lo
    ks = a_indices[concat_ranges(a_lo, a_len)]
    b_lo = b_indptr[ks]
    b_len = b_indptr[ks + 1] - b_lo
    owner = np.repeat(np.repeat(np.arange(len(sampled), dtype=np.int64), a_len), b_len)
    keys = owner * num_cols + b_indices[concat_ranges(b_lo, b_len)]
    if keys.size == 0:
        return 0, 0
    keys.sort()
    return int(keys.size), 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _tiled_at(m, T: int) -> bool:
    return getattr(m, "tile_size", None) == T and hasattr(m, "mask")


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each row mask (up to 32 bits wide)."""
    m = masks.astype(np.uint64)
    return popcount16(m & np.uint64(0xFFFF)).astype(np.int64) + popcount16(
        m >> np.uint64(16)
    )


def _tiled_row_products(a, b) -> Tuple[np.ndarray, np.ndarray]:
    """``(products per tile row of a, nnz per row of b)``, both tiled.

    Storage order is already grouped by tile row, so both come from
    gathers and bincounts over the stored elements, with no row sort.
    """
    T = a.tile_size
    b_rows = np.repeat(
        np.arange(b.num_tile_rows, dtype=np.int64) * T, np.diff(b.tilennz[b.tileptr])
    )
    b_row_nnz = np.bincount(b_rows + b.rowidx, minlength=b.num_tile_rows * T)
    elem_tile = np.repeat(np.arange(a.num_tiles, dtype=np.int64), np.diff(a.tilennz))
    per_elem = b_row_nnz[a.tilecolidx[elem_tile] * T + a.colidx]
    csum = np.zeros(per_elem.size + 1, dtype=np.int64)
    np.cumsum(per_elem, out=csum[1:])
    ends = a.tilennz[a.tileptr]
    return csum[ends[1:]] - csum[ends[:-1]], b_row_nnz


def _mask_row_unions(a, b, sampled, b_row_nnz):
    """:func:`_sampled_row_unions` from the row masks of tiled operands.

    Column ``k`` of a sampled A row selects row ``k`` of every B tile in
    B's tile row ``k // T``; OR-ing those row masks per ``(sample, B tile
    column)`` and counting bits gives the distinct output columns.  That
    visits one mask per B tile instead of one index per B nonzero, so it
    returns ``None`` (use the per-element union) when it would visit
    more masks than nonzeros, as hypersparse tiles make it.
    """
    T = a.tile_size
    tile_row, local_row = sampled // T, sampled % T
    counts = a.tileptr[tile_row + 1] - a.tileptr[tile_row]
    a_tiles = concat_ranges(a.tileptr[tile_row], counts)
    a_masks = a.mask[a_tiles, np.repeat(local_row, counts)].astype(np.int64)
    hit, c = np.nonzero((a_masks[:, None] >> np.arange(T)) & 1)
    k = a.tilecolidx[a_tiles[hit]] * T + c
    b_counts = b.tileptr[k // T + 1] - b.tileptr[k // T]
    if int(b_counts.sum()) > int(b_row_nnz[k].sum()):
        return None
    b_tiles = concat_ranges(b.tileptr[k // T], b_counts)
    b_masks = b.mask[b_tiles, np.repeat(k % T, b_counts)]
    if b_masks.size == 0:
        return 0, 0
    owner = np.repeat(np.repeat(np.arange(len(sampled), dtype=np.int64), counts)[hit], b_counts)
    keys = owner * ((b.shape[1] + T - 1) // T) + b.tilecolidx[b_tiles]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    union = np.bitwise_or.reduceat(b_masks[order], starts)
    return int(_popcount(b_masks).sum()), int(_popcount(union).sum())


def row_products(a, b) -> np.ndarray:
    """Exact intermediate products contributed by each row of ``a``.

    ``products[i] = sum_{k in a_i*} nnz(b_k*)`` — one gather over
    ``nnz(A)`` plus a segment sum, no multiply.
    """
    a_indptr, a_indices = _csr_view(a)
    b_indptr, _ = _csr_view(b)
    return _row_products(a_indptr, a_indices, b_indptr)


def _band_by_tile_row(per_row: np.ndarray, T: int) -> np.ndarray:
    num_tile_rows = (len(per_row) + T - 1) // T
    if num_tile_rows == 0:
        return np.zeros(0, dtype=np.int64)
    bands = np.arange(len(per_row), dtype=np.int64) // T
    return np.bincount(bands, weights=per_row, minlength=num_tile_rows).astype(
        np.int64
    )


def tile_row_products(a, b, tile_size: Optional[int] = None) -> np.ndarray:
    """Exact products per *tile row* of ``a`` — the shard cost weights.

    Length ``ceil(rows / tile_size)``; ``tile_size`` defaults to ``a``'s
    own when it is tiled.
    """
    return _band_by_tile_row(row_products(a, b), _tile_size_of(a, tile_size))


@dataclass(frozen=True)
class MultiplyEstimate:
    """The upfront shape of one multiply.

    Attributes
    ----------
    num_rows, rows_sampled:
        A's row count and how many rows the nnz(C) sample covered
        (``rows_sampled == num_rows`` makes the estimate exact).
    products:
        Exact intermediate-product count (``nnz(C) <= products``).
    est_nnz_c:
        Estimated output nonzeros: ``products / compression``.
    compression:
        Estimated compression rate ``products / nnz(C)`` (>= 1).
    band:
        The :data:`~repro.analysis.calibration.COMPRESSION_BANDS` label
        of ``compression`` — the key calibration reports index by.
    tile_row_products:
        Exact per-tile-row product histogram (shard cost weights).
    tile_size:
        Tile size the histogram was banded with.
    """

    num_rows: int
    rows_sampled: int
    products: int
    est_nnz_c: float
    compression: float
    band: str
    tile_row_products: np.ndarray
    tile_size: int

    def to_dict(self) -> Dict[str, object]:
        """Native-typed summary for plan artifacts (no arrays)."""
        return {
            "num_rows": int(self.num_rows),
            "rows_sampled": int(self.rows_sampled),
            "products": int(self.products),
            "est_nnz_c": float(self.est_nnz_c),
            "compression": float(self.compression),
            "band": self.band,
            "num_tile_rows": int(len(self.tile_row_products)),
            "tile_size": int(self.tile_size),
        }


def estimate_multiply(
    a,
    b,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    tile_size: Optional[int] = None,
) -> MultiplyEstimate:
    """Estimate ``a @ b`` by exact products + row-sampled compression.

    Deterministic: the sample is the ``sample_rows`` evenly spaced row
    indices (every row when ``num_rows <= sample_rows``, making
    ``est_nnz_c`` exact), so two calls on the same operands always
    produce the same estimate — a requirement for plan reproducibility
    and the byte-identity contract of planned parallel runs.
    """
    num_rows = int(a.shape[0])
    T = _tile_size_of(a, tile_size)

    sample_rows = max(1, int(sample_rows))
    if num_rows <= sample_rows:
        sampled = np.arange(num_rows, dtype=np.int64)
    else:
        # Evenly spaced indices: distinct (sample_rows <= num_rows) and
        # deterministic; the compression-rate *ratio* transfers to the
        # unsampled rows.
        sampled = (np.arange(sample_rows, dtype=np.int64) * num_rows) // sample_rows

    # Tiled operands read products and the sampled unions off tile
    # storage and row masks; the row-sorted view is built only for CSR
    # operands or when the mask union would visit more entries.
    tile_products = unions = None
    if _tiled_at(a, T) and _tiled_at(b, T):
        tile_products, b_row_nnz = _tiled_row_products(a, b)
        unions = _mask_row_unions(a, b, sampled, b_row_nnz)
    if unions is None:
        a_indptr, a_indices = _csr_view(a)
        b_indptr, b_indices = (a_indptr, a_indices) if b is a else _csr_view(b)
        if tile_products is None:
            per_row = _row_products(a_indptr, a_indices, b_indptr)
            tile_products = _band_by_tile_row(per_row, T)
        unions = _sampled_row_unions(
            a_indptr, a_indices, b_indptr, b_indices, sampled, int(b.shape[1])
        )
    sampled_products, sampled_nnz_c = unions
    products = int(tile_products.sum())
    if sampled_products > 0:
        compression = sampled_products / max(sampled_nnz_c, 1)
    else:
        compression = 1.0  # nothing sampled produced output: assume no reuse
    compression = max(compression, 1.0)
    est_nnz_c = min(float(products), products / compression) if products else 0.0

    return MultiplyEstimate(
        num_rows=num_rows,
        rows_sampled=int(len(sampled)),
        products=products,
        est_nnz_c=est_nnz_c,
        compression=float(compression),
        band=compression_band(float(compression)),
        tile_row_products=tile_products,
        tile_size=T,
    )
