"""Step 3 of TileSpGEMM: the numeric phase (paper §3.3, Algorithm 3).

With ``C``'s per-tile structure known from step 2, this step computes the
values.  For every matched pair ``(A_ik, B_kj)`` and every nonzero
``a = (r, c, v)`` of the ``A`` tile, the products ``v * B_kj[c, *]`` are
accumulated into row ``r`` of the ``C`` tile.

The paper's *adaptive accumulator* is reproduced faithfully:

* **sparse accumulator** (tiles with ``nnz <= tnnz``, default 192 = 75 % of
  256): each product's destination offset inside the compacted tile is
  computed as ``rowptr[r] + rank`` where ``rank`` is the popcount of the
  tile row's mask bits below the product's column — the paper's
  mask-indexed direct accumulation;
* **dense accumulator** (denser tiles): products scatter-add into a dense
  ``T*T`` scratch tile, which is compacted through the mask afterwards.

The CUDA ``AtomicAdd`` becomes a ``np.bincount``-with-weights scatter-add.
Product expansion is chunked so peak temporary memory stays bounded — the
Python analogue of the kernels' bounded shared-memory working set.

Expanding products costs about eight index arrays per product, which is
wasted on tiles whose operands are nearly full.  Such a C tile instead
densifies its ``A`` and ``B`` tiles and accumulates their ``T×T`` outer
products, pair by pair and ``c = 0..T-1`` in order — the dense-fragment
mapping of Zachariadis et al. (PAPERS.md, arXiv:2009.14600) in its exact
form.  That is the order in which the scatter-add sums the tile's
products, and the sum starts at +0.0, so the zero products of densified
gaps never change a bit: the two paths are byte-identical, and the choice
(:data:`OUTER_PRODUCT_RATIO`) is purely a speed decision made per tile
from its own pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import TilePairs
from repro.core.step2 import SymbolicResult
from repro.core.tile_matrix import TileMatrix
from repro.util.arrays import concat_ranges, segment_positions

__all__ = [
    "NumericResult",
    "step3_numeric",
    "DEFAULT_TNNZ",
    "OUTER_PRODUCT_RATIO",
    "default_tnnz",
    "c_indices_from_masks",
]

#: The paper's accumulator-selection threshold: 75 % of a 16x16 tile.
DEFAULT_TNNZ: int = 192

#: Dense ratio — a C tile's products ÷ (its pairs · T³) — at or above
#: which the tile is accumulated as ordered outer products of densified
#: tiles instead of by per-product scatter.  Measured with
#: ``benchmarks/bench_ablation_outer_ratio.py`` (serial step 3 on the 18
#: representative matrices, A² plus A·Aᵀ of the three scattered ones, on
#: a 2-vCPU Xeon with NumPy 2.4; three sweeps): the FEM and block
#: matrices run 3–8× faster at any threshold from 0.01 to 0.1; 0.01 and
#: 0.02 slow conf5_4-8x8-05 (dense ratio 0.026) by 1.2–1.4×; 0.05 and up
#: leave case39's mid-density tiles on the slow path, 1.1–1.5× slower
#: than at 0.03.  The paths are byte-identical, so the value only moves
#: speed.
OUTER_PRODUCT_RATIO: float = 0.03


def default_tnnz(tile_size: int) -> int:
    """The accumulator-selection threshold for a given tile size.

    The paper fixes 192 for its 16x16 tiles — 75 % of the tile's 256-slot
    capacity.  The same ratio is applied to other tile sizes so that the
    adaptive accumulator and the cost model's sparse/dense prediction
    (:mod:`repro.gpu.costmodel`) agree for every ``tile_size``, not just
    the paper's 16.

    Clamped to ``>= 1``: tile sizes below 2 would otherwise floor to a
    threshold of 0, silently forcing the dense path for every nonzero
    tile (``nnz > 0`` is true for any stored tile).
    """
    if tile_size == 16:
        return DEFAULT_TNNZ
    return max(1, (3 * tile_size * tile_size) // 4)


@dataclass
class NumericResult:
    """Output of the numeric phase.

    Attributes
    ----------
    rowidx, colidx:
        Local indices of ``C``'s nonzeros (derived from the step-2 masks).
    val:
        Values of ``C``'s nonzeros.
    num_products:
        Total intermediate products accumulated (``flops / 2``).
    sparse_tiles, dense_tiles:
        How many candidate tiles used each accumulator (cost-model input
        and ablation output).
    """

    rowidx: np.ndarray
    colidx: np.ndarray
    val: np.ndarray
    num_products: int
    sparse_tiles: int
    dense_tiles: int
    #: per-candidate-tile accumulator choice (``None`` until the phase ran)
    use_dense: Optional[np.ndarray] = field(default=None)
    #: the resolved accumulator-selection threshold this phase ran with
    #: (``None`` only for hand-built results) — the workload profiler's
    #: tnnz-decision capture reads it from ``collect_stats``
    tnnz: Optional[int] = field(default=None)
    #: intermediate products per candidate tile (``collect_stats`` input)
    products_per_tile: Optional[np.ndarray] = field(default=None)


def c_indices_from_masks(
    sym: SymbolicResult, tile_size: int, backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise ``C``'s local (row, col) indices from the step-2 masks.

    The tile-compaction kernel (``nth_set_bit``) comes from ``backend``
    (see :func:`repro.backend.resolve_backend`).
    """
    kernels = resolve_backend(backend)
    T = tile_size
    pc_flat = _row_popcounts(sym, kernels).reshape(-1)
    num_c = sym.mask.shape[0]
    rowidx = np.repeat(np.tile(np.arange(T, dtype=np.uint8), num_c), pc_flat)
    mask_rep = np.repeat(sym.mask.reshape(-1), pc_flat)
    rank = segment_positions(pc_flat)
    colidx = kernels.nth_set_bit(mask_rep, rank)
    return rowidx, colidx


def _row_popcounts(sym: SymbolicResult, kernels) -> np.ndarray:
    return kernels.popcount(sym.mask).astype(np.int64)


def step3_numeric(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    tnnz: Optional[int] = None,
    chunk_products: int = 1 << 22,
    force_accumulator: str | None = None,
    mask_filter: bool = False,
    value_dtype=np.float64,
    backend=None,
) -> NumericResult:
    """Run the numeric phase.

    Each candidate tile takes one of two byte-identical paths.  Tiles
    whose dense ratio reaches :data:`OUTER_PRODUCT_RATIO` — and whose
    ``A`` and ``B`` tiles are all finite in ``value_dtype``, and whose
    products fit one chunk — accumulate ordered outer products of
    densified tiles (``KernelSet.dense_tile_accumulate``); every other
    tile expands its products and scatter-adds them through the paper's
    adaptive accumulator.  The choice depends only on the tile's own
    pairs, so chunked, sharded and planned runs make the same choice.

    Parameters
    ----------
    a, b:
        Input tile matrices.
    pairs:
        The matched tile pairs ``sym`` was computed from.  Only their
        productive subset, ``sym.productive``, is multiplied.
    sym:
        Symbolic structure of ``C`` from step 2, with the productive
        pairs and their product counts.
    tnnz:
        Accumulator-selection threshold.  ``None`` (the default) resolves
        to :func:`default_tnnz` — the paper's 192 for 16x16 tiles and the
        same 75 %-of-capacity ratio for other tile sizes, matching the
        cost model's sparse/dense prediction.
    chunk_products:
        Upper bound on intermediate products expanded at once; it also
        bounds the densified pairs of the outer-product path to
        ``chunk_products / T³`` at a time.
    force_accumulator:
        ``"sparse"`` or ``"dense"`` to disable the adaptive selection
        (ablation hook).  Either value also pins every tile to the
        per-product path, so the paper's two accumulators are measured
        alone, and ``"sparse"`` is the in-tree oracle the outer-product
        path is tested against.  ``None`` keeps the paper's selection
        and lets dense tiles take the outer-product path.
    mask_filter:
        When true, products whose destination bit is absent from the
        step-2 masks are *dropped* instead of accumulated.  Plain SpGEMM
        never needs this (every product's position is in the mask by
        construction); the masked-SpGEMM extension ANDs the masks with an
        output mask first, making some products invalid.
    value_dtype:
        Dtype the per-product multiplications are performed in.  The
        default is double precision (the paper's main evaluation);
        ``np.float16`` emulates the half-precision mode of the tSparse
        comparison (products rounded to fp16, accumulation in fp64 like
        the tensor cores' wider accumulator).
    backend:
        Kernel set serving the popcounts, the popcount-rank, the
        scatter-add and dense-tile accumulates and the tile compaction —
        a registered name, a :class:`~repro.backend.KernelSet`, or
        ``None`` for the ambient default
        (:func:`repro.backend.resolve_backend`).
        Conformant backends are byte-identical, so this changes speed,
        never the result.
    """
    kernels = resolve_backend(backend)
    T = a.tile_size
    if tnnz is None:
        tnnz = default_tnnz(T)
    num_c = pairs.num_c_tiles
    val_c = np.zeros(sym.nnz, dtype=np.float64)

    # --- accumulator selection per candidate tile -----------------------
    if force_accumulator == "sparse":
        use_dense = np.zeros(num_c, dtype=bool)
    elif force_accumulator == "dense":
        use_dense = np.ones(num_c, dtype=bool)
    elif force_accumulator is None:
        use_dense = sym.tile_nnz_counts > tnnz
    else:
        raise ValueError(f"force_accumulator must be 'sparse', 'dense' or None")

    # --- the productive pairs and their product counts, from step 2 ------
    # The other matched pairs add no product to any tile, so skipping them
    # changes neither a tile's product sequence nor where chunks split it.
    if sym.productive.num_c_tiles != num_c:
        raise ValueError("sym was not computed from these pairs")
    pairs = sym.productive
    pair_products = sym.pair_products
    # Row lengths of every B tile: popcount of its masks.
    b_row_len = kernels.popcount(b.mask).astype(np.int64)  # (num_tiles_B, T)
    # Global start of row c of B tile t: tilennz_B[t] + rowptr_B[t, c].
    b_row_start = b.tilennz[:-1, None] + b.rowptr.astype(np.int64)

    pair_c_slot = pairs.pair_c_slot()
    a_counts = a.tile_nnz_counts()
    pair_csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    np.cumsum(pair_products, out=pair_csum[1:])
    total_products = int(pair_csum[-1])
    products_per_tile = pair_csum[pairs.pair_ptr[1:]] - pair_csum[pairs.pair_ptr[:-1]]

    # --- outer-product tiles ---------------------------------------------
    # Fast exit: a tile reaches the ratio only if one of its pairs does.
    outer = None
    if (
        force_accumulator is None
        and pair_products.size
        and pair_products.max() >= OUTER_PRODUCT_RATIO * T**3
    ):
        outer = _outer_product_tiles(
            a, b, pairs, pair_c_slot, products_per_tile, chunk_products, value_dtype
        )

    # --- chunked expansion + scatter-add --------------------------------
    # Chunk ends are rounded down to C-tile boundaries (``pairs.pair_ptr``)
    # whenever that still makes progress, so no tile's products straddle a
    # chunk.  A tile's accumulation order then depends only on its own pair
    # sequence and the chunk budget — never on which other tiles share the
    # run — which is what makes chunked re-execution and sharded parallel
    # execution bit-identical to the single-shot product.  A single tile
    # whose products exceed the budget is chunked internally at tile-local
    # offsets, which are equally partition-invariant.  Outer-product tiles'
    # pairs weigh nothing here and are skipped.
    scatter_dense = use_dense if outer is None else use_dense & ~outer
    dense_slot = np.cumsum(scatter_dense) - 1  # compacted id among dense tiles
    num_dense = int(scatter_dense.sum())
    dense_buf = np.zeros(num_dense * T * T, dtype=np.float64)
    if outer is None:
        skip = None
        csum = pair_csum
    else:
        skip = outer[pair_c_slot]
        csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
        np.cumsum(np.where(skip, 0, pair_products), out=csum[1:])
    start = 0
    num_pairs = pairs.num_pairs
    tile_bounds = pairs.pair_ptr
    while start < num_pairs:
        end = int(np.searchsorted(csum, csum[start] + chunk_products, side="left"))
        end = max(end, start + 1)
        end = min(end, num_pairs)
        if end < num_pairs:
            aligned = int(
                tile_bounds[np.searchsorted(tile_bounds, end, side="right") - 1]
            )
            if aligned > start:
                end = aligned
        if skip is None:
            pair_sel = slice(start, end)
        else:
            pair_sel = start + np.flatnonzero(~skip[start:end])
        if skip is None or pair_sel.size:
            _accumulate_chunk(
                a, b, pairs, sym, val_c, dense_buf, scatter_dense, dense_slot,
                pair_c_slot, a_counts, b_row_len, b_row_start, pair_sel, T,
                mask_filter, value_dtype, kernels,
            )
        start = end

    # --- outer-product tiles, then the dense scratch tiles, through the masks
    rowidx_c, colidx_c = c_indices_from_masks(sym, T, backend=kernels)
    if outer is not None:
        _accumulate_outer_tiles(
            a, b, pairs, sym, outer, rowidx_c, colidx_c, val_c,
            chunk_products, value_dtype, kernels,
        )

    if num_dense:
        tile_of_nnz = np.repeat(np.arange(num_c, dtype=np.int64), sym.tile_nnz_counts)
        in_dense = scatter_dense[tile_of_nnz]
        d_slot = dense_slot[tile_of_nnz[in_dense]]
        pos = (
            d_slot * T * T
            + rowidx_c[in_dense].astype(np.int64) * T
            + colidx_c[in_dense].astype(np.int64)
        )
        val_c[in_dense] = dense_buf[pos]

    dense_tiles = int(use_dense.sum())
    return NumericResult(
        rowidx=rowidx_c,
        colidx=colidx_c,
        val=val_c,
        num_products=total_products,
        sparse_tiles=num_c - dense_tiles,
        dense_tiles=dense_tiles,
        use_dense=use_dense,
        tnnz=int(tnnz),
        products_per_tile=products_per_tile,
    )


def _outer_product_tiles(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    pair_c_slot: np.ndarray,
    products_per_tile: np.ndarray,
    chunk_products: int,
    value_dtype,
) -> Optional[np.ndarray]:
    """Which candidate tiles take the outer-product path (``None``: none).

    A tile qualifies when it has a pair, when its dense ratio over the
    pairs it is given reaches :data:`OUTER_PRODUCT_RATIO`, when its
    products fit one chunk (a tile the per-product loop splits sums each
    chunk separately, an order the outer products do not reproduce), and
    when every ``A`` and ``B`` tile it pairs is finite in ``value_dtype``
    — a densified gap multiplies 0 by inf into a NaN where the
    per-product path has no product at all.
    """
    T = a.tile_size
    pairs_per_tile = np.diff(pairs.pair_ptr)
    outer = products_per_tile >= OUTER_PRODUCT_RATIO * T**3 * pairs_per_tile
    outer &= (pairs_per_tile > 0) & (products_per_tile <= chunk_products)
    if not outer.any():
        return None
    bad_pair = _nonfinite_tiles(a, value_dtype)[pairs.pair_a]
    bad_pair |= _nonfinite_tiles(b, value_dtype)[pairs.pair_b]
    if bad_pair.any():
        outer &= np.bincount(pair_c_slot[bad_pair], minlength=outer.size) == 0
    return outer if outer.any() else None


def _nonfinite_tiles(m: TileMatrix, value_dtype) -> np.ndarray:
    """Per stored tile: does it hold a non-finite value in ``value_dtype``?"""
    vals = m.val
    if np.dtype(value_dtype) != vals.dtype:
        with np.errstate(over="ignore"):
            vals = vals.astype(value_dtype)
    bad = np.zeros(m.num_tiles, dtype=bool)
    nonfinite = np.flatnonzero(~np.isfinite(vals))
    bad[np.searchsorted(m.tilennz, nonfinite, side="right") - 1] = True
    return bad


def _densify(m: TileMatrix, tiles: np.ndarray, counts: np.ndarray, dtype) -> np.ndarray:
    """``(tiles.size, T, T)`` dense copies of ``m``'s tiles, cast to ``dtype``."""
    T = m.tile_size
    n = counts[tiles]
    idx = concat_ranges(m.tilennz[tiles], n)
    pos = (
        np.repeat(np.arange(tiles.size, dtype=np.int64) * (T * T), n)
        + m.rowidx[idx].astype(np.int64) * T
        + m.colidx[idx]
    )
    out = np.zeros(tiles.size * T * T, dtype=dtype)
    out[pos] = m.val[idx]
    return out.reshape(tiles.size, T, T)


def _accumulate_outer_tiles(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    outer: np.ndarray,
    rowidx_c: np.ndarray,
    colidx_c: np.ndarray,
    val_c: np.ndarray,
    chunk_products: int,
    value_dtype,
    kernels,
) -> None:
    """Fill ``val_c`` for the outer-product tiles.

    Tiles go in groups of about ``chunk_products / T³`` pairs, each
    accumulated from +0.0 and compacted through the step-2 masks; a tile
    with more pairs than that is its own group, densified a window of
    pairs at a time into the same accumulator.  With ``mask_filter``,
    products outside the mask land on positions the compaction never
    reads, so the filter needs no work here.
    """
    T = a.tile_size
    window = max(1, chunk_products // T**3)
    tiles = np.flatnonzero(outer)
    tile_pairs = np.diff(pairs.pair_ptr)[tiles]
    cum = np.zeros(tiles.size + 1, dtype=np.int64)
    np.cumsum(tile_pairs, out=cum[1:])
    a_counts = a.tile_nnz_counts()
    b_counts = b.tile_nnz_counts()
    g0 = 0
    while g0 < tiles.size:
        g1 = int(np.searchsorted(cum, cum[g0] + window, side="right")) - 1
        g1 = max(g1, g0 + 1)
        group = tiles[g0:g1]
        acc = np.zeros((group.size, T, T), dtype=np.float64)
        pair_idx = concat_ranges(pairs.pair_ptr[group], tile_pairs[g0:g1])
        pair_tile = np.repeat(np.arange(group.size, dtype=np.int64), tile_pairs[g0:g1])
        for w0 in range(0, pair_idx.size, window):
            w = slice(w0, w0 + window)
            kernels.dense_tile_accumulate(
                acc,
                _densify(a, pairs.pair_a[pair_idx[w]], a_counts, value_dtype),
                _densify(b, pairs.pair_b[pair_idx[w]], b_counts, value_dtype),
                pair_tile[w],
            )
        nnz = sym.tile_nnz_counts[group]
        nnz_idx = concat_ranges(sym.tilennz[group], nnz)
        val_c[nnz_idx] = acc[
            np.repeat(np.arange(group.size, dtype=np.int64), nnz),
            rowidx_c[nnz_idx],
            colidx_c[nnz_idx],
        ]
        g0 = g1


def _accumulate_chunk(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    val_c: np.ndarray,
    dense_buf: np.ndarray,
    use_dense: np.ndarray,
    dense_slot: np.ndarray,
    pair_c_slot: np.ndarray,
    a_counts: np.ndarray,
    b_row_len: np.ndarray,
    b_row_start: np.ndarray,
    pair_sel,
    T: int,
    mask_filter: bool = False,
    value_dtype=np.float64,
    kernels=None,
) -> None:
    """Expand the pairs ``pair_sel`` (a slice or index array) and scatter-add."""
    kernels = resolve_backend(kernels)
    pa = pairs.pair_a[pair_sel]
    pb = pairs.pair_b[pair_sel]
    slots = pair_c_slot[pair_sel]

    # Level 1: expand pairs into A-tile nonzeros.
    nnz_a = a_counts[pa]
    a_idx = concat_ranges(a.tilennz[pa], nnz_a)
    local_pair = np.repeat(np.arange(pa.size, dtype=np.int64), nnz_a)
    r = a.rowidx[a_idx].astype(np.int64)
    c = a.colidx[a_idx].astype(np.int64)
    va = a.val[a_idx]
    b_tile = pb[local_pair]
    slot_of_nnz = slots[local_pair]

    # Level 2: expand each A nonzero into B's matching tile row.
    seg_len = b_row_len[b_tile, c]
    b_idx = concat_ranges(b_row_start[b_tile, c], seg_len)
    src = np.repeat(np.arange(a_idx.size, dtype=np.int64), seg_len)
    if np.dtype(value_dtype) == np.float64:
        products = va[src] * b.val[b_idx]
    else:
        # Reduced-precision multiply, wider accumulate (tensor-core style).
        products = (
            va[src].astype(value_dtype) * b.val[b_idx].astype(value_dtype)
        ).astype(np.float64)
    prod_slot = slot_of_nnz[src]
    prod_r = r[src]
    prod_col = b.colidx[b_idx].astype(np.int64)
    # Per-product arrays dominate step 3's memory: drop each once it is dead.
    del src, b_idx

    if mask_filter:
        # Masked SpGEMM: drop products whose destination is outside the
        # (already mask-ANDed) step-2 structure.
        in_mask = (
            sym.mask[prod_slot, prod_r].astype(np.int64) >> prod_col
        ) & 1 == 1
        products = products[in_mask]
        prod_slot = prod_slot[in_mask]
        prod_r = prod_r[in_mask]
        prod_col = prod_col[in_mask]

    # When every product goes one way, select with a slice: views, not copies.
    dense_sel = use_dense[prod_slot]
    any_dense, all_dense = bool(dense_sel.any()), bool(dense_sel.all())
    if any_dense:
        sel = slice(None) if all_dense else dense_sel
        pos = (
            dense_slot[prod_slot[sel]] * T * T
            + prod_r[sel] * T
            + prod_col[sel]
        )
        kernels.scatter_add_into(dense_buf, pos, products[sel])
        del pos
    if not all_dense:
        sel = ~dense_sel if any_dense else slice(None)
        slot_s = prod_slot[sel]
        r_s = prod_r[sel]
        col_s = prod_col[sel]
        rank = kernels.prefix_popcount(sym.mask[slot_s, r_s], col_s).astype(np.int64)
        pos = (
            sym.tilennz[slot_s]
            + sym.rowptr[slot_s, r_s].astype(np.int64)
            + rank
        )
        kernels.scatter_add_into(val_c, pos, products[sel])
