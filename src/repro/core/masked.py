"""Masked SpGEMM extension: ``C = (A @ B) .* M`` on the tiled format.

GraphBLAS workloads — the paper's triangle counting and BFS motivations —
rarely need the full product: they need it *restricted to an output mask*
(for triangles, ``sum(L .* (L @ L))``).  The paper's tiled format makes
the masked variant almost free, because masks are already the format's
symbolic currency:

1. candidate tiles of ``C`` are intersected with ``M``'s tile layout —
   whole tiles outside the mask are never touched;
2. the step-2 bit masks are ANDed with ``M``'s bit masks — the output
   structure shrinks to the masked positions before any value is computed;
3. step 3 drops the intermediate products whose destination bit was
   masked away (everything else is unchanged).

This is an *extension* beyond the paper (its future-work direction of
GraphBLAS integration); it reuses the three-step machinery and is
validated against dense masking in the tests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.pairs import enumerate_pairs_expand, subset_pairs
from repro.core.step2 import mask_structure, step2_symbolic
from repro.core.step3 import step3_numeric
from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import (
    TileSpGEMMResult,
    _tileptr_from_rows,
    collect_stats,
    layout_from_pairs,
)
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["masked_tile_spgemm"]


def masked_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    mask: TileMatrix,
    tnnz: Optional[int] = None,
    keep_empty_tiles: bool = False,
) -> TileSpGEMMResult:
    """Compute ``C = (A @ B) .* pattern(M)`` entirely in tiled form.

    Parameters
    ----------
    a, b:
        Inputs in tiled form with equal tile sizes.
    mask:
        Output mask; only positions stored in ``mask`` (regardless of
        value) survive in ``C``.  Must have the product's shape and the
        same tile size.
    tnnz:
        Adaptive-accumulator threshold, as in :func:`tile_spgemm`
        (``None`` resolves to the tile size's 75 %-of-capacity default).
    keep_empty_tiles:
        Masked products produce many empty candidate tiles; they are
        compacted away by default.

    Returns
    -------
    TileSpGEMMResult
        With ``stats["masked"] = True`` and the usual timers/ledger.
    """
    if a.tile_size != b.tile_size or a.tile_size != mask.tile_size:
        raise ValueError("A, B and the mask must share one tile size")
    if a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch between A and B")
    if mask.shape != (a.shape[0], b.shape[1]):
        raise ValueError(
            f"mask shape {mask.shape} does not match product shape "
            f"{(a.shape[0], b.shape[1])}"
        )
    T = a.tile_size
    timer = PhaseTimer()
    alloc = AllocationTracker()

    # ------------------------------------------------ step 1 + tile masking
    alloc.set_phase("step1")
    with timer.phase("step1"):
        pairs = enumerate_pairs_expand(a, b)
        ntc = max(mask.num_tile_cols, 1)
        cand_key = pairs.c_tilerow * ntc + pairs.c_tilecol
        mask_key = mask.tile_rowidx() * ntc + mask.tilecolidx
        # Candidate tiles that exist in the mask's tile layout.
        pos = np.searchsorted(mask_key, cand_key)
        pos = np.minimum(pos, max(mask_key.size - 1, 0))
        keep = (
            mask_key[pos] == cand_key
            if mask_key.size
            else np.zeros(cand_key.size, dtype=bool)
        )
        pairs = subset_pairs(pairs, np.repeat(keep, np.diff(pairs.pair_ptr)), keep)
        mask_tile_of_cand = pos[keep]  # index into mask's tile arrays
    with timer.phase("malloc"):
        alloc.alloc("tilePtr_C", (a.num_tile_rows + 1) * 4)
        alloc.alloc("tileColIdx_C", pairs.num_c_tiles * 4)

    # --------------------------------------------- step 2 + bit-mask ANDing
    alloc.set_phase("step2")
    with timer.phase("step2"):
        sym = step2_symbolic(a, b, pairs)
        sym.mask &= mask.mask[mask_tile_of_cand]
        # The productive pairs and their product counts carry over: step 3
        # still forms every product and drops the masked-away ones.
        rowptr, tilennz, tile_counts = mask_structure(sym.mask)
        sym = replace(sym, rowptr=rowptr, tilennz=tilennz, tile_nnz_counts=tile_counts)
    with timer.phase("malloc"):
        alloc.alloc("tileNnz_C", (pairs.num_c_tiles + 1) * 4)
        alloc.alloc("mask_C", pairs.num_c_tiles * T * sym.mask.dtype.itemsize)
        alloc.alloc("val_C", sym.nnz * 8)

    # ------------------------------------------------------------- step 3
    alloc.set_phase("step3")
    with timer.phase("step3"):
        num = step3_numeric(a, b, pairs, sym, tnnz=tnnz, mask_filter=True)

    c = TileMatrix(
        (a.shape[0], b.shape[1]),
        T,
        _tileptr_from_rows(pairs.c_tilerow, a.num_tile_rows),
        pairs.c_tilecol,
        sym.tilennz,
        sym.rowptr,
        num.rowidx,
        num.colidx,
        num.val,
        sym.mask,
        check=False,
    )
    if not keep_empty_tiles:
        c = c.drop_empty_tiles()

    layout = layout_from_pairs(pairs, a.num_tile_rows, max(b.num_tile_cols, 1), 0)
    stats = collect_stats(a, b, pairs, sym, num, layout)
    stats["masked"] = True
    return TileSpGEMMResult(
        c=c, timer=timer, alloc=alloc, stats=stats, pairs=pairs, symbolic=sym
    )
