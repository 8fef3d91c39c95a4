"""The correctness oracle: a serial numpy reference, checked once against scipy.

Every timed result, batch or served, is compared byte for byte with the
reference of its operands.  The reference itself is checked once, during
set-up, against ``scipy.sparse`` ``@``: the sparsity pattern must match
exactly and the values must agree under ``numpy.allclose``.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np
import scipy.sparse as sp

#: The arrays that make up a tiled matrix; all must match byte for byte.
TILE_ARRAYS = ("tileptr", "tilecolidx", "tilennz", "rowptr", "rowidx", "colidx", "val", "mask")


class OracleError(AssertionError):
    """The reference disagrees with scipy: the benchmark cannot judge results."""


def to_scipy(csr) -> sp.csr_matrix:
    return sp.csr_matrix((csr.val, csr.indices, csr.indptr), shape=csr.shape)


def reference(a_tiled, b_tiled, tnnz=None):
    """Serial ``tile_spgemm`` on the numpy backend; returns ``(result, seconds)``."""
    from repro.core.tilespgemm import tile_spgemm

    t0 = time.perf_counter()
    res = tile_spgemm(a_tiled, b_tiled, tnnz=tnnz, backend="numpy")
    return res, time.perf_counter() - t0


def check_against_scipy(ref_c, a_csr, b_csr, repeats: int = 3) -> float:
    """Raise :class:`OracleError` unless ``ref_c`` equals scipy's product.

    Returns the median scipy ``@`` time over ``repeats`` (the floor).
    """
    sa, sb = to_scipy(a_csr), to_scipy(b_csr)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = sa @ sb
        times.append(time.perf_counter() - t0)
    s = s.tocsr()
    s.sort_indices()
    coo = ref_c.to_coo()
    n_cols = ref_c.shape[1]
    ref_keys = coo.row.astype(np.int64) * n_cols + coo.col.astype(np.int64)
    order = np.argsort(ref_keys, kind="stable")
    ref_keys, ref_val = ref_keys[order], coo.val[order]
    s_rows = np.repeat(np.arange(s.shape[0], dtype=np.int64), np.diff(s.indptr))
    s_keys = s_rows * n_cols + s.indices.astype(np.int64)
    if ref_keys.shape != s_keys.shape or not np.array_equal(ref_keys, s_keys):
        raise OracleError(
            f"reference pattern differs from scipy: {ref_keys.size} vs {s_keys.size} entries"
        )
    if not np.allclose(ref_val, s.data):
        worst = float(np.max(np.abs(ref_val - s.data)))
        raise OracleError(f"reference values differ from scipy (max abs diff {worst:g})")
    return float(np.median(times))


def same_bytes(got, want) -> bool:
    """True when two tiled matrices are identical down to every byte."""
    if tuple(got.shape) != tuple(want.shape) or got.tile_size != want.tile_size:
        return False
    for name in TILE_ARRAYS:
        x, y = getattr(got, name), getattr(want, name)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if not _equal_bytes(x, y):
            return False
    return True


def _equal_bytes(x: np.ndarray, y: np.ndarray, chunk: int = 1 << 22) -> bool:
    """Bytewise equality in slices, so the check's temporaries stay small
    next to the program's own peak memory (which the benchmark reports)."""
    bx, by = x.reshape(-1).view(np.uint8), y.reshape(-1).view(np.uint8)
    return all(
        np.array_equal(bx[k : k + chunk], by[k : k + chunk]) for k in range(0, bx.size, chunk)
    )


def products_and_nnz(ref) -> Tuple[int, int]:
    return int(ref.stats["num_products"]), int(ref.stats["nnz_c"])
