"""Steps 2 and 3 multiply only the tile pairs that make products.

A matched pair ``(A_ik, B_kj)`` whose ``A`` columns miss every non-empty
row of ``B_kj`` ORs only zero masks and adds no product, so step 2
expands, and step 3 multiplies, only the *productive* pairs
(:func:`repro.core.step2.productive_pairs`).  These tests hold that
shortcut to three references:

* the full-pair path — step 3 over every matched pair, zero-product ones
  included — byte for byte (and that path to ``scipy.sparse``);
* ``warp_reference``'s per-warp masks;
* an independent recount of the cost-model statistics over the paper's
  binary-search intersection, which still describe the full pair set.

They run on operands with C tiles whose pairs all make zero products and
tiles that mix both kinds, through every entry point that reaches the
steps.  The fused step 1 (the layout read off the pair enumeration) is
checked against both step-1 kernels on the shared corpus.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.masked as masked
import repro.core.tilespgemm as tilespgemm
from repro.core import TileMatrix, tile_spgemm
from repro.core.masked import masked_tile_spgemm
from repro.core.pairs import enumerate_pairs_expand, enumerate_pairs_intersect, subset_pairs
from repro.core.step1 import step1_tile_layout
from repro.core.step2 import productive_pairs, step2_symbolic
from repro.core.step3 import _outer_product_tiles, step3_numeric
from repro.core.tilespgemm import layout_from_pairs
from repro.core.warp_reference import warp_step2_symbolic
from repro.formats.coo import COOMatrix
from repro.matrices import generators
from repro.runtime.chunked import chunked_tile_spgemm
from repro.runtime.parallel import parallel_tile_spgemm
from repro.runtime.planner import plan_execution
from tests.conftest import random_csr
from tests.corpus import CORPUS, corpus_names
from tests.test_parallel_runtime import assert_bytes_identical


def _tiled(csr):
    return TileMatrix.from_csr(csr)


def zero_and_mixed_tiles():
    """32×32 operands, hand-placed so that, with 16×16 tiles:

    * C tile (0, 0) has pairs k = 0 (A's column 0 meets B's empty row 0:
      no product) and k = 1 (A's column 16 meets B's row 16: 4 products);
    * C tiles (0, 1) and (1, 0) have only pairs that make no product;
    * C tile (1, 1) has one productive pair (2 products).
    """
    a = COOMatrix(
        (32, 32),
        np.array([0, 0, 3, 17, 20]),
        np.array([0, 16, 16, 30, 31]),
        np.array([1.5, -2.0, 0.25, 3.0, -1.0]),
    ).to_csr()
    b = COOMatrix(
        (32, 32),
        np.array([1, 1, 16, 16, 30, 31]),
        np.array([0, 20, 2, 5, 18, 25]),
        np.array([4.0, 0.5, -3.0, 2.0, 1.25, -0.75]),
    ).to_csr()
    return a, b


def _operands():
    hand_a, hand_b = zero_and_mixed_tiles()
    sparse = random_csr(200, 200, 0.012, seed=1501)
    zeros = random_csr(150, 150, 0.01, seed=1502, explicit_zeros=True)
    return {
        "zero_and_mixed_tiles": (hand_a, hand_b),
        "hypersparse_aat": (sparse, sparse.transpose()),
        "hypersparse_explicit_zeros": (zeros, random_csr(150, 150, 0.01, seed=1503)),
        "band": (generators.banded(120, 9, fill=0.9, seed=15).to_csr(),) * 2,
    }


OPERANDS = _operands()
MIXED = ["zero_and_mixed_tiles", "hypersparse_aat", "hypersparse_explicit_zeros"]


@pytest.fixture(scope="module", params=sorted(OPERANDS))
def operands(request):
    a, b = OPERANDS[request.param]
    return request.param, _tiled(a), _tiled(b)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _pair_products(a, b, pa, pb):
    """Products of each pair (pa[i], pb[i]), from the tiles' index arrays:
    Σ_c (A tile's nonzeros in column c) · (B tile's nonzeros in row c)."""
    T = a.tile_size
    a_cols = np.zeros((a.num_tiles, T), dtype=np.int64)
    np.add.at(a_cols, (a.tile_of_nonzero(), a.colidx.astype(np.int64)), 1)
    b_rows = np.zeros((b.num_tiles, T), dtype=np.int64)
    np.add.at(b_rows, (b.tile_of_nonzero(), b.rowidx.astype(np.int64)), 1)
    return (a_cols[pa] * b_rows[pb]).sum(axis=1)


def full_pair_step3(a, b, pairs, sym, **kwargs):
    """Step 3 over every matched pair, zero-product pairs included."""
    every = replace(
        sym, productive=pairs, pair_products=_pair_products(a, b, pairs.pair_a, pairs.pair_b)
    )
    return step3_numeric(a, b, pairs, every, **kwargs)


def full_pair_reference(monkeypatch, run):
    """``run()`` with step 3 fed every matched pair."""
    with monkeypatch.context() as m:
        m.setattr(tilespgemm, "step3_numeric", full_pair_step3)
        m.setattr(masked, "step3_numeric", full_pair_step3)
        return run()


def recount(a, b):
    """Cost-model statistics over the paper's binary-search intersection."""
    layout = step1_tile_layout(a.tile_pattern_csr(), b.tile_pattern_csr(), "hash")
    pairs = enumerate_pairs_intersect(
        a, b, c_tilerow=layout.tile_rowidx(), c_tilecol=layout.tilecolidx, method="binary"
    )
    per_pair = _pair_products(a, b, pairs.pair_a, pairs.pair_b)
    products_per_tile = np.zeros(pairs.num_c_tiles, dtype=np.int64)
    np.add.at(products_per_tile, pairs.pair_c_slot(), per_pair)
    pair_a_nnz = a.tile_nnz_counts()[pairs.pair_a]
    return pairs, {
        "pairs_per_tile": np.diff(pairs.pair_ptr),
        "pair_a_nnz": pair_a_nnz,
        "symbolic_ops": int(pair_a_nnz.sum()),
        "products_per_tile": products_per_tile,
        "num_products": int(per_pair.sum()),
        "tile_flops_step1": pairs.num_pairs,
        "num_c_tiles": pairs.num_c_tiles,
    }


def assert_stats_match(stats, expected, keys=None):
    for key in keys or expected:
        got, want = np.asarray(stats[key]), np.asarray(expected[key])
        assert got.shape == want.shape and (got == want).all(), key


def _scipy_product(a, b):
    return (a.to_csr().to_scipy() @ b.to_csr().to_scipy()).toarray()


# ---------------------------------------------------------------------------
# The operands really have zero-product and mixed tiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", MIXED)
def test_operands_have_zero_and_mixed_tiles(name):
    a, b = (_tiled(m) for m in OPERANDS[name])
    pairs = enumerate_pairs_expand(a, b)
    live = productive_pairs(a, b, pairs)
    live_per_tile = np.add.reduceat(live.astype(np.int64), pairs.pair_ptr[:-1])
    pairs_per_tile = np.diff(pairs.pair_ptr)
    assert (live_per_tile == 0).any(), "no tile whose pairs all make zero products"
    assert ((live_per_tile > 0) & (live_per_tile < pairs_per_tile)).any(), "no mixed tile"
    assert (live == (_pair_products(a, b, pairs.pair_a, pairs.pair_b) > 0)).all()


def test_hand_built_tiles():
    a, b = (_tiled(m) for m in zero_and_mixed_tiles())
    pairs = enumerate_pairs_expand(a, b)
    sym = step2_symbolic(a, b, pairs)
    tiles = list(zip(pairs.c_tilerow.tolist(), pairs.c_tilecol.tolist()))
    assert tiles == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert np.diff(pairs.pair_ptr).tolist() == [2, 2, 1, 1]
    assert np.diff(sym.productive.pair_ptr).tolist() == [1, 0, 0, 1]
    assert sym.tile_nnz_counts.tolist() == [4, 0, 0, 2]
    assert sym.pair_products.tolist() == [4, 2]


# ---------------------------------------------------------------------------
# Serial tile_spgemm
# ---------------------------------------------------------------------------


def test_values_match_full_pair_path_and_scipy(operands, monkeypatch):
    _, a, b = operands
    got = tile_spgemm(a, b)
    ref = full_pair_reference(monkeypatch, lambda: tile_spgemm(a, b))
    assert_bytes_identical(ref.c, got.c)
    np.testing.assert_allclose(ref.c.to_dense(), _scipy_product(a, b), rtol=1e-12, atol=1e-12)


def test_masks_match_warp_reference(operands):
    _, a, b = operands
    pairs = enumerate_pairs_expand(a, b)
    warp_masks, _ = warp_step2_symbolic(a, b, pairs)
    assert (step2_symbolic(a, b, pairs).mask == warp_masks).all()


@pytest.mark.parametrize("intersect_method", ["expand", "binary", "merge"])
def test_stats_match_binary_recount(operands, intersect_method):
    _, a, b = operands
    res = tile_spgemm(a, b, intersect_method=intersect_method)
    _, expected = recount(a, b)
    assert_stats_match(res.stats, expected)
    assert res.stats["intersect_len_a"].tolist() == res.pairs.len_a.tolist()


def test_symbolic_result_carries_productive_pairs(operands):
    _, a, b = operands
    pairs = enumerate_pairs_expand(a, b)
    sym = step2_symbolic(a, b, pairs)
    live = productive_pairs(a, b, pairs)
    if live.all():
        assert sym.productive is pairs  # no subset copy
    assert sym.productive.pair_a.tolist() == pairs.pair_a[live].tolist()
    assert sym.productive.pair_b.tolist() == pairs.pair_b[live].tolist()
    assert (sym.productive.c_tilecol == pairs.c_tilecol).all()
    want = _pair_products(a, b, sym.productive.pair_a, sym.productive.pair_b)
    assert sym.pair_products.tolist() == want.tolist()
    assert (sym.pair_products > 0).all()


def test_fem_band_keeps_the_pair_list():
    a = _tiled(generators.banded(160, 10, fill=1.0, seed=16).to_csr())
    pairs = enumerate_pairs_expand(a, a)
    assert step2_symbolic(a, a, pairs).productive is pairs


@pytest.mark.parametrize("name", MIXED)
def test_empty_tiles_kept_or_dropped(name):
    a, b = (_tiled(m) for m in OPERANDS[name])
    kept = tile_spgemm(a, b, keep_empty_tiles=True)
    dropped = tile_spgemm(a, b, keep_empty_tiles=False)
    counts = np.diff(kept.c.tilennz)
    assert kept.c.num_tiles == kept.stats["num_c_tiles"] and (counts == 0).any()
    assert dropped.c.num_tiles == int((counts > 0).sum())
    assert (np.diff(dropped.c.tilennz) > 0).all()
    assert_bytes_identical(kept.c.drop_empty_tiles(), dropped.c)


def test_step3_random_chunk_budgets(operands):
    """Dropping zero-product pairs moves no chunk split of any tile."""
    _, a, b = operands
    pairs = enumerate_pairs_expand(a, b)
    sym = step2_symbolic(a, b, pairs)
    rng = np.random.default_rng(1504)
    for chunk in [1, 2, 7, 64, *rng.integers(3, 3000, size=5).tolist()]:
        got = step3_numeric(a, b, pairs, sym, chunk_products=int(chunk))
        ref = full_pair_step3(a, b, pairs, sym, chunk_products=int(chunk))
        assert got.val.tobytes() == ref.val.tobytes(), chunk
        assert got.products_per_tile.tolist() == ref.products_per_tile.tolist()


def test_tile_without_productive_pairs_takes_no_outer_path():
    """``0 >= ratio·T³·0`` holds, so a tile with no pairs must be excluded."""
    a = _tiled(generators.banded(64, 64, fill=1.0, seed=17).to_csr())  # all full tiles
    pairs = enumerate_pairs_expand(a, a)
    assert step2_symbolic(a, a, pairs).productive is pairs
    keep = np.ones(pairs.num_pairs, dtype=bool)
    keep[pairs.pair_ptr[0] : pairs.pair_ptr[1]] = False  # tile 0 loses every pair
    for sub, first in ((pairs, True), (subset_pairs(pairs, keep), False)):
        per_pair = _pair_products(a, a, sub.pair_a, sub.pair_b)
        per_tile = np.zeros(sub.num_c_tiles, dtype=np.int64)
        np.add.at(per_tile, sub.pair_c_slot(), per_pair)
        outer = _outer_product_tiles(a, a, sub, sub.pair_c_slot(), per_tile, 1 << 22, np.float64)
        assert outer is not None and outer[0] == first and outer[1:].all()


# ---------------------------------------------------------------------------
# Every entry point that reaches the steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", MIXED)
def test_chunked_at_random_budgets(name, monkeypatch):
    a, b = (_tiled(m) for m in OPERANDS[name])
    ref = full_pair_reference(monkeypatch, lambda: tile_spgemm(a, b))
    _, expected = recount(a, b)
    rng = np.random.default_rng(1505)
    peak = ref.alloc.peak_bytes
    for _ in range(4):
        batches = int(rng.integers(1, a.num_tile_rows + 1))
        budget = int(peak * rng.uniform(0.6, 1.0))
        got = chunked_tile_spgemm(a, b, num_batches=batches, budget_bytes=budget)
        assert_bytes_identical(ref.c, got.c)
        assert_stats_match(got.stats, expected)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_pools(executor, monkeypatch):
    for name in MIXED:
        a, b = (_tiled(m) for m in OPERANDS[name])
        ref = full_pair_reference(monkeypatch, lambda: tile_spgemm(a, b))
        got = parallel_tile_spgemm(a, b, workers=2, shards=3, executor=executor)
        assert_bytes_identical(ref.c, got.c)
        assert_stats_match(got.stats, recount(a, b)[1])


def test_planned(monkeypatch):
    for name in MIXED:
        a, b = (_tiled(m) for m in OPERANDS[name])
        ref = full_pair_reference(monkeypatch, lambda: tile_spgemm(a, b))
        got = parallel_tile_spgemm(a, b, plan=plan_execution(a, b, workers=2, executor="thread"))
        assert_bytes_identical(ref.c, got.c)
        assert_stats_match(got.stats, recount(a, b)[1])


@pytest.mark.parametrize("name", MIXED)
def test_masked(name, monkeypatch):
    a, b = (_tiled(m) for m in OPERANDS[name])
    n, m = a.shape[0], b.shape[1]
    mask = _tiled(random_csr(n, m, 0.3, seed=1506))
    got = masked_tile_spgemm(a, b, mask, keep_empty_tiles=True)
    ref = full_pair_reference(
        monkeypatch, lambda: masked_tile_spgemm(a, b, mask, keep_empty_tiles=True)
    )
    assert_bytes_identical(ref.c, got.c)
    want = _scipy_product(a, b) * (mask.to_dense() != 0)
    np.testing.assert_allclose(got.c.to_dense(), want, rtol=1e-12, atol=1e-12)
    # The statistics describe the full pairs of the candidate tiles in the mask.
    pairs, expected = recount(a, b)
    ntc = max(mask.num_tile_cols, 1)
    in_mask = np.isin(
        pairs.c_tilerow * ntc + pairs.c_tilecol, mask.tile_rowidx() * ntc + mask.tilecolidx
    )
    for key in ("pairs_per_tile", "products_per_tile"):
        assert got.stats[key].tolist() == expected[key][in_mask].tolist(), key
    assert got.stats["symbolic_ops"] == int(
        expected["pair_a_nnz"][np.repeat(in_mask, expected["pairs_per_tile"])].sum()
    )


def test_a_times_a_transpose(monkeypatch):
    m = random_csr(180, 140, 0.015, seed=1507)
    a, at = _tiled(m), _tiled(m.transpose())
    got = tile_spgemm(a, at)
    ref = full_pair_reference(monkeypatch, lambda: tile_spgemm(a, at))
    assert_bytes_identical(ref.c, got.c)
    assert_stats_match(got.stats, recount(a, at)[1])
    assert not productive_pairs(a, at, got.pairs).all()


def test_fp16(monkeypatch):
    for name in MIXED:
        a, b = (_tiled(m) for m in OPERANDS[name])
        got = tile_spgemm(a, b, value_dtype=np.float16)
        ref = full_pair_reference(
            monkeypatch, lambda: tile_spgemm(a, b, value_dtype=np.float16)
        )
        assert_bytes_identical(ref.c, got.c)
        assert_stats_match(got.stats, recount(a, b)[1])


# ---------------------------------------------------------------------------
# The fused step 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", corpus_names())
def test_fused_layout_equals_step1_kernels(case):
    c = CORPUS[case]
    a, b = _tiled(c.a), _tiled(c.b)
    pairs = enumerate_pairs_expand(a, b)
    fused = layout_from_pairs(pairs, a.num_tile_rows, max(b.num_tile_cols, 1), pairs.num_pairs)
    for method in ("expand", "hash"):
        ref = step1_tile_layout(a.tile_pattern_csr(), b.tile_pattern_csr(), method)
        assert fused.tileptr.tolist() == ref.tileptr.tolist(), method
        assert fused.tilecolidx.tolist() == ref.tilecolidx.tolist(), method
        assert fused.tile_flops == ref.tile_flops, method
        assert (fused.num_tile_rows, fused.num_tile_cols) == (
            ref.num_tile_rows,
            ref.num_tile_cols,
        )


def test_default_path_reports_fused_step1_flops(operands):
    _, a, b = operands
    res = tile_spgemm(a, b)
    ref = step1_tile_layout(a.tile_pattern_csr(), b.tile_pattern_csr(), "hash")
    assert res.stats["tile_flops_step1"] == ref.tile_flops
    assert res.timer.count("step1") == 1
