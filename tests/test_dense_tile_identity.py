"""Step 3's outer-product path is byte-identical to the per-product path.

Dense C tiles accumulate ordered outer products of densified tiles
(:func:`repro.core.step3.step3_numeric`); ``force_accumulator="sparse"``
pins every tile to the per-product scatter, which makes it the in-tree
oracle.  These tests hold the default path to that oracle, byte for byte,
on the shared corpus (non-finite cases included), on hypothesis draws of
tile-boundary shapes, and through every entry point that reaches step 3:
chunked runs at random budgets, thread and spawn pools, planned runs,
the masked product, A·Aᵀ and the fp16 value mode.  The non-finite cases
are also checked against ``scipy.sparse`` as an independent oracle.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.masked as masked
from repro.backend import get_backend
from repro.core import TileMatrix, tile_spgemm
from repro.core.masked import masked_tile_spgemm
from repro.core.pairs import enumerate_pairs_expand
from repro.core.step2 import step2_symbolic
from repro.core.step3 import OUTER_PRODUCT_RATIO, step3_numeric
from repro.formats.coo import COOMatrix
from repro.matrices import generators
from repro.runtime.chunked import chunked_tile_spgemm
from repro.runtime.parallel import parallel_tile_spgemm
from repro.runtime.planner import plan_execution
from tests.corpus import CORPUS, banded_with_entry, corpus_names
from tests.test_parallel_runtime import assert_bytes_identical


def _tiled(csr):
    return TileMatrix.from_csr(csr)


def _oracle(a, b, **kwargs):
    return tile_spgemm(a, b, force_accumulator="sparse", **kwargs)


def _outer_calls(a, b, **kwargs):
    """Run the default path; return (result, dense_tile_accumulate calls)."""
    kernels = get_backend("numpy")
    before = kernels.calls["dense_tile_accumulate"]
    res = tile_spgemm(a, b, backend=kernels, **kwargs)
    return res, kernels.calls["dense_tile_accumulate"] - before


@pytest.fixture(scope="module")
def band():
    """A full band: every interior C tile takes the outer-product path."""
    return _tiled(generators.banded(200, 12, seed=7).to_csr())


@pytest.fixture(scope="module")
def band_nonfinite():
    """The same kind of band with one inf: a few tiles fall back."""
    return _tiled(banded_with_entry(200, 12, 90, np.inf))


# ---------------------------------------------------------------------------
# The shared corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", corpus_names())
def test_corpus_default_equals_per_product(case):
    c = CORPUS[case]
    a, b = _tiled(c.a), _tiled(c.b)
    got = tile_spgemm(a, b, **c.kwargs)
    assert_bytes_identical(_oracle(a, b, **c.kwargs).c, got.c)
    assert got.stats["products_per_tile"].sum() == got.stats["num_products"]


@pytest.mark.parametrize(
    "case", [n for n in corpus_names() if CORPUS[n].has("nonfinite")]
)
def test_nonfinite_placement_matches_scipy(case):
    """The float64 pipeline forms the same products as scipy: inf, -inf
    and NaN land in the same places, and the finite values agree."""
    c = CORPUS[case]
    got = tile_spgemm(_tiled(c.a), _tiled(c.b)).c.to_dense()
    with np.errstate(invalid="ignore"):
        ref = (c.a.to_scipy() @ c.b.to_scipy()).toarray()
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.array_equal(np.isposinf(got), np.isposinf(ref))
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "case, expect_outer",
    [
        ("banded_15_inf", False),  # the one tile holds the inf
        ("banded_16_nan", False),
        ("banded_17_neginf", True),  # C's first tile pairs only finite tiles
        ("banded_300_inf", True),
        ("banded_300_nan", True),
        ("fp16_banded_16_overflow", False),  # 7e4 is inf in fp16
        ("fp16_banded_300_overflow", True),
    ],
)
def test_nonfinite_cases_exercise_both_paths(case, expect_outer):
    c = CORPUS[case]
    res, calls = _outer_calls(_tiled(c.a), _tiled(c.b), **c.kwargs)
    assert (calls > 0) == expect_outer
    # Every case has tiles dense enough for the outer path, so where it
    # is not taken, the finiteness guard is what kept the tiles off it.
    products = res.stats["products_per_tile"]
    pairs = res.stats["pairs_per_tile"]
    assert np.any(products >= OUTER_PRODUCT_RATIO * 16**3 * pairs)


def test_force_accumulator_pins_per_product_path(band):
    for force in ("sparse", "dense"):
        _, calls = _outer_calls(band, band, force_accumulator=force)
        assert calls == 0, force
    _, calls = _outer_calls(band, band)
    assert calls > 0


def test_outer_tiles_keep_the_papers_accumulator_stats(band):
    """The outer-product path is an execution choice: the paper's
    sparse/dense accumulator split reported in stats is unchanged."""
    st = tile_spgemm(band, band).stats
    paper_split = st["tile_nnz_counts"] > st["tnnz"]
    assert np.array_equal(st["tile_use_dense"], paper_split)
    assert st["dense_tiles"] == int(paper_split.sum()) > 0


# ---------------------------------------------------------------------------
# Hypothesis: tile-boundary shapes, special values
# ---------------------------------------------------------------------------

DIMS = st.sampled_from([1, 15, 16, 17, 31, 32, 33])
FINITE = [1.0, -1.0, 0.5, -3.25, 0.0, -0.0, 5e-324, 1e300, -1e300]
SPECIAL = [np.inf, -np.inf, np.nan]


@st.composite
def dense_ish(draw, nrows, ncols, special):
    """A matrix dense enough for outer-product tiles, with drawn values."""
    density = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    keep = rng.random((nrows, ncols)) < density
    rows, cols = np.nonzero(keep)
    vals = rng.choice(FINITE, size=rows.size) * rng.uniform(0.5, 1.5, size=rows.size)
    if special and rows.size:
        vals[rng.integers(0, rows.size)] = draw(st.sampled_from(SPECIAL))
    return COOMatrix((nrows, ncols), rows, cols, vals).to_csr()


@st.composite
def boundary_pair(draw):
    n, k, m = draw(DIMS), draw(DIMS), draw(DIMS)
    special = draw(st.booleans())
    return draw(dense_ish(n, k, special)), draw(dense_ish(k, m, special))


@settings(max_examples=40, deadline=None)
@given(boundary_pair(), st.sampled_from([np.float64, np.float16]))
def test_hypothesis_tile_boundaries(pair, value_dtype):
    a, b = (_tiled(m) for m in pair)
    with np.errstate(all="ignore"):
        got = tile_spgemm(a, b, value_dtype=value_dtype)
        ref = _oracle(a, b, value_dtype=value_dtype)
    assert_bytes_identical(ref.c, got.c)


# ---------------------------------------------------------------------------
# Every entry point that reaches step 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["band", "band_nonfinite"])
def test_chunked_at_random_budgets(which, request):
    a = request.getfixturevalue(which)
    ref = _oracle(a, a)
    rng = np.random.default_rng(1401)
    peak = tile_spgemm(a, a).alloc.peak_bytes
    for _ in range(4):
        batches = int(rng.integers(1, a.num_tile_rows + 1))
        budget = int(peak * rng.uniform(0.6, 1.0))
        got = chunked_tile_spgemm(a, a, num_batches=batches, budget_bytes=budget)
        assert_bytes_identical(ref.c, got.c)


@pytest.mark.parametrize("which", ["band", "band_nonfinite"])
def test_step3_random_chunk_budgets(which, request):
    """``chunk_products`` bounds both paths; a tile too big for one chunk
    stays on the per-product path, whose per-chunk sums it then follows."""
    a = request.getfixturevalue(which)
    pairs = enumerate_pairs_expand(a, a)
    sym = step2_symbolic(a, a, pairs)
    rng = np.random.default_rng(1402)
    for chunk in [1, 64, 4096, *rng.integers(100, 20000, size=4).tolist()]:
        got = step3_numeric(a, a, pairs, sym, chunk_products=int(chunk))
        ref = step3_numeric(
            a, a, pairs, sym, chunk_products=int(chunk), force_accumulator="sparse"
        )
        assert got.val.tobytes() == ref.val.tobytes(), chunk


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_pools(executor, band, band_nonfinite):
    for a in (band, band_nonfinite):
        got = parallel_tile_spgemm(a, a, workers=2, executor=executor)
        assert_bytes_identical(_oracle(a, a).c, got.c)


def test_planned(band, band_nonfinite):
    for a in (band, band_nonfinite):
        plan = plan_execution(a, a, workers=2, executor="thread")
        got = parallel_tile_spgemm(a, a, plan=plan)
        assert_bytes_identical(_oracle(a, a).c, got.c)


def test_masked(band, band_nonfinite, monkeypatch):
    mask = _tiled(generators.banded(200, 5, fill=0.7, seed=8).to_csr())
    got = [masked_tile_spgemm(a, a, mask) for a in (band, band_nonfinite)]
    monkeypatch.setattr(
        masked, "step3_numeric",
        functools.partial(step3_numeric, force_accumulator="sparse"),
    )
    for a, res in zip((band, band_nonfinite), got):
        assert_bytes_identical(masked_tile_spgemm(a, a, mask).c, res.c)


def test_a_times_a_transpose():
    m = generators.banded(180, 10, fill=0.8, seed=9).to_csr()
    a, at = _tiled(m), _tiled(m.transpose())
    got, calls = _outer_calls(a, at)
    assert calls > 0
    assert_bytes_identical(_oracle(a, at).c, got.c)


def test_fp16(band, band_nonfinite):
    for a in (band, band_nonfinite):
        with np.errstate(over="ignore"):
            got = tile_spgemm(a, a, value_dtype=np.float16)
            ref = _oracle(a, a, value_dtype=np.float16)
        assert_bytes_identical(ref.c, got.c)
