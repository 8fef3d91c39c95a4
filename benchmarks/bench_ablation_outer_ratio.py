"""Ablation: the dense-ratio threshold of step 3's outer-product path.

A C tile whose products ÷ (pairs · T³) reach
:data:`repro.core.step3.OUTER_PRODUCT_RATIO` is accumulated as ordered
outer products of densified tiles instead of by per-product scatter.
Both paths are byte-identical, so the threshold is a pure speed choice.
This sweep times serial step 3 (best of five) on the representative
matrices — A², plus A·Aᵀ for the three scattered ones — at each
threshold, with 10.0 standing for "never" (the per-product path alone).
Too low a threshold densifies nearly empty tiles; too high a threshold
leaves mid-density tiles on the slow path.

``REPRO_BENCH_MAX_MATRICES`` caps the sweep for smoke runs.
"""

import pytest

import repro.core.step3 as step3
from benchmarks.conftest import fig6_matrix_cap, save_and_print, tiled_of
from repro.analysis import format_table
from repro.core import TileMatrix, tile_spgemm
from repro.matrices import representative_18

RATIOS = [0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 10.0]
AAT = ("conf5_4-8x8-05", "mac_econ_fwd500", "scircuit")
#: Skip operands whose product is too large for a quick sweep.
MAX_PRODUCTS = 4e7
REPEATS = 5


def _operations():
    specs = representative_18()[: fig6_matrix_cap()]
    for spec in specs:
        m = spec.matrix()
        a = tiled_of(m)
        yield f"{spec.name} A^2", a, a
        if spec.name in AAT:
            yield f"{spec.name} AA^T", a, TileMatrix.from_csr(m.transpose())


@pytest.fixture(scope="module")
def sweep():
    saved = step3.OUTER_PRODUCT_RATIO
    out = {}
    try:
        for name, a, b in _operations():
            ref = tile_spgemm(a, b, force_accumulator="sparse")
            st = ref.stats
            if st["num_products"] > MAX_PRODUCTS:
                continue
            pairs = int(st["pairs_per_tile"].sum())
            row = {"dense_ratio": st["num_products"] / max(1, pairs * a.tile_size**3)}
            row.update({ratio: float("inf") for ratio in RATIOS})
            row.update({f"same@{ratio}": True for ratio in RATIOS})
            # Thresholds interleave within each repeat, so drift in the
            # machine's speed hits every column alike.
            for _ in range(REPEATS):
                for ratio in RATIOS:
                    step3.OUTER_PRODUCT_RATIO = ratio
                    res = tile_spgemm(a, b)
                    row[ratio] = min(row[ratio], res.timer.stats("step3").total)
                    row[f"same@{ratio}"] &= res.c.val.tobytes() == ref.c.val.tobytes()
            out[name] = row
    finally:
        step3.OUTER_PRODUCT_RATIO = saved
    return out


def test_ablation_report(benchmark, sweep):
    rows = [
        [name, f"{v['dense_ratio']:.4f}", *(f"{v[r] * 1e3:.1f}" for r in RATIOS)]
        for name, v in sweep.items()
    ]
    rows.append(
        ["total", "", *(f"{sum(v[r] for v in sweep.values()) * 1e3:.0f}" for r in RATIOS)]
    )
    text = format_table(
        ["operation", "dense ratio", *(f"{r} ms" for r in RATIOS)],
        rows,
        title=(
            "Ablation: outer-product dense-ratio threshold, serial step-3 ms "
            f"(best of {REPEATS}; in use: {step3.OUTER_PRODUCT_RATIO}; 10.0 = never)"
        ),
    )
    benchmark.pedantic(
        save_and_print, args=("ablation_outer_ratio", text), rounds=1, iterations=1
    )


def test_shape_results_identical_at_every_threshold(sweep):
    for name, v in sweep.items():
        assert all(v[f"same@{r}"] for r in RATIOS), name


def test_shape_threshold_in_use_beats_per_product_path(sweep):
    """Summed over the sweep, the threshold in use is faster than never
    taking the outer-product path."""
    used = step3.OUTER_PRODUCT_RATIO
    assert sum(v[used] for v in sweep.values()) < sum(v[10.0] for v in sweep.values())
