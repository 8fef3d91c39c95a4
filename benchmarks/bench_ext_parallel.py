"""Extension bench: scaling of the sharded parallel engine.

Two questions about ``repro.runtime.parallel``:

1. What does sharding buy on wall-clock?  Serial ``tile_spgemm`` vs
   ``parallel_tile_spgemm`` at 2 and 4 workers (thread pool) on the ext
   matrices.  Even on one core sharding wins because each shard's
   scatter-accumulate works on a buffer sized for its own tile rows
   instead of the whole candidate space.
2. Is the parallel result exact?  Every parallel run here is checked
   byte-identical to its serial counterpart before timing is reported.

``REPRO_BENCH_MAX_MATRICES`` caps the sweep for smoke runs.
"""

import time

import pytest

from benchmarks.conftest import fig6_matrix_cap, save_and_print, save_series_json, tiled_of
from repro.analysis import format_table
from repro.bench.schema import make_series
from repro.core import tile_spgemm
from repro.matrices import representative_18
from repro.runtime.parallel import parallel_tile_spgemm

#: Worker counts swept against the serial baseline.
WORKER_COUNTS = (2, 4)

#: Timing repeats per (matrix, configuration); the minimum is reported.
REPEATS = 5

#: The acceptance bar: at 4 workers at least one ext matrix must beat
#: the serial engine by this factor.
SPEEDUP_FLOOR = 1.2

_IDENTITY_ARRAYS = (
    "tileptr", "tilecolidx", "tilennz", "rowptr",
    "rowidx", "colidx", "val", "mask",
)


def _suite():
    specs = representative_18()[:6]
    cap = fig6_matrix_cap()
    return specs[:cap] if cap else specs


def _assert_bytes_identical(serial_c, parallel_c, context: str) -> None:
    for name in _IDENTITY_ARRAYS:
        s, p = getattr(serial_c, name), getattr(parallel_c, name)
        assert s.dtype == p.dtype and s.tobytes() == p.tobytes(), (context, name)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def scaling_table():
    """Per matrix: serial seconds and per-worker-count seconds/speedup."""
    table = {}
    for spec in _suite():
        a = tiled_of(spec.matrix())
        serial_res = tile_spgemm(a, a)
        serial_s = _best_of(lambda: tile_spgemm(a, a))
        row = {"serial_s": serial_s, "workers": {}}
        for workers in WORKER_COUNTS:
            par_res = parallel_tile_spgemm(a, a, workers=workers)
            _assert_bytes_identical(
                serial_res.c, par_res.c, f"{spec.name} workers={workers}"
            )
            par_s = _best_of(lambda: parallel_tile_spgemm(a, a, workers=workers))
            row["workers"][workers] = {
                "seconds": par_s,
                "speedup": serial_s / par_s if par_s else 0.0,
                "shards": par_res.stats["shards"],
            }
        table[spec.name] = row
    return table


def test_parallel_scaling_report(benchmark, scaling_table):
    rows = []
    for name, row in scaling_table.items():
        w2, w4 = row["workers"][2], row["workers"][4]
        rows.append(
            [
                name,
                f"{row['serial_s'] * 1e3:.2f}",
                f"{w2['seconds'] * 1e3:.2f}",
                f"{w2['speedup']:.2f}x",
                f"{w4['seconds'] * 1e3:.2f}",
                f"{w4['speedup']:.2f}x",
                str(w4["shards"]),
            ]
        )
    text = format_table(
        ["matrix", "serial ms", "2w ms", "2w speedup",
         "4w ms", "4w speedup", "shards@4w"],
        rows,
        title=(
            "Extension: sharded parallel engine vs serial TileSpGEMM "
            "(thread pool, byte-identical output verified)"
        ),
    )
    benchmark.pedantic(save_and_print, args=("ext_parallel", text), rounds=1, iterations=1)

    series = []
    for name, row in scaling_table.items():
        series.append(
            make_series(name, "tilespgemm", "aa", wall_seconds=[row["serial_s"]])
        )
        for workers, w in row["workers"].items():
            series.append(
                make_series(
                    name, f"tilespgemm_par{workers}", "aa",
                    wall_seconds=[w["seconds"]],
                    extra={"speedup": w["speedup"], "shards": w["shards"],
                           "workers": workers},
                )
            )
    save_series_json("ext_parallel", series, suite="ext_parallel", repeats=REPEATS)


def test_shape_speedup_at_4_workers(scaling_table):
    """The acceptance bar: >1.2x at 4 workers on at least one ext matrix."""
    speedups = [row["workers"][4]["speedup"] for row in scaling_table.values()]
    assert max(speedups) > SPEEDUP_FLOOR, speedups


def test_shape_parallel_never_catastrophic(scaling_table):
    """Sharding overhead must never blow a run up, whatever the matrix."""
    for name, row in scaling_table.items():
        for workers, w in row["workers"].items():
            assert w["speedup"] > 0.4, (name, workers, w["speedup"])

