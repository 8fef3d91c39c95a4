"""Estimation-driven execution planning for TileSpGEMM runs.

The paper fixes its execution decisions statically: the accumulator
threshold ``tnnz`` is a constant ratio of tile capacity, tile rows are
split uniformly, and the caller chooses worker count and backend by
hand.  This module makes those decisions per run, from the cheap
upfront estimate of :mod:`repro.analysis.estimate` (OCEAN-style
row-sampled nnz(C)/compression) combined with whatever calibrated
ground truth is available — a :mod:`repro.analysis.calibration` report
mapping predicted cost to measured cost on this machine, and the
process-wide :class:`~repro.runtime.tilecache.TileCache` hit statistics
that say whether operand conversion is already amortised.

:func:`plan_execution` produces an :class:`ExecutionPlan` choosing

* **workers / executor** — serial below a products threshold (pool
  startup and stitch overhead dominate tiny multiplies), scaling up to
  the available CPUs as predicted work grows.  A calibration report
  whose measured times run slower than predicted lowers the bar for
  parallelism proportionally; a warm tile cache does too (conversion
  cost is already paid).
* **shard count and boundaries** — the shard count bounds *predicted
  products per shard* (:data:`DEFAULT_SHARD_PRODUCTS`): a shard's
  intermediate arrays scale with its product count, so sharding keeps
  the working set cache-resident and pays off even with one worker (the
  plan's ``"chunked"`` mode, executed serially through
  :func:`~repro.runtime.chunked.chunked_tile_spgemm`).  A pool gets at
  most :data:`MAX_SHARDS_PER_WORKER` shards per worker: more only adds
  per-shard fixed cost.
  :func:`weighted_bounds` then equalises predicted products per shard
  instead of tile-row counts, so a power-law row distribution no longer
  leaves one straggler shard holding most of the work.
* **tnnz** — the sparse/dense accumulator threshold, from the estimated
  compression rate: heavy reuse (band ``8+``) means each output nonzero
  absorbs many products, which is exactly when the dense accumulator's
  O(1) scatter amortises its initialisation, so the threshold drops to
  half the tile capacity; otherwise the paper's 75 % default stands.
* **backend** — the explicit request if any, else the ambient
  registry default, resolved to a pickle-safe name once.

Every decision is a deterministic function of the operands (the
estimator samples deterministically), so a plan is reproducible and the
planned parallel run stays byte-identical to a serial run with the same
``tnnz`` — asserted by the determinism tests.

The plan is recorded in ``stats["plan"]`` of the result and in
``repro.profile/1`` artifacts (:class:`~repro.obs.profile.WorkloadProfiler`),
so ``obs profile`` can attribute wins to planning decisions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.estimate import (
    DEFAULT_SAMPLE_ROWS,
    MultiplyEstimate,
    estimate_multiply,
)
from repro.backend import backend_tier, resolve_backend_name
from repro.core.step3 import default_tnnz
from repro.errors import InvalidInputError
from repro.runtime.chunked import batch_bounds, validate_bounds
from repro.runtime.parallel import (
    _SHARDS_PER_WORKER,
    ENV_EXECUTOR,
    ENV_WORKERS,
    resolve_executor,
    resolve_workers,
)
from repro.runtime.tilecache import get_tile_cache

__all__ = [
    "ExecutionPlan",
    "plan_execution",
    "weighted_bounds",
    "DEFAULT_SERIAL_PRODUCTS",
    "DEFAULT_SHARD_PRODUCTS",
    "MAX_SHARDS_PER_WORKER",
]

#: Predicted intermediate products below which one worker is the plan:
#: pool startup + shard slicing + stitch cost a few milliseconds, and a
#: multiply this small finishes serially before a pool warms up.  Each
#: additional worker must bring at least this many products with it.
DEFAULT_SERIAL_PRODUCTS = 200_000

#: Predicted intermediate products each shard should carry.  Sharding
#: pays even without parallelism: a shard's step-2/step-3 intermediates
#: scale with its product count, so bounding products per shard keeps
#: the working set cache-resident (measured ~1.5x on the ext matrices
#: against the monolithic serial run).  The planner therefore shards by
#: this bar first and only then asks how many workers the machine can
#: put under the shards.
DEFAULT_SHARD_PRODUCTS = 1_000_000

#: Most shards a pool plan gives each worker.  Past this the per-shard
#: fixed cost (slicing A, step 3's scans of B, stitching) outweighs the
#: balance more shards buy.  Measured on a 2-vCPU Xeon at 2 workers with
#: the outer-product step 3 (medians of 11–21 interleaved runs): 8
#: shards beat 4 on pdb1HYS, consph and pwtk (0.81–0.87×) and scircuit
#: A·Aᵀ (0.89×), and 12–16 shards were no faster than 8 on any of them.
MAX_SHARDS_PER_WORKER = 4

#: Calibration correction is clamped to this factor range so one noisy
#: calibration cell cannot push the planner to an extreme.
_MAX_CALIBRATION_SKEW = 4.0


@dataclass(frozen=True)
class ExecutionPlan:
    """One run's execution decisions, ready to hand to the engines.

    Attributes
    ----------
    mode:
        ``"serial"`` (one shard, one worker), ``"chunked"`` (one worker
        running multiple shards serially — the cache-residency win
        without pool overhead) or ``"parallel"`` (a worker pool).
    workers, executor, shards:
        Pool shape (``workers=1``/``shards=1`` in serial mode).
    bounds:
        Tile-row shard boundaries, cost-weighted via
        :func:`weighted_bounds`; always covers ``[0, num_tile_rows)``
        exactly with no empty shard.
    tnnz:
        The accumulator threshold every shard must use (determinism:
        sparse and dense accumulation orders differ, so the threshold is
        fixed per plan, never per shard).
    backend:
        Resolved kernel-backend registry name.
    backend_tier:
        The backend's declared conformance tier (``"exact"`` or
        ``"fast-math"``), recorded so artifacts show which guarantee
        the run carried.
    estimate:
        Native-typed :meth:`~repro.analysis.estimate.MultiplyEstimate.to_dict`
        summary the decisions were derived from.
    cache:
        :meth:`~repro.runtime.tilecache.TileCache.stats` snapshot at
        planning time.
    notes:
        Human-readable derivation notes ("serial: products below bar",
        "calibration skew 1.7x", ...) surfaced by ``obs profile``.
    """

    mode: str
    workers: int
    executor: str
    shards: int
    bounds: np.ndarray
    tnnz: int
    backend: str
    backend_tier: str = "exact"
    estimate: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    @property
    def num_tile_rows(self) -> int:
        return int(self.bounds[-1]) if len(self.bounds) else 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able plan record (``stats["plan"]`` / profile artifacts)."""
        return {
            "mode": self.mode,
            "workers": int(self.workers),
            "executor": self.executor,
            "shards": int(self.shards),
            "bounds": [int(x) for x in self.bounds],
            "tnnz": int(self.tnnz),
            "backend": self.backend,
            "backend_tier": self.backend_tier,
            "estimate": dict(self.estimate),
            "cache": dict(self.cache),
            "notes": list(self.notes),
        }


def weighted_bounds(weights, num_shards: int) -> np.ndarray:
    """Shard boundaries equalising predicted cost, not row count.

    Splits ``[0, len(weights))`` into ``num_shards`` contiguous shards
    whose weight sums are as equal as a contiguous split allows: the
    cut points are where the cumulative weight crosses each equal-share
    target.  Guarantees of :func:`~repro.runtime.chunked.batch_bounds`
    are preserved — bounds start at 0, end at ``len(weights)``, and are
    strictly increasing (no empty shard) — so the planned bounds slot
    straight into the chunked/parallel engines.

    All-zero weights fall back to the uniform split.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    n = int(w.size)
    if n == 0:
        return np.zeros(2, dtype=np.int64)
    num_shards = max(1, min(int(num_shards), n))
    if num_shards == 1:
        return np.array([0, n], dtype=np.int64)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        return batch_bounds(n, num_shards)
    cum = np.cumsum(w)
    targets = total * (np.arange(1, num_shards) / num_shards)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate(
        (np.zeros(1, np.int64), cuts.astype(np.int64), np.full(1, n, np.int64))
    )
    # Crossing points can collide when one tile row dominates the total;
    # push colliding cuts apart (forward then backward) so every shard
    # keeps at least one tile row.  num_shards <= n makes both passes
    # satisfiable at once.
    for k in range(1, num_shards):
        if bounds[k] <= bounds[k - 1]:
            bounds[k] = bounds[k - 1] + 1
    for k in range(num_shards - 1, 0, -1):
        if bounds[k] >= bounds[k + 1]:
            bounds[k] = bounds[k + 1] - 1
    return bounds


def _calibration_skew(calibration: Optional[Dict[str, Any]]) -> float:
    """Measured-vs-predicted slowdown of the tilespgemm family.

    ``> 1`` means this machine runs the family slower than the cost
    model predicts — parallelism pays off sooner, so the serial bar is
    divided by the skew.  Missing/empty reports return 1.0.
    """
    if not calibration:
        return 1.0
    fam = calibration.get("families", {}).get("tilespgemm")
    if not fam:
        return 1.0
    total = fam.get("total", {})
    predicted = float(total.get("predicted_s", 0.0))
    measured = float(total.get("measured_s", 0.0))
    if predicted <= 0.0 or measured <= 0.0:
        return 1.0
    skew = measured / predicted
    return float(min(max(skew, 1.0 / _MAX_CALIBRATION_SKEW), _MAX_CALIBRATION_SKEW))


def plan_execution(
    a,
    b,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
    backend=None,
    tier=None,
    calibration: Optional[Dict[str, Any]] = None,
    cache_stats: Optional[Dict[str, Any]] = None,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    serial_products: int = DEFAULT_SERIAL_PRODUCTS,
    shard_products: int = DEFAULT_SHARD_PRODUCTS,
) -> ExecutionPlan:
    """Derive an :class:`ExecutionPlan` for ``a @ b``.

    Explicit arguments (and the ``REPRO_WORKERS`` / ``REPRO_EXECUTOR``
    environment knobs) always win over the estimator's choice — the
    planner fills in what the caller left open.  ``calibration`` is a
    loaded ``repro.calibration/1`` report; ``cache_stats`` defaults to
    the process-wide :class:`~repro.runtime.tilecache.TileCache`.

    ``tier`` is the caller's conformance requirement, forwarded to
    :func:`~repro.backend.resolve_backend_name`: pass
    ``ConformanceTier.EXACT`` to guarantee the planned backend is
    byte-reproducible — planning fails loudly rather than emit a plan
    that names a fast-math backend.
    """
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )
    est = estimate_multiply(a, b, sample_rows=sample_rows)
    notes = []
    if cache_stats is None:
        cache_stats = get_tile_cache().stats()

    # --- worker count: explicit/env wins; otherwise scale with work.
    explicit_workers = workers is not None or bool(
        os.environ.get(ENV_WORKERS, "").strip()
    )
    cpus = resolve_workers(0)
    if explicit_workers:
        chosen_workers = resolve_workers(workers)
        notes.append(f"workers {chosen_workers}: explicit")
    else:
        bar = float(serial_products)
        skew = _calibration_skew(calibration)
        if skew != 1.0:
            bar /= skew
            notes.append(f"calibration skew {skew:.2f}x lowers serial bar")
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        if lookups and cache_stats.get("hits", 0) / lookups >= 0.5:
            bar /= 2.0
            notes.append("warm tile cache halves serial bar")
        chosen_workers = int(min(cpus, max(1, est.products // max(bar, 1.0))))
        notes.append(
            f"workers {chosen_workers}: {est.products} products vs "
            f"bar {int(bar)}/worker (cpus {cpus})"
        )

    # --- executor: explicit/env wins; threads otherwise (operands are
    # shared by reference; the numpy kernels drop the GIL in the hot
    # loops, and process pools pay pickling for B).
    explicit_executor = executor is not None or bool(
        os.environ.get(ENV_EXECUTOR, "").strip()
    )
    chosen_executor = resolve_executor(executor) if explicit_executor else "thread"

    # --- shard count: bound predicted products per shard (the shards
    # pay for themselves serially via cache residency, so this is
    # independent of the worker count), then give a pool between
    # _SHARDS_PER_WORKER and MAX_SHARDS_PER_WORKER shards per worker.
    num_tile_rows = int(len(est.tile_row_products))
    if shards is None:
        chosen_shards = max(1, int(round(est.products / max(float(shard_products), 1.0))))
        if chosen_shards > 1:
            notes.append(
                f"shards {chosen_shards}: ~{int(shard_products)} "
                "products/shard keeps shard intermediates cache-resident"
            )
        if chosen_workers > 1:
            chosen_shards = min(
                max(chosen_shards, chosen_workers * _SHARDS_PER_WORKER),
                chosen_workers * MAX_SHARDS_PER_WORKER,
            )
    else:
        chosen_shards = int(shards)
    num_shards = max(1, min(chosen_shards, max(num_tile_rows, 1)))

    # --- shard boundaries: equalise predicted products per shard.
    if num_shards <= 1 or num_tile_rows <= 1:
        mode = "serial"
        num_shards = 1
        chosen_workers = 1
        bounds = np.array([0, num_tile_rows], dtype=np.int64)
    else:
        chosen_workers = max(1, min(chosen_workers, num_shards))
        mode = "parallel" if chosen_workers > 1 else "chunked"
        bounds = weighted_bounds(est.tile_row_products, num_shards)
        num_shards = len(bounds) - 1
        validate_bounds(bounds, num_tile_rows)

    # --- tnnz: compression-driven accumulator threshold (deterministic
    # per plan; see the module docstring).
    tile_size = est.tile_size
    tnnz = default_tnnz(tile_size)
    if est.compression >= 8.0:
        tnnz = max(1, (tile_size * tile_size) // 2)
        notes.append(
            f"compression {est.compression:.1f} (band {est.band}): "
            f"dense-leaning tnnz {tnnz}"
        )

    backend_name = resolve_backend_name(backend, tier=tier)

    return ExecutionPlan(
        mode=mode,
        workers=int(chosen_workers),
        executor=chosen_executor,
        shards=int(num_shards),
        bounds=bounds,
        tnnz=int(tnnz),
        backend=backend_name,
        backend_tier=backend_tier(backend_name).value,
        estimate=est.to_dict(),
        cache=dict(cache_stats),
        notes=tuple(notes),
    )
