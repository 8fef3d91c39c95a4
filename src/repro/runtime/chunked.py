"""Chunked re-execution: TileSpGEMM in tile-row batches under a budget.

When the symbolic phase discovers that ``C`` does not fit the device
budget, the run need not die: tile row ``i`` of ``C`` depends only on tile
row ``i`` of ``A`` (and all of ``B``), so the C tile-row space can be
split into batches, each batch executed as an independent TileSpGEMM under
the budget, its output offloaded, and the pieces stitched back together.
This is the progressive/batched allocation strategy the paper credits to
the bhSPARSE framework — applied here to the tiled algorithm itself.

Peak logical memory of the chunked run is the *maximum over batches* (each
batch's device buffers are freed once its piece of ``C`` is offloaded),
which is what lets a run that would OOM complete inside the budget.

The stitched result is **bit-identical** to the single-shot run: batches
partition the candidate tiles in tile-row order, every per-tile array is
produced in the same global order, and the numeric phase performs the same
accumulations per tile.  The property-based tests assert exact equality of
every structural array and of the values.

**Shard recovery.**  The same independence makes a failed shard cheap to
recover, and :class:`ShardLedger` is the one place that decides how.
Chunked re-execution (an inline loop), the parallel engine
(:mod:`repro.runtime.parallel`, futures) and the serving tier
(:mod:`repro.serve.service`, asyncio) are thin front ends over it: they
take pending tile-row ranges, run them through the shared shard body,
and report each outcome back.  A shard that blows its budget is halved
with :func:`batch_bounds` and both halves are requeued, the progressive
re-allocation of Liu & Vinter (PAPERS.md, arXiv:1504.05022); a transient
kernel fault is requeued while retries remain; a broken pool is replaced
while replacements remain.  A one-tile-row shard that still OOMs, or a
spent limit, re-raises the original typed error for the front end's
terminal mapping.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult, tile_spgemm
from repro.errors import DeviceOOMError, InvalidInputError, TransientKernelError
from repro.obs.context import current_obs
from repro.obs.profile import current_row_offset, profile_row_offset
from repro.obs.propagate import _worker_track, run_with_worker_obs
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = [
    "slice_tile_rows",
    "batch_bounds",
    "validate_bounds",
    "stitch_results",
    "chunked_tile_spgemm",
    "ShardLedger",
]

#: ``(r0, r1, retries)``: a pending tile-row range and its retry count.
Shard = Tuple[int, int, int]

#: Actions :meth:`ShardLedger.failed` asks its caller to carry out.
SPLIT, RETRY, REPLACE = "split", "retry", "replace"

#: Stats entries that are scalar totals, summed across batches.
_SCALAR_KEYS = (
    "num_products",
    "flops",
    "num_c_tiles",
    "nnz_c",
    "symbolic_ops",
    "tile_flops_step1",
    "sparse_tiles",
    "dense_tiles",
)

#: Stats entries that are per-tile / per-pair arrays in global tile order.
_ARRAY_KEYS = (
    "pairs_per_tile",
    "intersect_len_a",
    "intersect_len_b",
    "pair_a_nnz",
    "products_per_tile",
    "tile_nnz_counts",
    "tile_use_dense",
)


def slice_tile_rows(a: TileMatrix, r0: int, r1: int) -> TileMatrix:
    """The sub-matrix holding tile rows ``[r0, r1)`` of ``a``.

    The slice is a zero-copy view onto ``a``'s arrays wherever NumPy
    slicing allows, with row count ``min(nrows - r0*T, (r1-r0)*T)`` so the
    last batch keeps a ragged final tile row.
    """
    if not 0 <= r0 <= r1 <= a.num_tile_rows:
        raise InvalidInputError(
            f"tile-row slice [{r0}, {r1}) out of range for {a.num_tile_rows} tile rows"
        )
    T = a.tile_size
    t0, t1 = int(a.tileptr[r0]), int(a.tileptr[r1])
    n0, n1 = int(a.tilennz[t0]), int(a.tilennz[t1])
    rows = min(a.shape[0] - r0 * T, (r1 - r0) * T)
    return TileMatrix(
        (rows, a.shape[1]),
        T,
        a.tileptr[r0 : r1 + 1] - t0,
        a.tilecolidx[t0:t1],
        a.tilennz[t0 : t1 + 1] - n0,
        a.rowptr[t0:t1],
        a.rowidx[n0:n1],
        a.colidx[n0:n1],
        a.val[n0:n1],
        a.mask[t0:t1],
        check=False,
    )


def batch_bounds(num_tile_rows: int, num_batches: int) -> np.ndarray:
    """Tile-row boundaries splitting ``[0, num_tile_rows)`` into
    ``num_batches`` contiguous, near-equal batches.

    Exact integer splitting: with ``base, extra = divmod(rows, batches)``
    the first ``extra`` batches get ``base + 1`` rows and the rest get
    ``base``, so sizes differ by at most one and every bound is strictly
    increasing (a float ``linspace`` truncation would front-load smaller
    shards and, for ``num_batches > num_tile_rows``, emit duplicate
    boundaries whose empty shards spawn no-op workers).  ``num_batches``
    is clamped to ``[1, num_tile_rows]`` for the same reason.

    The same boundary rule serves chunked re-execution and the sharded
    parallel engine (:mod:`repro.runtime.parallel`), so a "shard" and a
    "batch" of the same count cover identical tile-row ranges.
    """
    num_tile_rows = int(num_tile_rows)
    num_batches = max(1, min(int(num_batches), max(num_tile_rows, 1)))
    base, extra = divmod(num_tile_rows, num_batches)
    sizes = np.full(num_batches, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def validate_bounds(bounds: np.ndarray, num_tile_rows: int) -> None:
    """Reject boundary arrays that would not partition the tile rows.

    Valid bounds start at 0, end at ``num_tile_rows`` and are strictly
    increasing, so every batch/shard is non-empty and the stitched
    result covers ``[0, num_tile_rows)`` exactly once.  (Degenerate
    ``[0, 0]`` is allowed for empty matrices.)
    """
    bounds = np.asarray(bounds)
    if bounds.ndim != 1 or len(bounds) < 2:
        raise InvalidInputError(f"bounds must be a 1-D array of >= 2 entries, got {bounds!r}")
    if int(bounds[0]) != 0 or int(bounds[-1]) != int(num_tile_rows):
        raise InvalidInputError(
            f"bounds must cover [0, {num_tile_rows}), got "
            f"[{int(bounds[0])}, {int(bounds[-1])}]"
        )
    diffs = np.diff(bounds)
    if num_tile_rows > 0 and not bool((diffs >= 1).all()):
        raise InvalidInputError(
            f"bounds must be strictly increasing (no empty shard), got {bounds.tolist()}"
        )


class ShardLedger:
    """Sans-I/O state of one sharded multiply: what is left, what is done.

    Holds the pending ``(r0, r1, retries)`` ranges, the finished results
    keyed by ``r0``, and the recovery counters.  Front ends :meth:`take`
    a shard, run it, and hand the outcome to :meth:`done` or
    :meth:`failed`; the ledger itself never runs, waits or logs anything.

    Parameters
    ----------
    bounds:
        Initial tile-row boundaries (as from :func:`batch_bounds`).
    max_retries:
        Transient-fault retries per shard (reset when a shard splits).
    max_replacements:
        Broken pools the caller may replace over the whole run.
    """

    def __init__(self, bounds, max_retries: int = 0, max_replacements: int = 0) -> None:
        self.pending: Deque[Shard] = deque(
            (int(bounds[k]), int(bounds[k + 1]), 0) for k in range(len(bounds) - 1)
        )
        self.results: Dict[int, Tuple[int, object]] = {}
        self.max_retries = int(max_retries)
        self.max_replacements = int(max_replacements)
        self.shards_run = 0
        self.resplits = 0
        self.retries = 0
        self.pool_replacements = 0

    def take(self) -> Shard:
        """The next pending shard (tile-row order, requeued shards first)."""
        return self.pending.popleft()

    def done(self, shard: Shard, result) -> None:
        """Record a finished shard's result."""
        self.results[shard[0]] = (shard[1], result)
        self.shards_run += 1

    def failed(self, shard: Shard, exc: BaseException) -> str:
        """Decide a failed shard's fate; returns :data:`SPLIT`,
        :data:`RETRY` or :data:`REPLACE`, or re-raises ``exc``.

        ``REPLACE`` means the caller must swap its pool before running
        the requeued shard.  Any other error type, a one-tile-row shard
        that still OOMs, and a spent limit re-raise ``exc`` unchanged.
        """
        r0, r1, retries = shard
        if isinstance(exc, DeviceOOMError) and r1 - r0 > 1:
            mid = r0 + int(batch_bounds(r1 - r0, 2)[1])
            self.pending.extendleft([(mid, r1, 0), (r0, mid, 0)])
            self.resplits += 1
            return SPLIT
        if isinstance(exc, TransientKernelError) and retries < self.max_retries:
            self.pending.appendleft((r0, r1, retries + 1))
            self.retries += 1
            return RETRY
        broken = isinstance(exc, BrokenExecutor)
        if broken and self.pool_replacements < self.max_replacements:
            self.pending.appendleft(shard)
            self.pool_replacements += 1
            return REPLACE
        raise exc

    def pieces(self) -> List[Tuple[int, int, object]]:
        """Finished ``(r0, r1, result)`` in tile-row order, ready to stitch."""
        return [(r0, *self.results[r0]) for r0 in sorted(self.results)]


def _run_shard(a_shard: TileMatrix, b: TileMatrix, opts: Dict[str, object]):
    """The shard body every front end runs: ``tile_spgemm`` keeping empty
    tiles for the order-preserving stitch."""
    res = tile_spgemm(a_shard, b, keep_empty_tiles=True, **opts)
    # The stitch never reads these; they pin large intermediates and
    # dominate the pickling cost on a process pool.
    res.pairs = None
    res.symbolic = None
    return res


# A process pool made with ``b`` ships it and the options once, through
# the initializer, so each task pickles only its A shard.
_POOL_B: Optional[TileMatrix] = None
_POOL_OPTS: Dict[str, object] = {}


def _prime_worker(b: TileMatrix, opts: Dict[str, object]) -> None:
    global _POOL_B, _POOL_OPTS
    _POOL_B, _POOL_OPTS = b, opts


def _make_pool(executor: str, workers: int, mp_context=None, b=None, opts=None):
    """The pool factory of the parallel engine and the serving tier."""
    if executor == "process":
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=None if b is None else _prime_worker,
            initargs=() if b is None else (b, opts),
        )
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-shard")


def _shard_task(run_fn, a_shard, b, opts, ctx=None, token=None):
    """Pool-side shard call: ``(result, start, seconds, track, telemetry)``.

    ``b=None`` reads ``b`` and the options a primed process worker holds.
    ``run_fn=None`` runs :func:`_run_shard`.  ``token`` (a thread pool's
    cancel flag) is checked before any work starts.  ``telemetry`` is the
    worker-recorded :class:`~repro.obs.propagate.WorkerTelemetry`, or
    ``None`` for an untraced call (``ctx is None``).
    """
    if token is not None:
        token.raise_if_set()
    if b is None:
        b, opts = _POOL_B, _POOL_OPTS
    start = time.perf_counter()
    res, telemetry = run_with_worker_obs(ctx, run_fn or _run_shard, a_shard, b, opts)
    return res, start, time.perf_counter() - start, _worker_track(), telemetry


def chunked_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    num_batches: int = 2,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    keep_empty_tiles: bool = True,
    bounds: Optional[np.ndarray] = None,
    **kwargs,
) -> TileSpGEMMResult:
    """Run TileSpGEMM in ``num_batches`` tile-row batches and stitch ``C``.

    Parameters
    ----------
    a, b:
        Tiled operands, as for :func:`repro.core.tilespgemm.tile_spgemm`.
    num_batches:
        Number of tile-row batches (clamped to ``a.num_tile_rows``); each
        batch runs steps 1–3 independently under the budget.
    budget_bytes, fault_plan:
        Per-batch budget / fault plan, defaulting to the active
        :func:`~repro.runtime.context.execution_context`.
    keep_empty_tiles:
        As for ``tile_spgemm``; applied to the stitched matrix.
    bounds:
        Optional explicit tile-row boundaries (e.g. the cost-weighted
        bounds of an :class:`~repro.runtime.planner.ExecutionPlan`);
        must start at 0, end at ``a.num_tile_rows`` and be strictly
        increasing.  Overrides ``num_batches``.
    **kwargs:
        Remaining ``tile_spgemm`` options (``tnnz``, methods, dtype...).

    Returns
    -------
    TileSpGEMMResult
        With ``stats["batches"]`` recording the stitched batch count, a
        merged phase timer, and a merged ledger whose peak is the maximum
        per-batch peak (batch buffers are freed at each batch boundary).

    Raises
    ------
    DeviceOOMError
        When a one-tile-row batch still blows the budget.  Larger
        batches that OOM are halved and rerun (:class:`ShardLedger`),
        so ``stats["batches"]`` can exceed ``num_batches``.
    TransientKernelError
        At once: chunked re-execution does not retry (the caller's
        :func:`~repro.runtime.policy.run_resilient` does).
    """
    if a.tile_size != b.tile_size:
        raise InvalidInputError("A and B must use the same tile size")
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )
    num_tile_rows = a.num_tile_rows
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=np.int64)
        validate_bounds(bounds, num_tile_rows)
        num_batches = len(bounds) - 1
    else:
        num_batches = max(1, min(int(num_batches), max(num_tile_rows, 1)))
    if num_batches <= 1:
        result = tile_spgemm(
            a,
            b,
            keep_empty_tiles=keep_empty_tiles,
            budget_bytes=budget_bytes,
            fault_plan=fault_plan,
            **kwargs,
        )
        result.stats["batches"] = 1
        return result

    obs = current_obs()
    if bounds is None:
        bounds = batch_bounds(num_tile_rows, num_batches)
    ledger = ShardLedger(bounds)
    opts = dict(kwargs, budget_bytes=budget_bytes, fault_plan=fault_plan)
    with obs.tracer.span(
        "chunked_tile_spgemm", cat="chunked", batches=num_batches
    ):
        while ledger.pending:
            shard = ledger.take()
            r0, r1, _ = shard
            a_k = slice_tile_rows(a, r0, r1)
            try:
                with obs.tracer.span(
                    f"batch rows [{r0}, {r1})",
                    cat="chunked.batch",
                    tile_rows=[r0, r1],
                ):
                    # Batches are 0-based slices of A's tile rows; rebase
                    # the workload profiler so band attribution stays
                    # global (a chunked run nested under a shard composes
                    # both offsets).
                    with profile_row_offset(current_row_offset() + r0):
                        piece = _run_shard(a_k, b, opts)
            except Exception as exc:
                ledger.failed(shard, exc)  # splits on OOM, else re-raises
                continue
            ledger.done(shard, piece)
            if obs.enabled:
                obs.metrics.inc("chunked_batches_total")

    return stitch_results(
        [piece for _, _, piece in ledger.pieces()], a, b, keep_empty_tiles
    )


def stitch_results(
    batches: List[TileSpGEMMResult],
    a: TileMatrix,
    b: TileMatrix,
    keep_empty_tiles: bool,
) -> TileSpGEMMResult:
    """Assemble the global result from per-batch results (tile-row order).

    The pieces must cover ``a``'s tile rows contiguously in order; the
    assembled arrays are then byte-identical to a single-shot run's (see
    the module docstring).  Shared by :func:`chunked_tile_spgemm` and the
    order-preserving merge of :mod:`repro.runtime.parallel`.
    """
    T = a.tile_size

    # --- C: concatenate the per-batch pieces (already in global order).
    tileptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)] + [np.diff(r.c.tileptr) for r in batches]
    )
    np.cumsum(tileptr, out=tileptr)
    tilennz = np.concatenate(
        [np.zeros(1, dtype=np.int64)] + [np.diff(r.c.tilennz) for r in batches]
    )
    np.cumsum(tilennz, out=tilennz)
    c = TileMatrix(
        (a.shape[0], b.shape[1]),
        T,
        tileptr,
        np.concatenate([r.c.tilecolidx for r in batches]),
        tilennz,
        np.concatenate([r.c.rowptr for r in batches], axis=0),
        np.concatenate([r.c.rowidx for r in batches]),
        np.concatenate([r.c.colidx for r in batches]),
        np.concatenate([r.c.val for r in batches]),
        np.concatenate([r.c.mask for r in batches], axis=0),
        check=False,
    )
    if not keep_empty_tiles:
        c = c.drop_empty_tiles()

    # --- Timer: phase times add across batches.
    timer = PhaseTimer()
    for r in batches:
        timer.merge(r.timer)

    # --- Ledger: replay each batch then free its buffers (the offload).
    # ``use_context=False`` so the replay neither re-enforces the budget
    # nor re-fires the fault plan on events that already happened.
    alloc = AllocationTracker(use_context=False)
    for k, r in enumerate(batches):
        for ev in r.alloc.events:
            alloc.set_phase(ev.phase)
            if ev.kind == "alloc":
                alloc.alloc(f"batch{k}/{ev.label}", ev.nbytes)
            else:
                alloc.free(f"batch{k}/{ev.label}")
        alloc.set_phase("offload")
        for label in alloc.live_labels():
            if label.startswith(f"batch{k}/"):
                alloc.free(label)

    # --- Stats: sum the totals, concatenate the per-tile arrays.
    stats: dict = {}
    for key in _SCALAR_KEYS:
        stats[key] = int(sum(int(r.stats.get(key, 0)) for r in batches))
    for key in _ARRAY_KEYS:
        stats[key] = np.concatenate([np.asarray(r.stats[key]) for r in batches])
    stats.update(
        num_tiles_a=a.num_tiles,
        num_tiles_b=b.num_tiles,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        tile_size=T,
        batches=len(batches),
    )
    # Every batch ran under the same kernel backend; carry the label so
    # chunked/parallel results report it like a single-shot run does.
    backend_names = {str(r.stats["backend"]) for r in batches if "backend" in r.stats}
    if len(backend_names) == 1:
        stats["backend"] = backend_names.pop()
    tiers = {
        str(r.stats["backend_tier"]) for r in batches if "backend_tier" in r.stats
    }
    if len(tiers) == 1:
        stats["backend_tier"] = tiers.pop()

    return TileSpGEMMResult(c=c, timer=timer, alloc=alloc, stats=stats)
