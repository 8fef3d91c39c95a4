"""Sharded parallel execution engine: TileSpGEMM on a worker pool.

The candidate-C-tile space shards exactly like it chunks: tile row ``i``
of ``C`` depends only on tile row ``i`` of ``A`` (and all of ``B``), so
the engine cuts ``A``'s tile rows into contiguous shards with the same
boundary rule as chunked re-execution
(:func:`~repro.runtime.chunked.batch_bounds`), runs each shard's
step-2 symbolic + step-3 numeric phases as an independent task on a
:mod:`concurrent.futures` pool, and merges the per-shard results with the
order-preserving stitch (:func:`~repro.runtime.chunked.stitch_results`).

**Determinism.**  The merged result is byte-identical to the serial run —
indices, values and tile structure.  Two properties make that true: the
stitch concatenates shard outputs in tile-row order, and the numeric
phase chunks its product stream at C-tile boundaries
(:func:`repro.core.step3.step3_numeric`), so each tile's accumulation
order is independent of how the tile-row space was partitioned.  The
test suite asserts exact equality of all eight output arrays for both
executors.

**Executors.**  ``executor="thread"`` shares the operands by reference;
``executor="process"`` ships ``B`` and the options to each worker once
via the pool initializer and sends only the per-task ``A`` shard.  Pool
workers run with an empty ambient context (both context stacks are
thread-local), so budgets and fault plans reach a shard only as the
explicit arguments the engine forwards, and workers never race on the
coordinator's tracer.

**Tracing.**  When the ambient tracer is live each shard travels with a
:class:`~repro.obs.propagate.TraceContext`; the worker records its spans
into a local tracer (:func:`~repro.obs.propagate.run_with_worker_obs`)
and ships them back with the result, and the coordinator merges them
(:func:`~repro.obs.propagate.absorb_telemetry`) onto its own timeline
with resolvable ``span_id``/``parent_span_id`` links: request/parallel
span → coordinator shard span → worker-side step spans.  The summary
``parallel.shard`` spans recorded from worker-reported timings are kept
— they are the cheap always-on view; the absorbed worker spans add the
inside-the-shard breakdown.

**Backends.**  The engine resolves its kernel-backend spec to a registry
*name* in the coordinator (covering the process default, which is module
state and does not survive ``spawn``) and forwards the name inside the
shard options; each pool worker re-resolves the name through its own
freshly-imported registry (:mod:`repro.backend`).  A worker that runs
with no explicit spec — and any child the engine did not configure —
falls back to ``REPRO_BACKEND`` from its inherited environment.  Every
shard of a run therefore executes the same backend, and the conformance
suite pins the merged result against the serial ``numpy`` run per the
backend's declared tier: byte-identical for exact-tier backends, and
byte-identical *structure* with values inside the declared
:class:`~repro.backend.ValueTolerance` for fast-math (tier-2) backends
— sharding and stitching never add error of their own because chunk
boundaries align with C tile rows.

**Failure.**  The engine drives a
:class:`~repro.runtime.chunked.ShardLedger`, the recovery path it
shares with chunked re-execution and the serving tier: a shard that
blows its budget is halved and rerun on the pool, and a shard raising
:class:`~repro.errors.TransientKernelError` is resubmitted up to
:attr:`~repro.runtime.policy.ParallelPolicy.max_shard_retries` times.
When retries run out, or the pool breaks outright, the
:class:`~repro.runtime.policy.ParallelPolicy` falls back to the serial
engine (or raises).  A one-tile-row shard that still OOMs raises
:class:`~repro.errors.DeviceOOMError`.  See ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import backend_tier, resolve_backend_name
from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult, _record_obs_metrics, tile_spgemm
from repro.errors import ConfigurationError, InvalidInputError, TransientKernelError
from repro.obs.context import current_obs
from repro.obs.profile import current_row_offset
from repro.obs.propagate import TraceContext, absorb_telemetry, new_trace_id
from repro.runtime.chunked import (
    ShardLedger,
    _make_pool,
    _shard_task,
    batch_bounds,
    chunked_tile_spgemm,
    slice_tile_rows,
    stitch_results,
    validate_bounds,
)
from repro.runtime.policy import ParallelPolicy

__all__ = [
    "ENV_WORKERS",
    "ENV_EXECUTOR",
    "resolve_workers",
    "resolve_executor",
    "parallel_tile_spgemm",
]

#: Environment knobs consulted when the caller passes ``None``.
ENV_WORKERS = "REPRO_WORKERS"
ENV_EXECUTOR = "REPRO_EXECUTOR"

_EXECUTORS = ("thread", "process")

#: Shards per worker: a little oversharding evens out load imbalance
#: between tile rows without shrinking shards into stitch overhead.
_SHARDS_PER_WORKER = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 1.

    ``0`` (from either source) means "auto": the number of CPUs this
    process may run on.  The result is always >= 1; ``1`` selects the
    serial engine.

    A malformed environment value raises
    :class:`~repro.errors.ConfigurationError` naming the variable (exit
    code 10 at the CLI); a malformed *argument* stays the caller's
    :class:`~repro.errors.InvalidInputError`.
    """
    from_env = False
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip()
        if not env:
            return 1
        from_env = True
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(
                f"must be an integer, got {env!r}", source=ENV_WORKERS
            ) from None
    workers = int(workers)
    if workers < 0:
        if from_env:
            raise ConfigurationError(
                f"must be >= 0, got {workers}", source=ENV_WORKERS
            )
        raise InvalidInputError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # non-Linux
            return max(1, os.cpu_count() or 1)
    return workers


def resolve_executor(executor: Optional[str] = None) -> str:
    """The effective executor kind: argument, else ``REPRO_EXECUTOR``,
    else ``"thread"``.

    Like :func:`resolve_workers`, a malformed environment value raises
    :class:`~repro.errors.ConfigurationError` naming the variable.
    """
    from_env = False
    if executor is None:
        executor = os.environ.get(ENV_EXECUTOR, "").strip() or "thread"
        from_env = True
    executor = executor.lower()
    if executor not in _EXECUTORS:
        if from_env:
            raise ConfigurationError(
                f"must be one of {_EXECUTORS}, got {executor!r}",
                source=ENV_EXECUTOR,
            )
        raise InvalidInputError(
            f"executor must be one of {_EXECUTORS}, got {executor!r}"
        )
    return executor


def _with_plan(res: TileSpGEMMResult, plan_dict: Optional[Dict[str, object]]):
    """Attach the plan record to ``res`` and land it in the ambient
    workload profiler (if live)."""
    if plan_dict is not None:
        res.stats["plan"] = plan_dict
        profile = getattr(current_obs(), "profile", None)
        if getattr(profile, "enabled", False):
            profile.record_plan(plan_dict)
    return res


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def parallel_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
    plan=None,
    policy: Optional[ParallelPolicy] = None,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    keep_empty_tiles: bool = True,
    backend=None,
    mp_context=None,
    **kwargs,
) -> TileSpGEMMResult:
    """Multiply ``a @ b`` on a worker pool; byte-identical to serial.

    Parameters
    ----------
    a, b:
        Tiled operands, as for :func:`repro.core.tilespgemm.tile_spgemm`.
    workers:
        Pool size; ``None`` consults ``REPRO_WORKERS``, ``0`` means one
        per available CPU, and ``1`` (the overall default) runs serially.
    executor:
        ``"thread"`` or ``"process"``; ``None`` consults
        ``REPRO_EXECUTOR`` and defaults to ``"thread"``.
    shards:
        Number of contiguous tile-row shards (clamped to
        ``a.num_tile_rows``); defaults to ``workers * 2`` so stragglers
        can be balanced.
    plan:
        An :class:`~repro.runtime.planner.ExecutionPlan` (duck-typed:
        ``workers`` / ``executor`` / ``bounds`` / ``tnnz`` / ``backend``
        / ``to_dict()``).  Fills in every option the caller left
        ``None`` — including the cost-weighted shard boundaries, used
        whenever ``shards`` is not given and the plan's bounds match
        ``a``'s tile rows.  The plan record lands in ``stats["plan"]``
        and the ambient workload profiler.  Explicit arguments still
        win.
    policy:
        A :class:`~repro.runtime.policy.ParallelPolicy` governing shard
        retries and the serial fallback (defaults apply when ``None``).
    budget_bytes, fault_plan:
        Forwarded to every shard explicitly — pool workers inherit no
        ambient context.  A shard over the budget is halved and rerun.
        On the process pool the fault plan is pickled per worker, so its
        counters advance independently per process.
    keep_empty_tiles:
        As for ``tile_spgemm``; applied to the merged matrix.
    backend:
        Kernel backend spec (name, :class:`~repro.backend.KernelSet`, or
        ``None`` for the ambient default).  Resolved to a registry name
        *here*, in the coordinator, and shipped by name to the pool
        workers — process workers cannot see the coordinator's module
        state, only the registry they import themselves and the
        environment they inherit.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool
        (e.g. ``multiprocessing.get_context("spawn")``); ``None`` uses
        the platform default.  The propagation tests use this to pin the
        start method the trace must survive.
    **kwargs:
        Remaining ``tile_spgemm`` options (``tnnz``, methods, dtype...).

    Returns
    -------
    TileSpGEMMResult
        With ``stats["shards"]`` (the stitched piece count),
        ``stats["workers"]`` and ``stats["executor"]`` describing the
        pool, and
        ``stats["parallel_fallback"]`` set when a worker failure forced
        the serial fallback.
    """
    if a.tile_size != b.tile_size:
        raise InvalidInputError("A and B must use the same tile size")
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )
    plan_dict: Optional[Dict[str, object]] = None
    num_tile_rows = a.num_tile_rows
    plan_bounds: Optional[np.ndarray] = None
    if plan is not None:
        # The plan supplies whatever the caller left open; its choices
        # already honoured the env knobs at planning time.
        plan_dict = plan.to_dict()
        if workers is None:
            workers = plan.workers
        if executor is None:
            executor = plan.executor
        if backend is None:
            backend = plan.backend
        if getattr(plan, "tnnz", None) is not None:
            kwargs.setdefault("tnnz", int(plan.tnnz))
        if shards is None and len(plan.bounds) >= 2:
            plan_bounds = np.asarray(plan.bounds, dtype=np.int64)
            validate_bounds(plan_bounds, num_tile_rows)
    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    policy = policy or ParallelPolicy()
    # Resolve the backend spec to a pickle-safe registry name up front:
    # the process default (module state) does not survive spawn, so the
    # name — not the KernelSet — is what travels to the workers.
    backend_name = resolve_backend_name(backend)
    kwargs["backend"] = backend_name

    explicit_shards = plan_bounds is not None or shards is not None
    if plan_bounds is not None:
        num_shards = len(plan_bounds) - 1
    else:
        if shards is None:
            shards = workers * _SHARDS_PER_WORKER
        num_shards = max(1, min(int(shards), max(num_tile_rows, 1)))

    if workers <= 1 or num_shards <= 1:
        if workers <= 1 and num_shards > 1 and explicit_shards:
            # One worker but a multi-shard plan: run the shards serially
            # through the chunked engine.  Sharding pays even without
            # parallelism — each shard's intermediate arrays are smaller,
            # so the working set stays cache-resident (the planner's
            # "chunked" mode) — and the stitched result remains
            # byte-identical to the monolithic run.
            res = chunked_tile_spgemm(
                a,
                b,
                bounds=plan_bounds,
                num_batches=num_shards,
                keep_empty_tiles=keep_empty_tiles,
                budget_bytes=budget_bytes,
                fault_plan=fault_plan,
                **kwargs,
            )
            res.stats.update(
                shards=res.stats["batches"], workers=1, executor="chunked"
            )
        else:
            res = tile_spgemm(
                a,
                b,
                keep_empty_tiles=keep_empty_tiles,
                budget_bytes=budget_bytes,
                fault_plan=fault_plan,
                **kwargs,
            )
            res.stats.update(shards=1, workers=1, executor="serial")
        return _with_plan(res, plan_dict)

    opts = dict(kwargs, budget_bytes=budget_bytes, fault_plan=fault_plan)
    bounds = (
        plan_bounds
        if plan_bounds is not None
        else batch_bounds(num_tile_rows, num_shards)
    )
    ledger = ShardLedger(bounds, max_retries=policy.max_shard_retries)

    obs = current_obs()
    # Trace propagation: when the tracer is live, every shard travels
    # with a TraceContext.  Span identity lives in span args; ids are
    # derived from the shard's first tile row, so the coordinator's
    # after-the-fact shard spans and the worker-recorded spans link up in
    # the merged trace however often a shard was split or retried.
    trace_live = bool(getattr(obs.tracer, "enabled", False))
    profile_live = bool(getattr(obs.profile, "enabled", False))
    ambient = obs.trace_ctx
    span_attrs: Dict[str, object] = {}
    parallel_span_id = ""
    trace_id = ""
    if trace_live or profile_live:
        # A live profiler also needs the shard contexts: they carry the
        # tile-row offset the worker rebases its workload profile by,
        # and the profile payload rides home inside WorkerTelemetry.
        trace_id = ambient.trace_id if ambient is not None else new_trace_id()
        parallel_span_id = f"{trace_id}/{new_trace_id('par')}"
        if trace_live:
            span_attrs = {
                "trace_id": trace_id,
                "span_id": parallel_span_id,
                "parent_span_id": ambient.parent_span_id if ambient is not None else "",
            }
    row_base = current_row_offset()

    def ctx_of(r0: int) -> Optional[TraceContext]:
        if not (trace_live or profile_live):
            return None  # untraced: no context travels
        return TraceContext(
            trace_id,
            parent_span_id=f"{parallel_span_id}/shard{r0}",
            row_offset=row_base + r0,
        )

    with obs.tracer.span(
        "parallel_tile_spgemm",
        cat="parallel",
        workers=workers,
        shards=num_shards,
        executor=executor,
        **span_attrs,
    ) as span:
        pool_t0 = time.perf_counter()
        try:
            _run_pool(ledger, a, b, opts, executor, workers, mp_context, ctx_of)
        except (TransientKernelError, BrokenExecutor) as exc:
            if policy.on_worker_failure == "raise":
                raise
            if obs.enabled:
                obs.metrics.inc("parallel_fallbacks_total", executor=executor)
                obs.tracer.instant(
                    "parallel_fallback",
                    cat="parallel",
                    executor=executor,
                    error=type(exc).__name__,
                )
                obs.log.emit(
                    "parallel_fallback",
                    trace_id=trace_id or None,
                    executor=executor,
                    error=type(exc).__name__,
                    detail=str(exc),
                )
            res = tile_spgemm(
                a,
                b,
                keep_empty_tiles=keep_empty_tiles,
                budget_bytes=budget_bytes,
                fault_plan=fault_plan,
                **kwargs,
            )
            res.stats.update(
                shards=1, workers=1, executor="serial", parallel_fallback=True
            )
            return _with_plan(res, plan_dict)

        pieces = ledger.pieces()
        if obs.enabled:
            base = getattr(span, "start_s", 0.0) or 0.0
            for k, (r0, r1, (_, w_start, w_dur, track, telemetry)) in enumerate(
                pieces
            ):
                link_attrs: Dict[str, object] = {}
                if trace_live:
                    link_attrs = {
                        "trace_id": trace_id,
                        "span_id": f"{parallel_span_id}/shard{r0}",
                        "parent_span_id": parallel_span_id,
                    }
                obs.tracer.add_complete(
                    f"shard {k + 1}/{len(pieces)}",
                    base + max(w_start - pool_t0, 0.0),
                    w_dur,
                    pid="parallel",
                    tid=track,
                    cat="parallel.shard",
                    tile_rows=[r0, r1],
                    **link_attrs,
                )
                # Merge the worker-recorded spans onto this timeline.
                # ``epoch_s`` maps the worker's absolute clock onto the
                # same zero the summary span above uses, so the two views
                # line up even under a test-injected coordinator clock.
                # Counters stay worker-local: the coordinator records the
                # merged stats itself (below) and must not double-count.
                # Workload profiles are the opposite: recorded only
                # worker-side, so absorbing them here is the one merge.
                absorb_telemetry(
                    obs.tracer,
                    telemetry,
                    epoch_s=pool_t0 - base,
                    metrics=None,
                    profile=obs.profile,
                    pid="parallel.workers",
                )

    merged = stitch_results(
        [out[0] for _, _, out in pieces], a, b, keep_empty_tiles
    )
    merged.stats.update(
        shards=len(pieces),
        workers=workers,
        executor=executor,
        backend=backend_name,
        backend_tier=backend_tier(backend_name).value,
    )
    if obs.enabled:
        obs.metrics.inc("parallel_runs_total", executor=executor)
        obs.metrics.inc("parallel_shards_total", len(pieces))
        obs.metrics.set_gauge("parallel_workers", workers)
        obs.metrics.inc(
            "parallel_shard_seconds_total",
            sum(out[2] for _, _, out in pieces),
        )
        _record_obs_metrics(obs.metrics, merged.stats)
    return _with_plan(merged, plan_dict)


def _run_pool(ledger, a, b, opts, executor, workers, mp_context, ctx_of) -> None:
    """Drive ``ledger`` to completion on a fresh pool.

    Every pending shard is sliced and submitted at once; each finished
    future is reported back, and the ledger requeues what it can
    recover.  A process pool is primed with ``b`` and the options once.
    The ledger's re-raise (including the ``BrokenExecutor`` of a dead
    pool, which this engine never replaces) leaves through the ``with``
    block after the pool drains.
    """
    pool = _make_pool(executor, workers, mp_context, b, opts)
    ship = (None, None) if executor == "process" else (b, opts)
    running: Dict[Future, Tuple[int, int, int]] = {}
    with pool:
        while ledger.pending or running:
            while ledger.pending:
                shard = ledger.take()
                a_shard = slice_tile_rows(a, shard[0], shard[1])
                fut = pool.submit(_shard_task, None, a_shard, *ship, ctx_of(shard[0]))
                running[fut] = shard
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                shard = running.pop(fut)
                try:
                    ledger.done(shard, fut.result())
                except Exception as exc:
                    ledger.failed(shard, exc)  # requeues, or re-raises

