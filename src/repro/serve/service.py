"""The asyncio SpGEMM service: admission, deadlines, recovery, ordering.

:class:`SpGEMMService` is the "millions of users" front door over the
engines the earlier layers built: many clients share one resident
operand set (the process-wide :class:`~repro.runtime.tilecache.TileCache`)
while every request keeps its own isolation — its own memory budget, its
own deadline, its own fault plan, its own recovery state.

The life of a request::

    submit ──▶ admission ──▶ bounded queue ──▶ shard loop ──▶ response
                 │ shed                            │
                 ▼                                 ├─ OOM: re-split the shard
              response                             │   (ShardLedger) + requeue
              (typed error)                        ├─ transient: retry with
                                                   │   awaited seeded backoff
                                                   ├─ pool broken: replace the
                                                   │   pool, re-run the shard
                                                   └─ deadline: cancel token,
                                                       typed error

**Graceful degradation, not serialisation.**  The shard loop drives the
same :class:`~repro.runtime.chunked.ShardLedger` as chunked re-execution
and the parallel engine: a shard that blows its per-request budget is
halved and both halves are *requeued to the pool* — the progressive
re-allocation scheme of Liu & Vinter's framework (PAPERS.md,
arXiv:1504.05022) applied at the serving tier, keeping the request
parallel instead of degrading it to the serial engine.  The loop adds
only the serving-side I/O: awaited backoff, pool replacement, the
deadline and the cancel token.  Because the stitch is order-preserving
and the numeric phase chunks at C-tile boundaries, the served product is
byte-identical to a serial ``tile_spgemm`` run no matter how many
re-splits it took.

**The pool.**  The event loop never runs a multiply: shards run on a
:mod:`concurrent.futures` pool and are awaited.  ``executor="thread"``
shares the resident ``B`` by reference; ``executor="process"`` pickles
each shard's operands per call, and a worker killed mid-shard surfaces as
a :class:`~concurrent.futures.BrokenExecutor`, which the ledger answers
by replacing the pool.  Pool workers run with empty ambient context
stacks, so a request's budget and fault plan reach its shards only as
explicit options — one tenant's fault plan never leaks into another's.

**Ordering.**  Responses resolve in submission order per tenant: each
request chains on the previous one's gate, so a client iterating its
own submissions sees them complete in the order it sent them, while
different tenants never wait on each other (shed responses return
immediately — failing fast *is* the backpressure signal).

**Accounting.**  Every submitted request terminates in exactly one of
``served`` / ``shed`` / ``deadline`` / ``exhausted``; the
``serve_outcomes_total`` counters sum to ``serve_requests_total`` by
construction, and the whole story exports through the existing
Prometheus text format of :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor
from functools import partial
from typing import Dict, Optional, Set, Tuple

from repro.backend import ConformanceTier, backend_tier, resolve_backend_name
from repro.core.tile_matrix import TileMatrix
from repro.errors import (
    DeadlineExceededError,
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    ServiceOverloadError,
    TransientKernelError,
)
from repro.obs.context import current_obs
from repro.obs.propagate import TraceContext, absorb_telemetry, new_trace_id
from repro.obs.slo import SLOPolicy, SLOTracker
from repro.runtime.chunked import (
    RETRY,
    SPLIT,
    ShardLedger,
    _make_pool,
    _shard_task,
    batch_bounds,
    slice_tile_rows,
    stitch_results,
)
from repro.runtime.policy import ParallelPolicy, RetryPolicy, backoff_wait
from repro.runtime.tilecache import get_tile_cache
from repro.serve.admission import AdmissionController
from repro.serve.deadline import CancelToken, Deadline, ShardCancelled
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    OUTCOME_DEADLINE,
    OUTCOME_SERVED,
    OUTCOME_SHED,
    ServeRequest,
    ServeResponse,
    outcome_for,
)

__all__ = ["SpGEMMService", "LATENCY_BUCKETS"]


#: Histogram bounds for ``serve_latency_seconds`` (log-ish spacing from
#: sub-millisecond cache hits to multi-second chunked recoveries).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _exhausted_reason(req: ServeRequest, shard, exc: Exception) -> str:
    """The ``exhausted`` message for a shard error the ledger gave up on."""
    r0, r1, retries = shard
    if isinstance(exc, DeviceOOMError):
        return (
            f"request {req.name}: tile-row shard [{r0}, {r1}) is over budget "
            "and cannot split further"
        )
    if isinstance(exc, TransientKernelError):
        return (
            f"request {req.name}: shard [{r0}, {r1}) "
            f"still failing after {retries} retries"
        )
    if isinstance(exc, BrokenExecutor):
        return f"request {req.name}: worker pool broken (replacements exhausted)"
    return f"request {req.name} failed outside the recovery ladder: {exc}"


class SpGEMMService:
    """Async serving loop over the tiled SpGEMM engines.

    Parameters
    ----------
    max_queue_depth:
        Hard bound of the request queue; requests arriving at the bound
        are shed (or block, for ``backpressure="wait"`` submitters).
    workers:
        Workers in the compute pool (>= 1).
    device:
        Optional :class:`~repro.gpu.device.DeviceModel`; its Table-1
        DRAM capacity becomes the admission budget and the default
        per-request budget unless overridden.
    admission_budget_bytes, admission_headroom:
        The memory gate (see
        :class:`~repro.serve.admission.AdmissionController`).  Budget
        defaults to the device's DRAM capacity; ``None`` with no device
        disables the gate.  Admitted requests reserve their priced
        bytes until their terminal response, and the gate sheds on the
        *aggregate*, so concurrent requests cannot jointly blow the
        budget.
    calibration:
        Optional loaded ``repro.calibration/1`` report; when present,
        admission prices requests from the row-sampled nnz(C) estimate
        (capped at the exact upper bound) instead of the worst-case
        bound alone.
    default_deadline_s, default_budget_bytes:
        Applied to requests that do not carry their own.
    initial_shards:
        Tile-row shards each request starts from (1 = whole multiply;
        OOM re-splits grow it on demand).
    retry_policy:
        A :class:`~repro.runtime.policy.RetryPolicy`; its
        ``max_retries`` and backoff/jitter knobs govern transient-fault
        recovery.  The waits are computed by
        :func:`~repro.runtime.policy.backoff_wait` and **awaited** on
        the event loop, never slept.
    parallel_policy:
        A :class:`~repro.runtime.policy.ParallelPolicy`;
        ``on_worker_failure="raise"`` turns a broken pool into an
        immediate ``exhausted`` outcome instead of pool replacement.
    max_pool_replacements:
        Broken pools replaced per request before giving up.
    max_inflight:
        Requests executing concurrently (default: ``workers``).
    executor:
        ``"thread"`` (default) or ``"process"`` — the kind of compute
        pool.  With ``"process"``, shard spans are still recorded where
        the work ran and shipped back (see :mod:`repro.obs.propagate`);
        ``run_fn`` must then be a module-level (picklable) function.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool
        (e.g. ``get_context("spawn")``).
    slo_policy:
        A :class:`~repro.obs.slo.SLOPolicy`; every terminal response
        updates the tenant's ``slo_attainment`` and
        ``slo_error_budget_burn_rate`` gauges (defaults apply when
        ``None``).
    backend:
        Kernel-backend spec resolved once to a registry name and
        forwarded to every shard.
    sleep:
        Async sleep injectable (default :func:`asyncio.sleep`); tests
        pass a recorder to keep backoff instant.
    clock:
        Monotonic clock injectable for queue/latency/deadline timing.
    run_fn:
        Shard body ``(a_shard, b, opts) -> TileSpGEMMResult`` run on the
        pool; ``None`` runs the engines' own.  Fault-path tests inject
        faulty bodies here.
    """

    def __init__(
        self,
        *,
        max_queue_depth: int = 32,
        workers: int = 2,
        device=None,
        admission_budget_bytes: Optional[int] = None,
        admission_headroom: float = 1.0,
        calibration: Optional[Dict[str, object]] = None,
        default_deadline_s: Optional[float] = None,
        default_budget_bytes: Optional[int] = None,
        initial_shards: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        parallel_policy: Optional[ParallelPolicy] = None,
        max_pool_replacements: int = 1,
        max_inflight: Optional[int] = None,
        executor: str = "thread",
        mp_context=None,
        slo_policy: Optional[SLOPolicy] = None,
        backend=None,
        sleep=None,
        clock=time.monotonic,
        run_fn=None,
    ) -> None:
        if initial_shards < 1:
            raise InvalidInputError(
                f"initial_shards must be >= 1, got {initial_shards}"
            )
        if workers < 1:
            raise InvalidInputError(f"workers must be >= 1, got {workers}")
        if executor not in ("thread", "process"):
            raise InvalidInputError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if admission_budget_bytes is None and device is not None:
            admission_budget_bytes = device.dram_capacity_bytes
        if default_budget_bytes is None and device is not None:
            default_budget_bytes = device.dram_capacity_bytes
        self.device = device
        self._admission = AdmissionController(
            max_queue_depth,
            admission_budget_bytes,
            admission_headroom,
            calibration=calibration,
        )
        self._queue = BoundedRequestQueue(max_queue_depth)
        self._workers = int(workers)
        self._executor = executor
        self._mp_context = mp_context
        self._run_fn = run_fn
        self._pool = _make_pool(self._executor, self._workers, mp_context)
        self._pool_replacements = 0
        self._retry = retry_policy or RetryPolicy()
        self._parallel = parallel_policy or ParallelPolicy()
        self._max_pool_replacements = int(max_pool_replacements)
        self._initial_shards = int(initial_shards)
        self._default_deadline_s = default_deadline_s
        self._default_budget_bytes = default_budget_bytes
        self._backend_name = resolve_backend_name(backend)
        self._backend_tier = backend_tier(self._backend_name)
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._clock = clock
        self._cache = get_tile_cache()
        self._obs = current_obs()
        self.slo = SLOTracker(slo_policy or SLOPolicy(), metrics=self._obs.metrics)

        self._max_inflight = int(max_inflight or workers)
        self._running = False
        self._accepting = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight: Set[asyncio.Task] = set()
        self._sem: Optional[asyncio.Semaphore] = None
        self._tenant_seq: Dict[str, int] = {}
        self._tenant_tail: Dict[str, asyncio.Future] = {}
        self._epoch = 0.0
        self._describe_metrics()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "SpGEMMService":
        """Start the dispatch loop; idempotent."""
        if self._running:
            return self
        self._sem = asyncio.Semaphore(self._max_inflight)
        self._running = True
        self._accepting = True
        self._epoch = time.perf_counter()
        self._dispatcher = asyncio.create_task(
            self._dispatch(), name="repro-serve-dispatch"
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (graceful) refuses new submissions, serves
        everything already queued or running, then shuts the pool down.
        ``drain=False`` sheds the queue (typed ``shutdown`` responses),
        lets in-flight requests finish, and shuts down.
        """
        if not self._running:
            return
        self._accepting = False
        if drain:
            await self._queue.join()
            while self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
        else:
            for req in self._queue.drain():
                self._finish_shed(
                    req,
                    ServiceOverloadError("shutdown", "service stopping"),
                    queued=True,
                )
            while self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._pool.shutdown(wait=True)
        self._running = False

    async def __aenter__(self) -> "SpGEMMService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=not any(exc))

    # ------------------------------------------------------------ submission
    async def submit(
        self,
        a,
        b,
        *,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        budget_bytes: Optional[int] = None,
        fault_plan=None,
        exact: bool = False,
        backpressure: str = "shed",
    ) -> ServeResponse:
        """Submit one multiply; resolves with its terminal response.

        Never raises for the service-level outcomes — shed, deadline
        expiry and exhaustion come back *inside* the response, carrying
        their typed error (``response.result_or_raise()`` re-raises).
        Raises :class:`~repro.errors.InvalidInputError` only for caller
        bugs: malformed operands or a stopped service.

        ``backpressure`` is the submitter's overload contract:
        ``"shed"`` (default) fails fast with a typed shed response when
        the queue is at its bound; ``"wait"`` blocks this coroutine
        until a slot frees — the submitter slows to the service's pace.

        ``exact=True`` declares the submitter needs exact-tier
        (byte-reproducible) values.  A service whose configured backend
        is fast-math sheds such requests at admission with reason
        ``"backend_tier"`` — the conformance guarantee is part of
        admission, never silently downgraded.
        """
        if not self._running or not self._accepting:
            raise InvalidInputError("service is not accepting requests")
        if backpressure not in ("shed", "wait"):
            raise InvalidInputError(
                f"backpressure must be 'shed' or 'wait', got {backpressure!r}"
            )
        a_t = self._cache.tile(a)
        b_t = self._cache.tile(b)
        if a_t.tile_size != b_t.tile_size:
            raise InvalidInputError("A and B must use the same tile size")
        if a_t.shape[1] != b_t.shape[0]:
            raise InvalidInputError(
                f"dimension mismatch: A is {a_t.shape[0]}x{a_t.shape[1]}, "
                f"B is {b_t.shape[0]}x{b_t.shape[1]}"
            )

        seq = self._tenant_seq.get(tenant, 0)
        self._tenant_seq[tenant] = seq + 1
        req = ServeRequest(
            a=a_t,
            b=b_t,
            tenant=tenant,
            seq=seq,
            deadline_s=(
                deadline_s if deadline_s is not None else self._default_deadline_s
            ),
            budget_bytes=(
                budget_bytes
                if budget_bytes is not None
                else self._default_budget_bytes
            ),
            fault_plan=fault_plan,
            exact=exact,
            trace_id=new_trace_id("req"),
            submitted_s=self._clock(),
        )
        metrics = self._obs.metrics
        metrics.inc("serve_requests_total", tenant=tenant)
        self._obs.log.emit(
            "request_submitted",
            trace_id=req.trace_id,
            tenant=tenant,
            seq=seq,
            deadline_s=req.deadline_s,
            budget_bytes=req.budget_bytes,
        )

        # Admission gate 0: the conformance tier.  An exact-mode
        # request against a fast-math service can never be satisfied,
        # so it sheds immediately in either backpressure mode (waiting
        # cannot change the service's backend).
        if req.exact and self._backend_tier is not ConformanceTier.EXACT:
            return self._finish_shed(
                req,
                ServiceOverloadError(
                    "backend_tier",
                    f"request requires exact-tier kernels but the service "
                    f"backend {self._backend_name!r} is declared "
                    f"{self._backend_tier.value!r}",
                ),
                queued=False,
            )

        # Admission gate 1: the memory estimate — this request alone,
        # and the aggregate of everything already admitted (reserved
        # bytes are released at the terminal response).  Waiting cannot
        # shrink an oversized request, so this sheds in either
        # backpressure mode.
        try:
            req.admitted_bytes = self._admission.admit_memory(
                self._admission.price(a_t, b_t)
            )
        except ServiceOverloadError as exc:
            return self._finish_shed(req, exc, queued=False)

        # Admission gate 2: queue depth.
        loop = asyncio.get_running_loop()
        req.done = loop.create_future()
        if backpressure == "wait":
            self._chain_order(req, loop)
            await self._queue.put(req)  # backpressure: blocks the submitter
        else:
            try:
                self._admission.check_depth(self._queue.depth)
            except ServiceOverloadError as exc:
                return self._finish_shed(req, exc, queued=False)
            self._chain_order(req, loop)
            if not self._queue.try_put(req):  # raced to the bound
                return self._finish_shed(
                    req,
                    ServiceOverloadError(
                        "queue_full",
                        f"queue at configured bound {self._queue.bound}",
                    ),
                    queued=False,
                )
        self._note_queue_depth(tenant)
        return await req.done

    def _chain_order(self, req: ServeRequest, loop) -> None:
        req.order_prev = self._tenant_tail.get(req.tenant)
        req.order_gate = loop.create_future()
        self._tenant_tail[req.tenant] = req.order_gate

    # ------------------------------------------------------------ dispatch
    async def _dispatch(self) -> None:
        while True:
            await self._sem.acquire()
            try:
                req = await self._queue.get()
            except asyncio.CancelledError:
                self._sem.release()
                raise
            task = asyncio.create_task(self._handle(req), name=f"serve-{req.name}")
            self._inflight.add(task)
            task.add_done_callback(self._on_handled)

    def _on_handled(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._sem.release()
        if not task.cancelled() and task.exception() is not None:
            # _handle is supposed to be total; surface bugs loudly.
            raise task.exception()

    async def _handle(self, req: ServeRequest) -> None:
        start = self._clock()
        self._note_queue_depth(req.tenant)
        trace_t0 = time.perf_counter() - self._epoch
        self._obs.log.emit(
            "request_dequeued",
            trace_id=req.trace_id,
            tenant=req.tenant,
            seq=req.seq,
            queue_s=start - req.submitted_s,
        )
        ledger = ShardLedger(
            batch_bounds(req.a.num_tile_rows, self._initial_shards),
            max_retries=self._retry.max_retries,
            max_replacements=(
                0
                if self._parallel.on_worker_failure == "raise"
                else self._max_pool_replacements
            ),
        )
        deadline = Deadline(req.deadline_s, clock=self._clock)
        # The deadline clock started at submission, not at dequeue.
        deadline._start = req.submitted_s
        try:
            deadline.check()  # queued past the deadline: no compute at all
            c = await self._execute(req, deadline, ledger)
            outcome, error = OUTCOME_SERVED, None
        except (
            ServiceOverloadError,
            DeadlineExceededError,
            ResilienceExhausted,
        ) as exc:
            outcome, error, c = outcome_for(exc), exc, None
        except Exception as exc:  # engine bug: terminal, typed as exhausted
            wrapped = ResilienceExhausted(
                f"request {req.name} failed outside the recovery ladder: {exc}"
            )
            wrapped.__cause__ = exc
            outcome, error, c = outcome_for(wrapped), wrapped, None
        finally:
            self._release_admitted(req)
            self._queue.task_done()

        now = self._clock()
        resp = ServeResponse(
            tenant=req.tenant,
            seq=req.seq,
            outcome=outcome,
            c=c,
            error=error,
            trace_id=req.trace_id,
            latency_s=now - req.submitted_s,
            queue_s=start - req.submitted_s,
            shards_run=ledger.shards_run,
            resplits=ledger.resplits,
            retries=ledger.retries,
            pool_replacements=ledger.pool_replacements,
        )
        self._record_response(resp, trace_t0)
        await self._deliver(req, resp)

    async def _deliver(self, req: ServeRequest, resp: ServeResponse) -> None:
        """Resolve the response behind the per-tenant ordering gate."""
        try:
            if req.order_prev is not None:
                await req.order_prev
        finally:
            if req.done is not None and not req.done.done():
                req.done.set_result(resp)
            if req.order_gate is not None and not req.order_gate.done():
                req.order_gate.set_result(None)

    # ------------------------------------------------------------ execution
    async def _execute(
        self, req: ServeRequest, deadline: Deadline, ledger: ShardLedger
    ) -> TileMatrix:
        """The shard loop: drive the ledger on the pool, then stitch."""
        a, b = req.a, req.b
        opts = {
            "budget_bytes": req.budget_bytes,
            "fault_plan": req.fault_plan,
            "backend": self._backend_name,
        }
        # The token wraps a threading.Event and cannot cross a process
        # boundary; thread workers check it before a queued shard starts.
        token = CancelToken()
        thread_token = token if self._executor == "thread" else None
        running: Dict[asyncio.Future, Tuple[int, int, int]] = {}
        loop = asyncio.get_running_loop()
        # Shards travel with the request's trace identity; the worker
        # records real spans locally and ships them back with the result
        # (None when tracing and profiling are both off — the worker then
        # skips the harness).  The shard's start tile row rides along so
        # worker-side profiles attribute bands in whole-matrix coordinates.
        ctx_live = bool(getattr(self._obs.tracer, "enabled", False)) or bool(
            getattr(self._obs.profile, "enabled", False)
        )

        try:
            while ledger.pending or running:
                if deadline.expired():
                    raise DeadlineExceededError(
                        deadline.budget_s, deadline.elapsed()
                    )
                while ledger.pending:
                    shard = ledger.take()
                    r0, r1, _ = shard
                    shard_ctx = (
                        TraceContext(
                            req.trace_id,
                            parent_span_id=f"req:{req.trace_id}",
                            row_offset=r0,
                        )
                        if ctx_live
                        else None
                    )
                    call = partial(
                        _shard_task,
                        self._run_fn,
                        slice_tile_rows(a, r0, r1),
                        b,
                        opts,
                        shard_ctx,
                        thread_token,
                    )
                    running[loop.run_in_executor(self._pool, call)] = shard
                done, _ = await asyncio.wait(
                    set(running),
                    timeout=deadline.remaining(),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for fut in done:
                    shard = running.pop(fut)
                    try:
                        res, _, _, _, telemetry = fut.result()
                    except ShardCancelled:
                        continue  # lost the race with a cancellation below
                    except Exception as exc:
                        await self._recover(req, ledger, shard, exc)
                        continue
                    ledger.done(shard, res)
                    # Worker spans join the request's timeline (epoch =
                    # the service's trace zero) and worker counters
                    # accumulate into the live registry — the service
                    # never re-records merged stats itself.
                    absorb_telemetry(
                        self._obs.tracer,
                        telemetry,
                        epoch_s=self._epoch,
                        metrics=self._obs.metrics if telemetry else None,
                        profile=self._obs.profile if telemetry else None,
                        pid="serve.workers",
                    )
        except BaseException:
            # Stop shards still queued on the pool, then collect every
            # in-flight future so no exception goes unretrieved.
            token.set()
            if running:
                await asyncio.gather(*running, return_exceptions=True)
            raise

        self._obs.metrics.inc(
            "serve_shards_total", ledger.shards_run, tenant=req.tenant
        )
        pieces = [res for _, _, res in ledger.pieces()]
        return stitch_results(pieces, a, b, keep_empty_tiles=True).c

    async def _recover(
        self, req: ServeRequest, ledger: ShardLedger, shard, exc: Exception
    ) -> None:
        """Carry out the ledger's decision on a failed shard.

        The ledger requeues the shard (split, retry or replace); this
        adds the serving-side I/O.  When the ledger re-raises, the
        request terminates ``exhausted``.
        """
        r0, r1, retries = shard
        try:
            action = ledger.failed(shard, exc)
        except Exception:
            raise ResilienceExhausted(_exhausted_reason(req, shard, exc)) from exc
        metrics, where = self._obs.metrics, {
            "trace_id": req.trace_id,
            "tenant": req.tenant,
            "seq": req.seq,
            "tile_rows": [r0, r1],
        }
        if action == SPLIT:
            metrics.inc("serve_resplits_total", tenant=req.tenant)
            self._obs.log.emit(
                "shard_oom_resplit",
                requested_bytes=exc.requested_bytes,
                budget_bytes=exc.budget_bytes,
                **where,
            )
        elif action == RETRY:
            wait = backoff_wait(self._retry, retries)
            metrics.inc("serve_retries_total", tenant=req.tenant)
            self._obs.log.emit(
                "shard_retry",
                retry=retries + 1,
                backoff_s=wait,
                error=type(exc).__name__,
                **where,
            )
            await self._sleep(wait)  # awaited, never blocking
        else:  # REPLACE: abandon the broken pool; siblings' shards go too
            old, self._pool = self._pool, _make_pool(
                self._executor, self._workers, self._mp_context
            )
            old.shutdown(wait=False, cancel_futures=True)
            self._pool_replacements += 1
            metrics.inc("serve_pool_replacements_total")
            self._obs.log.emit(
                "pool_replaced", replacement=ledger.pool_replacements, **where
            )

    # ------------------------------------------------------------ accounting
    def _release_admitted(self, req: ServeRequest) -> None:
        """Return the request's admission reservation (idempotent)."""
        if req.admitted_bytes:
            self._admission.release_memory(req.admitted_bytes)
            req.admitted_bytes = 0

    def _finish_shed(
        self, req: ServeRequest, exc: ServiceOverloadError, queued: bool
    ) -> ServeResponse:
        """Terminal shed response (admission or shutdown), delivered
        immediately — failing fast is the backpressure signal."""
        self._release_admitted(req)
        now = self._clock()
        resp = ServeResponse(
            tenant=req.tenant,
            seq=req.seq,
            outcome=OUTCOME_SHED,
            error=exc,
            trace_id=req.trace_id,
            latency_s=now - req.submitted_s,
            queue_s=now - req.submitted_s if queued else 0.0,
        )
        self._obs.metrics.inc(
            "serve_shed_total", tenant=req.tenant, reason=exc.reason
        )
        self._obs.log.emit(
            "request_shed",
            trace_id=req.trace_id,
            tenant=req.tenant,
            seq=req.seq,
            reason=exc.reason,
            queued=queued,
        )
        self._record_response(resp, time.perf_counter() - self._epoch)
        if req.done is not None and not req.done.done():
            req.done.set_result(resp)
        if req.order_gate is not None and not req.order_gate.done():
            req.order_gate.set_result(None)
        return resp

    def _record_response(self, resp: ServeResponse, trace_t0: float) -> None:
        metrics = self._obs.metrics
        metrics.inc(
            "serve_outcomes_total", tenant=resp.tenant, outcome=resp.outcome
        )
        metrics.observe(
            "serve_latency_seconds",
            resp.latency_s,
            buckets=LATENCY_BUCKETS,
            tenant=resp.tenant,
        )
        self.slo.record(resp.tenant, resp.latency_s, resp.ok)
        self._obs.log.emit(
            "request_done",
            trace_id=resp.trace_id,
            tenant=resp.tenant,
            seq=resp.seq,
            outcome=resp.outcome,
            latency_s=resp.latency_s,
            queue_s=resp.queue_s,
            shards_run=resp.shards_run,
            resplits=resp.resplits,
            retries=resp.retries,
            error=type(resp.error).__name__ if resp.error else None,
        )
        if self._obs.enabled:
            self._obs.tracer.add_complete(
                f"request {resp.tenant}#{resp.seq}",
                trace_t0,
                max(resp.latency_s - resp.queue_s, 0.0),
                pid="serve",
                tid=resp.tenant,
                cat="serve.request",
                outcome=resp.outcome,
                queue_s=resp.queue_s,
                shards=resp.shards_run,
                resplits=resp.resplits,
                retries=resp.retries,
                trace_id=resp.trace_id,
                span_id=f"req:{resp.trace_id}",
                parent_span_id="",
            )

    def _note_queue_depth(self, tenant: str) -> None:
        metrics = self._obs.metrics
        metrics.set_gauge("serve_queue_depth", self._queue.depth)
        metrics.set_gauge(
            "serve_queue_depth", self._queue.depth_of(tenant), tenant=tenant
        )
        metrics.max_gauge("serve_queue_high_water", self._queue.high_water)

    def _describe_metrics(self) -> None:
        m = self._obs.metrics
        m.describe("serve_requests_total", "Requests submitted, by tenant")
        m.describe(
            "serve_outcomes_total",
            "Terminal request outcomes (served/shed/deadline/exhausted)",
        )
        m.describe("serve_shed_total", "Requests shed, by tenant and reason")
        m.describe("serve_queue_depth", "Current bounded-queue depth")
        m.describe(
            "serve_queue_high_water", "Highest queue depth observed"
        )
        m.describe(
            "serve_latency_seconds", "Submission-to-response latency"
        )
        m.describe(
            "serve_resplits_total",
            "Shards re-split after blowing their memory budget",
        )
        m.describe("serve_retries_total", "Transient-fault shard retries")
        m.describe(
            "serve_pool_replacements_total",
            "Worker pools replaced after breaking mid-shard",
        )
        m.describe("serve_shards_total", "Shards executed, by tenant")

    # ------------------------------------------------------------ queries
    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def queue_bound(self) -> int:
        return self._queue.bound

    @property
    def queue_high_water(self) -> int:
        return self._queue.high_water

    @property
    def running(self) -> bool:
        return self._running

    def varz(self) -> Dict[str, object]:
        """A JSON-able live status snapshot (the ``/varz`` endpoint body).

        Everything an operator glances at first: lifecycle flags, queue
        state, in-flight count, per-tenant request/outcome counters and
        the SLO report.  Values come straight from the live registry, so
        a mid-run snapshot accounts for every submission so far.
        """
        metrics = self._obs.metrics
        outcomes: Dict[str, Dict[str, float]] = {}
        for labels, value in metrics.counter_samples("serve_outcomes_total"):
            tenant = labels.get("tenant", "")
            outcomes.setdefault(tenant, {})[labels.get("outcome", "")] = value
        requests = {
            labels.get("tenant", ""): value
            for labels, value in metrics.counter_samples("serve_requests_total")
        }
        sheds: Dict[str, float] = {}
        for labels, value in metrics.counter_samples("serve_shed_total"):
            reason = labels.get("reason", "")
            sheds[reason] = sheds.get(reason, 0.0) + value
        out: Dict[str, object] = {
            "running": self._running,
            "accepting": self._accepting,
            "uptime_s": (
                time.perf_counter() - self._epoch if self._running else 0.0
            ),
            "workers": self._workers,
            "executor": self._executor,
            "backend": self._backend_name,
            "backend_tier": self._backend_tier.value,
            "pool_replacements": self._pool_replacements,
            "queue": {
                "depth": self._queue.depth,
                "bound": self._queue.bound,
                "high_water": self._queue.high_water,
            },
            "inflight": len(self._inflight),
            "admission": {
                "budget_bytes": self._admission.budget_bytes,
                "headroom": self._admission.headroom,
                "inflight_bytes": self._admission.inflight_bytes,
                "calibrated": bool(self._admission.calibration),
            },
            "requests_total": requests,
            "outcomes_total": outcomes,
            "sheds_total": sheds,
            "slo": self.slo.report(),
            "tilecache": self._cache.stats(),
        }
        if getattr(self._obs.profile, "enabled", False):
            out["profile"] = self._obs.profile.summary()
        return out
