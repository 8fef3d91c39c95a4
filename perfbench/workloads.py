"""The benchmark's workloads: planned batch multiplies and an open-loop service.

Each runner returns a :class:`Run`: the operations attempted (with their
due, start and end times and whether the result was correct), the set-up
times, and, for a traced run, the tracer.
The harness in ``run.py`` turns a ``Run`` into metrics.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import oracle


@dataclass
class Op:
    """One operation: a planned multiply, or one served request."""

    due: float
    start: float
    end: float
    products: int
    ok: bool
    traced: bool = False
    service_s: float = 0.0
    queue_s: float = 0.0
    outcome: str = "served"
    retries: int = 0
    resplits: int = 0


@dataclass
class Run:
    ops: List[Op] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    #: Warm-up results, checked like ``ops`` but not timed.
    side_checked: int = 0
    side_failed: int = 0
    rounds: List[Tuple[float, bool]] = field(default_factory=list)  # (seconds, traced)
    tracer: Optional[layers.Tracer] = None
    setup_spans: List[tuple] = field(default_factory=list)
    floor_scipy_s: float = 0.0
    floor_ratio: float = 0.0
    truth: Dict[tuple, Tuple[int, int]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


def settle() -> None:
    """Collect and freeze the set-up heap before timing.

    Without this, whether a full collection of the set-up objects (the
    references, the imported modules) lands inside the timed window
    varies from run to run, and one such pause moves the latency tail.
    """
    gc.collect()
    gc.freeze()


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def build_named(spec: Dict, seed: int):
    """A named suite matrix: its structure is its identity, so ``seed``
    draws only the values (seed 0 keeps the suite's values exactly)."""
    from repro.formats.coo import COOMatrix
    from repro.matrices import generators

    make = getattr(generators, spec["generator"])
    coo = make(*spec["args"], **spec["kwargs"], seed=int(spec["seed"]))
    if seed:
        rng = np.random.default_rng([int(spec["seed"]), int(seed)])
        coo = COOMatrix(coo.shape, coo.row, coo.col, rng.uniform(0.5, 1.5, size=coo.val.size))
    return coo.to_csr()


# ----------------------------------------------------------------------
# Batch: planned multiplies from one closed-loop caller
# ----------------------------------------------------------------------
def run_batch(cfg: Dict, seed: int, seconds: float, trace: bool) -> Run:
    from repro.core.tile_matrix import TileMatrix
    from repro.runtime import parallel, planner

    square = cfg["operation"] == "A @ A"
    csrs = []
    for spec in cfg["operands"]:
        a = build_named(spec, seed)
        csrs.append((a, a if square else a.transpose()))

    def tile_all():
        out = []
        for a, b in csrs:
            at = TileMatrix.from_csr(a)
            out.append((at, at if square else TileMatrix.from_csr(b)))
        return out

    # The reference uses the plan's tnnz: a planned run is byte-identical
    # to a serial run with the same accumulator threshold.
    run = Run()
    refs, products, ref_s, scipy_s = [], [], 0.0, 0.0
    for (a_csr, b_csr), (a, b) in zip(csrs, tile_all()):
        ref, secs = oracle.reference(a, b, tnnz=planner.plan_execution(a, b).tnnz)
        scipy_s += oracle.check_against_scipy(ref.c, a_csr, b_csr)
        ref_s += secs
        refs.append(ref.c)
        products.append(int(ref.stats["num_products"]))
        run.truth[(layers.operand_key(a), layers.operand_key(b))] = oracle.products_and_nnz(ref)
        del ref
    run.floor_scipy_s, run.floor_ratio = scipy_s, ref_s / scipy_s

    tracer = layers.Tracer() if trace else None
    run.tracer = tracer

    def multiply(a, b):
        return parallel.parallel_tile_spgemm(a, b, plan=planner.plan_execution(a, b))

    operands = None
    for _ in range(int(cfg["setup_reps"])):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        operands = tile_all()
        setup_s = time.perf_counter() - t0
        for (a, b), ref in zip(operands, refs):
            t1 = time.perf_counter()
            warm = multiply(a, b)
            setup_s += time.perf_counter() - t1
            run.side_checked += 1
            run.side_failed += not oracle.same_bytes(warm.c, ref)
            del warm
        run.setup_times.append(setup_s)
        if tracer is not None:
            tracer.uninstall()
            run.setup_spans = tracer.spans_between(t0, time.perf_counter())

    if tracer is not None:
        tracer.reset_counts()
    settle()
    reset_peak_rss()
    run.extra["timed_t0"] = time.perf_counter()
    t_end = run.extra["timed_t0"] + seconds
    k = 0
    while time.perf_counter() < t_end:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        round_s = 0.0
        for (a, b), ref, prods in zip(operands, refs, products):
            due = time.perf_counter()
            try:
                res = multiply(a, b)
                end = time.perf_counter()
                ok = oracle.same_bytes(res.c, ref)
                del res
            except Exception as exc:  # counted as a failure, never dropped
                end = time.perf_counter()
                ok = False
                print(f"# op failed: {type(exc).__name__}: {exc}", flush=True)
            run.ops.append(Op(due, due, end, prods, ok, traced))
            round_s += end - due
        if traced:
            tracer.uninstall()
        run.rounds.append((round_s, traced))
        k += 1
    run.extra["peak_rss_mb"] = peak_rss_mb()
    return run


# ----------------------------------------------------------------------
# Serve: an open loop into SpGEMMService
# ----------------------------------------------------------------------
def serve_pool(cfg: Dict, seed: int):
    """Small random matrices, ``per_size`` of each size; structure and values from ``seed``."""
    from repro.matrices import generators

    pool_cfg = cfg["pool"]
    make = getattr(generators, pool_cfg["generator"])
    pool, k = [], 0
    for n in pool_cfg["sizes"]:
        group = []
        for _ in range(int(pool_cfg["per_size"])):
            s = int(pool_cfg["seed"]) + k + int(pool_cfg["seed_stride"]) * int(seed)
            group.append(make(n, pool_cfg["nnz_per_row"], seed=s).to_csr())
            k += 1
        pool.append(group)
    return pool


def run_serve(cfg: Dict, seed: int, seconds: float, trace: bool) -> Run:
    return asyncio.run(_run_serve(cfg, seed, seconds, trace))


async def _run_serve(cfg: Dict, seed: int, seconds: float, trace: bool) -> Run:
    from repro.core.tile_matrix import TileMatrix
    from repro.runtime.tilecache import get_tile_cache, reset_tile_cache
    from repro.serve import SpGEMMService

    run = Run()
    pool = serve_pool(cfg, seed)
    pairs = [
        (g, i, j)
        for g, group in enumerate(pool)
        for i in range(len(group))
        for j in range(len(group))
    ]
    refs: Dict[Tuple[int, int, int], object] = {}
    prods: Dict[Tuple[int, int, int], int] = {}
    ref_s, scipy_s = [], []
    for g, i, j in pairs:
        a_csr, b_csr = pool[g][i], pool[g][j]
        a, b = TileMatrix.from_csr(a_csr), TileMatrix.from_csr(b_csr)
        ref, secs = oracle.reference(a, b)
        scipy_s.append(oracle.check_against_scipy(ref.c, a_csr, b_csr))
        ref_s.append(secs)
        refs[(g, i, j)] = ref.c
        prods[(g, i, j)] = int(ref.stats["num_products"])
        run.truth[(layers.operand_key(a), layers.operand_key(b))] = oracle.products_and_nnz(ref)
    run.floor_scipy_s = statistics.fmean(scipy_s)
    run.floor_ratio = sum(ref_s) / sum(scipy_s)

    tracer = layers.Tracer() if trace else None
    run.tracer = tracer
    workers = int(cfg["workers"])
    service = None
    for _ in range(int(cfg["setup_reps"])):
        if service is not None:
            await service.stop()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        reset_tile_cache()
        service = SpGEMMService(workers=workers, executor="thread", clock=time.perf_counter)
        await service.start()
        # Warm up with concurrent requests, so every pool thread (and its
        # allocator arena) exists before timing starts.
        warm = []
        for n in range(0, len(pairs), 2 * workers):
            warm += await asyncio.gather(*(
                service.submit(pool[g][i], pool[g][j], tenant=f"t{k % 2}")
                for k, (g, i, j) in enumerate(pairs[n:n + 2 * workers], start=n)
            ))
        run.setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            run.setup_spans = tracer.spans_between(t0, time.perf_counter())
        run.side_checked += len(warm)
        run.side_failed += sum(
            not (r.ok and oracle.same_bytes(r.c, refs[key])) for r, key in zip(warm, pairs)
        )
        del warm

    # The request sequence: a size class, then two of its matrices, drawn
    # from the seed; tenants alternate.
    rng = np.random.default_rng(seed)
    rate = float(cfg["rate_rps"])
    count = max(1, int(round(seconds * rate)))
    per = int(cfg["pool"]["per_size"])
    picks = list(zip(
        rng.integers(0, len(pool), count).tolist(),
        rng.integers(0, per, count).tolist(),
        rng.integers(0, per, count).tolist(),
    ))
    # A traced run alternates untraced and traced blocks of requests, so
    # the tracing overhead is measured under the same drift of the machine.
    block = int(cfg["trace_block"])
    lags: List[float] = []
    hits = misses = 0
    traced_s = 0.0

    def in_traced_block(n: int) -> bool:
        return tracer is not None and (n // block) % 2 == 1

    async def one(n: int, due: float, sent: float, key) -> None:
        g, i, j = key
        traced = in_traced_block(n)
        try:
            resp = await service.submit(pool[g][i], pool[g][j], tenant=f"t{n % 2}")
            end = time.perf_counter()
            ok = resp.ok and oracle.same_bytes(resp.c, refs[key])
            run.ops.append(Op(
                due, sent, end, prods[key], ok, traced,
                service_s=resp.latency_s - resp.queue_s, queue_s=resp.queue_s,
                outcome=resp.outcome, retries=resp.retries, resplits=resp.resplits,
            ))
        except Exception as exc:  # counted as a failure, never dropped
            print(f"# request failed: {type(exc).__name__}: {exc}", flush=True)
            run.ops.append(Op(due, sent, float("inf"), prods[key], False, traced, outcome="error"))

    if tracer is not None:
        tracer.reset_counts()
    settle()
    reset_peak_rss()
    tasks = []
    t_start = time.perf_counter() + 0.01
    run.extra["timed_t0"] = t_start
    for n, key in enumerate(picks):
        due = t_start + n / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if tracer is not None and n % block == 0:
            now, stats = time.perf_counter(), get_tile_cache().stats()
            if in_traced_block(n):
                tracer.install()
                block_t0, before = now, stats
            elif n:
                tracer.uninstall()
                traced_s += now - block_t0
                hits += stats["hits"] - before["hits"]
                misses += stats["misses"] - before["misses"]
        sent = time.perf_counter()
        lags.append(sent - due)
        tasks.append(asyncio.create_task(one(n, due, sent, key)))
    _, pending = await asyncio.wait(tasks, timeout=float(cfg["drain_timeout_s"]))
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for _ in pending:  # cancelled before a response: failed, never dropped
        run.ops.append(Op(0.0, 0.0, float("inf"), 0, False, False, outcome="timeout"))
    if tracer is not None:
        if tracer.installed:
            tracer.uninstall()
            stats = get_tile_cache().stats()
            traced_s += time.perf_counter() - block_t0
            hits += stats["hits"] - before["hits"]
            misses += stats["misses"] - before["misses"]
        run.extra["tilecache_hit_frac"] = hits / max(hits + misses, 1)
        run.extra["traced_s"] = traced_s
    run.extra["send_lag_p99_s"] = nearest_rank(lags, 99)
    run.extra["queue_high_water"] = float(service.queue_high_water)
    run.extra["workers"] = float(workers)
    run.extra["peak_rss_mb"] = peak_rss_mb()

    await service.stop()
    return run


def nearest_rank(values, pct: float) -> float:
    """The ``ceil(pct/100 * N)``-th smallest value (inf-safe, no interpolation)."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    rank = max(1, int(np.ceil(pct / 100.0 * len(vals))))
    return float(vals[rank - 1])
