"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload a2-fem --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with no tracing and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds (halves, on the
service) and prints the per-layer metrics, and writes the spans as Chrome
trace-event JSON under ``.perfbench_out/``.  Workloads, operands, rates
and limits are in ``perfbench/config.json``; the reasons for each
workload are in ``BENCHMARK.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload, each in its own process, and prints each one's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Ambient settings that would change what the program runs; the
#: benchmark clears them so every run measures the same configuration.
AMBIENT = ("REPRO_WORKERS", "REPRO_EXECUTOR", "REPRO_BACKEND", "REPRO_BENCH_MAX_MATRICES")

#: At most nproc compute threads: the program's own pools, not BLAS's.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    cleared = [k for k in AMBIENT if os.environ.pop(k, None) is not None]
    for k in THREAD_CAPS:
        os.environ[k] = "1"
    return {"cleared": cleared}


def describe_environment(pinned: dict) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "cleared_env": pinned["cleared"],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run, cfg: dict) -> dict:
    from workloads import nearest_rank

    ops = run.ops
    limit = float(cfg["latency_limit_s"])
    ok = [op for op in ops if op.ok]
    lat = [op.end - op.due if op.ok else float("inf") for op in ops]
    if cfg["kind"] == "batch":
        timed = sum(op.end - op.start for op in ops)
        rounds = [s for s, _ in run.rounds]
    else:
        timed = max(op.end for op in ok) - min(op.due for op in ops)
        rounds = [op.service_s for op in ok]
    return {
        "setup_s": metric(statistics.median(run.setup_times), "s"),
        "gflops": metric(2.0 * sum(op.products for op in ok) / timed / 1e9, "GFlop/s"),
        "round_p50_s": metric(statistics.median(rounds), "s"),
        "latency_p50_s": metric(nearest_rank(lat, 50), "s"),
        "within_limit_frac": metric(sum(x <= limit for x in lat) / len(ops), "frac"),
        "correct_frac": metric(len(ok) / len(ops), "frac"),
        "peak_rss_mb": metric(run.extra["peak_rss_mb"], "MB"),
    }


def per_layer(run, cfg: dict) -> dict:
    import layers
    from workloads import nearest_rank

    tracer = run.tracer
    traced_ops = [op for op in run.ops if op.traced]
    if cfg["kind"] == "batch":
        units = max(1, sum(1 for _, t in run.rounds if t))
        windows = [(op.start, op.end) for op in traced_ops]
        plain = [s for s, t in run.rounds if not t]
        traced = [s for s, t in run.rounds if t]
    else:
        # A request's window runs from its due time to its response, so
        # submit-side work and queueing fall inside it.
        units = max(1, len(traced_ops))
        windows = [(op.due, op.end) for op in traced_ops if op.ok]
        plain = [op.end - op.due for op in run.ops if op.ok and not op.traced]
        traced = [op.end - op.due for op in traced_ops if op.ok]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    t0 = run.extra["timed_t0"]
    spans = [s for s in tracer.spans if s[3] >= t0]
    self_s, wall = layers.self_times(spans, windows)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def per_unit(x: float) -> float:
        return x / units

    def self_of(name: str) -> float:
        return per_unit(self_s.get(name, 0.0))

    counts = tracer.counts
    setup_from_csr = sum(s[4] - s[3] for s in run.setup_spans if s[2] == "tile_matrix.from_csr")
    m = {
        "tile_matrix.from_csr_s": metric(setup_from_csr, "s"),
        "tile_matrix.from_csr_op_s": metric(self_of("tile_matrix.from_csr"), "s"),
        "tilecache.tile_s": metric(self_of("tilecache.tile"), "s"),
        "tilecache.hit_frac": metric(run.extra.get("tilecache_hit_frac", 0.0), "frac"),
        "estimate.estimate_multiply_s": metric(self_of("estimate.estimate_multiply"), "s"),
        "planner.plan_execution_s": metric(self_of("planner.plan_execution"), "s"),
        "parallel.self_s": metric(self_of("parallel.parallel_tile_spgemm"), "s"),
        "chunked.self_s": metric(self_of("chunked.chunked_tile_spgemm"), "s"),
        "parallel.slice_tile_rows_s": metric(self_of("parallel.slice_tile_rows"), "s"),
        "parallel.stitch_results_s": metric(self_of("parallel.stitch_results"), "s"),
        "core.tile_spgemm_self_s": metric(self_of("core.tile_spgemm"), "s"),
        "core.step1_s": metric(self_of("core.step1"), "s"),
        "core.step2_pairs_s": metric(self_of("core.step2_pairs"), "s"),
        "core.step2_symbolic_s": metric(self_of("core.step2_symbolic"), "s"),
        "core.step3_s": metric(self_of("core.step3"), "s"),
        "core.collect_stats_s": metric(self_of("core.collect_stats"), "s"),
        "serve.admission_price_s": metric(self_of("serve.admission_price"), "s"),
    }
    for k in layers.KERNELS:
        m[f"backend.{k}_s"] = metric(self_of(f"backend.{k}"), "s")
        m[f"backend.{k}_calls"] = metric(per_unit(len(by_name.get(f"backend.{k}", ()))), "count")
    m["backend.scatter_add_into_bytes"] = metric(
        per_unit(counts.get("backend.scatter_add_into_bytes", 0.0)), "B"
    )

    # Planner decisions and estimate accuracy.
    plans = counts.get("planner.calls", 0.0)
    m["planner.workers"] = metric(counts.get("planner.workers", 0.0) / max(plans, 1.0), "count")
    m["planner.shards"] = metric(counts.get("planner.shards", 0.0) / max(plans, 1.0), "count")
    prod_err, nnz_err = [], []
    for key, est_products, est_nnz in tracer.estimates:
        products, nnz_c = run.truth[key]
        prod_err.append(abs(est_products - products) / max(products, 1))
        nnz_err.append(abs(est_nnz - nnz_c) / max(nnz_c, 1))
    m["estimate.products_rel_err"] = metric(statistics.fmean(prod_err) if prod_err else 0.0, "frac")
    m["estimate.nnz_c_rel_err"] = metric(statistics.fmean(nnz_err) if nnz_err else 0.0, "frac")

    # Shards of the pool: busy time and the imbalance between threads.
    pool_ids = {s[0] for s in by_name.get("parallel.parallel_tile_spgemm", ())}
    busy, per_call = 0.0, {}
    for s in by_name.get("core.tile_spgemm", ()):
        if s[1] in pool_ids:
            busy += s[4] - s[3]
            threads = per_call.setdefault(s[1], {})
            threads[s[5]] = threads.get(s[5], 0.0) + s[4] - s[3]
    imbalance = [max(t.values()) / statistics.fmean(t.values()) for t in per_call.values()]
    m["parallel.shard_busy_s"] = metric(per_unit(busy), "s")
    m["parallel.shard_imbalance"] = metric(statistics.fmean(imbalance) if imbalance else 0.0, "ratio")

    # Core counts: summed over every tile_spgemm call (shards add up).
    products = counts.get("core.products", 0.0)
    pairs = counts.get("core.tile_pairs", 0.0)
    for name in ("products", "tile_pairs", "c_tiles", "dense_tiles", "nnz_c"):
        m[f"core.{name}"] = metric(per_unit(counts.get(f"core.{name}", 0.0)), "count")
    m["core.dense_ratio"] = metric(products / (pairs * 16**3) if pairs else 0.0, "ratio")
    m["core.products_per_pair"] = metric(products / pairs if pairs else 0.0, "ratio")

    # Serving tier, from the program's own response records.
    serve_ops = traced_ops if cfg["kind"] == "serve" else []
    queue = [op.queue_s for op in serve_ops if op.ok]
    shards_busy = sum(s[4] - s[3] for s in by_name.get("core.tile_spgemm", ()))
    capacity_s = run.extra.get("workers", 0.0) * run.extra.get("traced_s", 0.0)
    m["serve.queue_wait_p50_s"] = metric(nearest_rank(queue, 50) if queue else 0.0, "s")
    m["serve.queue_wait_p99_s"] = metric(nearest_rank(queue, 99) if queue else 0.0, "s")
    m["serve.compute_busy_frac"] = metric(shards_busy / capacity_s if capacity_s else 0.0, "frac")
    m["serve.queue_high_water"] = metric(run.extra.get("queue_high_water", 0.0), "count")
    m["serve.shed"] = metric(sum(op.outcome == "shed" for op in run.ops), "count")
    m["serve.retries"] = metric(sum(op.retries for op in run.ops), "count")
    m["serve.resplits"] = metric(sum(op.resplits for op in run.ops), "count")
    m["serve.send_lag_p99_s"] = metric(run.extra.get("send_lag_p99_s", 0.0), "s")
    lat = [op.end - op.due if op.ok else float("inf") for op in run.ops] if serve_ops else []
    m["serve.latency_p95_s"] = metric(nearest_rank(lat, 95) if lat else 0.0, "s")
    m["serve.latency_p99_s"] = metric(nearest_rank(lat, 99) if lat else 0.0, "s")

    m["floor.scipy_s"] = metric(run.floor_scipy_s, "s")
    m["floor.scipy_ratio"] = metric(run.floor_ratio, "ratio")

    attributed = sum(self_s.values())
    m["trace.overhead_frac"] = metric(overhead, "frac")
    m["trace.unattributed_frac"] = metric(1.0 - attributed / wall if wall else 0.0, "frac")
    m["trace.spans"] = metric(per_unit(len(spans)), "count")
    return m


def run_all(config: dict, args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in config["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, value in res["metrics"].items():
            print(f"{name:14s} {key:32s} {value['value']:.6g} {value['unit']}")
            total["metrics"][f"{name}.{key}"] = value
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = pin_environment()
    config = json.loads((HERE / "config.json").read_text())
    if args.workload == "all":
        return run_all(config, args)
    cfg = config["workloads"].get(args.workload)
    if cfg is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(config['workloads'])}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"program sources not found under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))

    import oracle
    import workloads

    env = describe_environment(pinned)
    runner = workloads.run_batch if cfg["kind"] == "batch" else workloads.run_serve
    try:
        run = runner(cfg, args.seed, args.seconds, bool(args.trace))
    except oracle.OracleError as exc:
        print(f"reference check failed: {exc}", file=sys.stderr)
        return 4

    metrics = per_layer(run, cfg) if args.trace else end_to_end(run, cfg)
    attempted = len(run.ops) + run.side_checked
    failed = sum(not op.ok for op in run.ops) + run.side_failed
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        epoch = min((s[3] for s in run.tracer.spans), default=0.0)
        run.tracer.write_chrome(out_dir / f"{stem}.trace.json", epoch)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "operations": attempted,
        "rounds": len(run.rounds),
        "setup_times_s": run.setup_times,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("# env " + json.dumps(env))
    print(f"# {attempted} operations, {len(run.rounds)} rounds, setups {run.setup_times}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
