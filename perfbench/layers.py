"""Span tracing around the program's layer boundaries, from outside it.

The traced run wraps public functions of the program where their callers
look them up (module globals, class attributes), records one span per
call in memory, and writes the spans out once as Chrome trace-event
JSON.  The program itself is not edited.  Only thread pools are traced:
a patch does not cross a ``spawn`` boundary, and every workload of the
benchmark runs its pools as threads.

Self time follows the metrics guide: a span's self time is its duration
minus the part of that interval its child spans cover.  When several
spans are exposed at once (two pool threads each inside a step), each
gets an equal share of that instant, so the self times of all spans in a
window add up to the part of the window some span covers.  The rest of
the window is time no traced layer was running (the harness, or waiting).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The five kernels of the ``KernelSet`` contract.
KERNELS = ("mask_or_into", "popcount", "prefix_popcount", "nth_set_bit", "scatter_add_into")

#: (owner, attribute, span name).  An owner is a module path or
#: ``module:Class``; each entry is the place a caller looks the function up.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.tile_matrix:TileMatrix", "from_csr", "tile_matrix.from_csr"),
    ("repro.runtime.tilecache:TileCache", "tile", "tilecache.tile"),
    ("repro.analysis.estimate", "estimate_multiply", "estimate.estimate_multiply"),
    ("repro.runtime.planner", "estimate_multiply", "estimate.estimate_multiply"),
    ("repro.runtime.planner", "plan_execution", "planner.plan_execution"),
    ("repro.runtime.parallel", "parallel_tile_spgemm", "parallel.parallel_tile_spgemm"),
    ("repro.runtime.parallel", "slice_tile_rows", "parallel.slice_tile_rows"),
    ("repro.runtime.parallel", "stitch_results", "parallel.stitch_results"),
    ("repro.runtime.parallel", "chunked_tile_spgemm", "chunked.chunked_tile_spgemm"),
    ("repro.runtime.parallel", "tile_spgemm", "core.tile_spgemm"),
    ("repro.runtime.chunked", "slice_tile_rows", "parallel.slice_tile_rows"),
    ("repro.runtime.chunked", "stitch_results", "parallel.stitch_results"),
    ("repro.runtime.chunked", "tile_spgemm", "core.tile_spgemm"),
    ("repro.core.tilespgemm", "tile_spgemm", "core.tile_spgemm"),
    ("repro.core.tilespgemm", "step1_tile_layout", "core.step1"),
    ("repro.core.tilespgemm", "enumerate_pairs_expand", "core.step2_pairs"),
    ("repro.core.tilespgemm", "step2_symbolic", "core.step2_symbolic"),
    ("repro.core.tilespgemm", "step3_numeric", "core.step3"),
    ("repro.core.tilespgemm", "collect_stats", "core.collect_stats"),
    ("repro.serve.admission:AdmissionController", "price", "serve.admission_price"),
    ("repro.serve.service", "slice_tile_rows", "parallel.slice_tile_rows"),
    ("repro.serve.service", "stitch_results", "parallel.stitch_results"),
) + tuple(
    ("repro.backend.numpy_backend:NumpyKernelSet", k, f"backend.{k}") for k in KERNELS
)

#: The span whose pool threads adopt it as their parent.
POOL_SPAN = "parallel.parallel_tile_spgemm"

#: Span name -> callback ``(tracer, args, kwargs, result)`` recording counts.
Recorder = Callable[["Tracer", tuple, dict, object], None]


def _record_tile_spgemm(tracer, args, kwargs, res):
    st = res.stats
    tracer.count("core.products", int(st["num_products"]))
    tracer.count("core.tile_pairs", int(st["pairs_per_tile"].sum()))
    tracer.count("core.c_tiles", int(st["num_c_tiles"]))
    tracer.count("core.dense_tiles", int(st["dense_tiles"]))
    tracer.count("core.nnz_c", int(st["nnz_c"]))


def operand_key(m) -> tuple:
    """Identifies an operand across CSR/tiled forms and cache re-tiling."""
    return (tuple(m.shape), int(m.nnz), float(m.val[:16].sum()))


def _record_estimate(tracer, args, kwargs, est):
    key = (operand_key(args[0]), operand_key(args[1]))
    tracer.estimates.append((key, int(est.products), float(est.est_nnz_c)))


def _record_plan(tracer, args, kwargs, plan):
    tracer.count("planner.calls", 1)
    tracer.count("planner.workers", int(plan.workers))
    tracer.count("planner.shards", int(plan.shards))


def _record_scatter_bytes(tracer, args, kwargs, _):
    # Computed, not measured: positions and weights read once; the
    # bincount buffer written and read, ``out`` read and written.
    out, positions, weights = args[1], args[2], args[3]
    tracer.count(
        "backend.scatter_add_into_bytes",
        int(positions.nbytes + weights.nbytes + 4 * out.nbytes),
    )


RECORDERS: Dict[str, Recorder] = {
    "core.tile_spgemm": _record_tile_spgemm,
    "estimate.estimate_multiply": _record_estimate,
    "planner.plan_execution": _record_plan,
    "backend.scatter_add_into": _record_scatter_bytes,
}


class Tracer:
    """In-memory span recorder installed by patching the program's entry points.

    ``install()`` / ``uninstall()`` swap the wrappers in and out, so the
    untraced rounds of a traced run execute the program's own functions.
    """

    def __init__(self) -> None:
        #: ``(id, parent, name, t0, t1, thread)``; times from ``perf_counter``.
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.estimates: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._pool_parent: Optional[int] = None
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def reset_counts(self) -> None:
        """Forget counts and estimates (spans are kept, and filtered by time)."""
        with self._lock:
            self.counts.clear()
            self.estimates.clear()

    def count(self, name: str, value: float) -> None:
        with self._lock:  # pool threads record concurrently
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        recorder = RECORDERS.get(name)
        is_pool = name == POOL_SPAN

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main:
                parent = tracer._pool_parent
            else:
                parent = None
            stack.append(sid)
            if is_pool:
                tracer._pool_parent = sid
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_pool:
                    tracer._pool_parent = None
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
            if recorder is not None:
                recorder(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        if self._saved:
            return
        for owner_path, attr, name in PATCHES:
            mod_path, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_path)
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ analysis
    def spans_between(self, t0: float, t1: float) -> List[tuple]:
        """Spans that start inside ``[t0, t1)``."""
        return [s for s in self.spans if t0 <= s[3] < t1]

    def write_chrome(self, path, epoch: float) -> None:
        """All spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (t0 - epoch) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, name, t0, t1, tid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _merge(intervals: Sequence[Tuple[float, float]]) -> List[List[float]]:
    out: List[List[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _subtract(t0: float, t1: float, covered: List[List[float]]) -> List[Tuple[float, float]]:
    out, cur = [], t0
    for a, b in covered:
        if b <= cur:
            continue
        if a >= t1:
            break
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < t1:
        out.append((cur, t1))
    return out


def self_times(spans: Sequence[tuple], windows: Sequence[Tuple[float, float]]) -> Tuple[Dict[str, float], float]:
    """Concurrency-shared self time per span name, inside ``windows``.

    Returns ``(self_s by name, window wall seconds)``.  At each instant
    the exposed spans (open, with no open child) share that instant
    equally; parts of the windows with no exposed span are not
    attributed to any name.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    events: List[Tuple[float, int, str]] = []
    for sid, _, name, t0, t1, _ in spans:
        for a, b in _subtract(t0, t1, _merge(children.get(sid, ()))):
            events.append((a, 1, name))
            events.append((b, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    win = _merge(windows)
    wall = sum(b - a for a, b in win)

    cursor = 0

    def inside(a: float, b: float) -> float:
        # Calls come in time order, so windows ending before ``a`` are done.
        nonlocal cursor
        while cursor < len(win) and win[cursor][1] <= a:
            cursor += 1
        covered, j = 0.0, cursor
        while j < len(win) and win[j][0] < b:
            covered += min(b, win[j][1]) - max(a, win[j][0])
            j += 1
        return covered

    out: Dict[str, float] = defaultdict(float)
    active: Dict[str, int] = defaultdict(int)
    total, last = 0, None
    for t, delta, name in events:
        if total and last is not None and t > last:
            share = inside(last, t) / total
            if share:
                for n, k in active.items():
                    if k:
                        out[n] += share * k
        active[name] += delta
        total += delta
        last = t
    return dict(out), wall
