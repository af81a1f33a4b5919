"""Spans around calls into realpathsim, recorded from the benchmark's side.

Nothing in the package is edited.  ``Tracer.install`` replaces each
traced public function by a wrapper in every realpathsim namespace that
holds it: ``cli`` does ``from .engine import path_probabilities`` and
``lattice`` does ``from .distances import grid_distance_matrix``, so
patching only the defining module would miss those callers.  The sweep
thread pool is traced by swapping ``cli.ThreadPoolExecutor`` for a
subclass that records the pool's lifetime and one span per task.

A span is (name, start, end, parent, thread).  A call made while the
same span name is innermost on the thread (path_probabilities calling
unnormalized_probabilities, d2 "symmetrized" calling d2 "prime") is
part of that span, not a new one.  Engine and distance spans also record
the tracemalloc peak of their interval; tracemalloc runs only while such
a span is open.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MIB = float(1 << 20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs", "mem_base", "mem_peak")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = None
        self.attrs = {}
        self.mem_base = self.mem_peak = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- what is traced -------------------------------------------------------------

def _engine_route(args, kwargs) -> str:
    from realpathsim.distances import DistanceSpec

    distance = kwargs.get("distance", args[1] if len(args) > 1 else None)
    if isinstance(distance, DistanceSpec) and distance.name == "step":
        return "engine.banded"
    return "engine.dense"


def _engine_attrs(args, kwargs, result) -> dict:
    ensembles = args[0] if args else kwargs.get("ensembles", kwargs.get("ensemble"))
    if isinstance(ensembles, (list, tuple)):
        rows = sum(e.n_paths for e in ensembles)
    else:
        rows = ensembles.n_paths
    weights = kwargs.get("weights", args[2] if len(args) > 2 else None)
    if isinstance(weights, np.ndarray):
        weighted = int(np.count_nonzero(weights > 0))
    else:                               # None or a uniform WeightFunction
        weighted = rows
    last = result[-1] if isinstance(result, tuple) else result
    denom = getattr(last, "denom", last)   # a PathDistribution or the denom array
    return {
        "rows": rows,
        "weighted_rows": weighted,
        "zero_denoms": int(np.count_nonzero(denom <= 0)),
        "min_denom": float(np.min(denom)),
    }


def _matrix_attrs(args, kwargs, result) -> dict:
    return {"matrix_mb": result.nbytes / MIB}


def _paths_attrs(args, kwargs, result) -> dict:
    return {"paths": int(result.shape[0])}


# (defining module, function, span name or route function, attrs, memory)
TRACED = (
    ("realpathsim.cli", "main", "cli.main", None, False),
    ("realpathsim.toymodels", "build_model", "toymodels.build", None, False),
    ("realpathsim.toymodels", "build_m1", "toymodels.build", None, False),
    ("realpathsim.toymodels", "build_m2", "toymodels.build", None, False),
    ("realpathsim.toymodels", "build_m3", "toymodels.build", None, False),
    ("realpathsim.engine", "path_probabilities", _engine_route, _engine_attrs, True),
    ("realpathsim.engine", "unnormalized_probabilities", _engine_route, _engine_attrs, True),
    ("realpathsim.engine", "smeared_components", _engine_route, _engine_attrs, True),
    ("realpathsim.engine", "final_state_probabilities", _engine_route, _engine_attrs, True),
    ("realpathsim.distances", "grid_distance_matrix", "distances.grid", _matrix_attrs, True),
    ("realpathsim.lattice", "enumerate_paths", "lattice.enumerate", _paths_attrs, False),
    ("realpathsim.lattice", "two_arm_visibility", "lattice.visibility", None, False),
    ("realpathsim.lattice", "run_lattice_experiment", "lattice.experiment", None, False),
    ("realpathsim.minkowski", "classify", "minkowski.classify", None, False),
    ("realpathsim.minkowski", "d1", "minkowski.d1", None, False),
    ("realpathsim.minkowski", "d2", "minkowski.d2", None, False),
)


class Tracer:
    """Collects spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._mem_open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Span | None = None, memory: bool = False) -> Span:
        stack = self._stack()
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        if memory:
            self._memory_enter(span)
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.mem_base is not None:
            self._memory_exit(span)

    # -- tracemalloc peaks of possibly concurrent spans ------------------------
    # Before every reset of the peak, the peak so far is folded into each
    # open memory span, so each span ends up with the peak of its interval.

    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        for s in self._mem_open:
            s.mem_peak = max(s.mem_peak, peak)
        tracemalloc.reset_peak()

    def _memory_enter(self, span: Span):
        with self._mem_lock:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            else:
                self._fold_peak()
            span.mem_base = span.mem_peak = tracemalloc.get_traced_memory()[0]
            self._mem_open.append(span)

    def _memory_exit(self, span: Span):
        with self._mem_lock:
            self._fold_peak()
            self._mem_open.remove(span)
            span.attrs["peak_alloc_mb"] = (span.mem_peak - span.mem_base) / MIB
            if not self._mem_open:
                tracemalloc.stop()

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name, attrs, memory):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            stack = tracer._stack()
            if stack and stack[-1].name == span_name:
                return fn(*args, **kwargs)
            span = tracer.open(span_name, memory=memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = tracer.open("cli.sweep_pool")
                self._span.attrs["workers"] = self._max_workers

            def submit(self, fn, /, *args, **kwargs):
                pool_span = self._span

                def task(*a, **k):
                    span = tracer.open("cli.sweep_task", parent=pool_span)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(span)

                return super().submit(task, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                if self._span.end is None:
                    tracer.close(self._span)

        return TracedExecutor

    def install(self):
        """Wrap every traced function wherever a realpathsim module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "realpathsim" or n.startswith("realpathsim.")]
        for module_name, func_name, name, attrs, memory in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, name, attrs, memory)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    self._patched.append((module, func_name, original))
        cli = sys.modules["realpathsim.cli"]
        self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._executor_class()

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self) -> list[dict]:
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), "thread": s.thread, "attrs": s.attrs}
            for s in self.spans
        ]


# -- derived per-layer numbers --------------------------------------------------

def self_times(spans: list[Span]) -> dict[Span, float]:
    """Wall time owned by each span, summing to the root span's duration.

    At every instant the leaves (open spans with no open child) share the
    elapsed time equally.  On one thread this is the usual self time,
    duration minus the part covered by child spans; while the sweep pool
    runs two tasks at once, each task's innermost span gets half.
    """
    events = sorted(
        [(s.start, 1, s) for s in spans] + [(s.end, 0, s) for s in spans],
        key=lambda e: (e[0], e[1]),
    )
    own: dict[Span, float] = defaultdict(float)
    open_children: dict[Span, int] = defaultdict(int)
    active: set = set()
    leaves: set = set()
    prev = None
    for t, is_start, span in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        parent = span.parent if span.parent in active else None
        if is_start:
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
            active.add(span)
            leaves.add(span)
        else:
            active.discard(span)
            leaves.discard(span)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "cli.sweep_self_s": ("cli.sweep_pool", "cli.sweep_task"),
    "bench.self_s": ("bench.op",),
    "toymodels.build_s": ("toymodels.build",),
    "engine.banded_s": ("engine.banded",),
    "engine.dense_s": ("engine.dense",),
    "distances.grid_s": ("distances.grid",),
    "lattice.enumerate_s": ("lattice.enumerate",),
    "lattice.visibility_s": ("lattice.visibility",),
    "lattice.experiment_s": ("lattice.experiment",),
    "minkowski.classify_s": ("minkowski.classify",),
    "minkowski.d1_s": ("minkowski.d1",),
    "minkowski.d2_s": ("minkowski.d2",),
}

LAYER_CALLS = {
    "toymodels.build_calls": "toymodels.build",
    "engine.banded_calls": "engine.banded",
    "engine.dense_calls": "engine.dense",
    "distances.grid_calls": "distances.grid",
    "lattice.enumerate_calls": "lattice.enumerate",
    "minkowski.classify_calls": "minkowski.classify",
}


def layer_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer numbers of one traced operation.

    Times are self times (see ``self_times``), so together with
    ``trace.unattributed_s`` they add up to ``trace.op_s``.  A layer the
    operation never calls reads 0 (for engine.min_denom too).
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(own[s] for n in names for s in by_name[n])
    for metric, name in LAYER_CALLS.items():
        out[metric] = len(by_name[name])

    pools, tasks = by_name["cli.sweep_pool"], by_name["cli.sweep_task"]
    capacity = sum(p.attrs["workers"] * p.duration for p in pools)
    out["cli.sweep_busy_share"] = sum(t.duration for t in tasks) / capacity if capacity else 0.0

    engine = by_name["engine.banded"] + by_name["engine.dense"]
    rows = sum(s.attrs.get("rows", 0) for s in engine)
    out["engine.rows"] = rows
    out["engine.weighted_row_share"] = (
        sum(s.attrs.get("weighted_rows", 0) for s in engine) / rows if rows else 0.0
    )
    out["engine.zero_denoms"] = sum(s.attrs.get("zero_denoms", 0) for s in engine)
    out["engine.min_denom"] = min((s.attrs["min_denom"] for s in engine if "min_denom" in s.attrs),
                                  default=0.0)
    out["engine.peak_alloc_mb"] = max((s.attrs.get("peak_alloc_mb", 0.0) for s in engine), default=0.0)

    grids = by_name["distances.grid"]
    out["distances.matrix_mb"] = max((s.attrs.get("matrix_mb", 0.0) for s in grids), default=0.0)
    out["distances.peak_alloc_mb"] = max((s.attrs.get("peak_alloc_mb", 0.0) for s in grids), default=0.0)
    out["lattice.paths"] = max((s.attrs.get("paths", 0) for s in by_name["lattice.enumerate"]), default=0)

    out["trace.op_s"] = root.duration
    out["trace.unattributed_s"] = root.duration - sum(own.values())
    return out
