"""Per-layer spans and counters for distmirror, recorded from outside it.

``Tracer.install`` wraps each layer's public functions in *every* distmirror
module namespace that holds them.  A function bound with ``from .x import y``
lives in several namespaces (``recovery.delaunay_triangulate``,
``sim.delaunay_triangulate``, ``cli.delaunay_triangulate``, ...); patching only
the defining module would miss the calls made through the others.

Spans are kept in memory and reduced to metrics when the run ends:

* a layer's ``wall_s`` is the union of its span intervals across threads;
* its ``busy_s`` is the sum of its spans' self times, a span's self time being
  its duration minus the time its child spans on the same thread cover.

Pool threads: the wrapped ``map_deterministic`` opens one item span per item
on whichever thread runs it, charged to the layer that called the map.  Span
stacks are per thread, so a pooled item span has no parent and is never
subtracted from its caller; the caller's wait is the self time of the
``parallel`` span around the map.  Without this, a caller such as
``distance_matrix`` would show all of its wall time as self time.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Layer charged with time spent outside every wrapped function.
OP = "op"
QUERIES = ("locate", "interpolate", "hull_boundary_distance")


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end: float | None = None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._keys: dict[int, tuple[object, bytes]] = {}
        self._op_pairs: set = set()
        self._op_points: set = set()
        self._op_span: Span | None = None

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def _count(self, **amounts) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    def _content_key(self, array) -> bytes:
        """Digest of an array's bytes, cached for the operation by identity.

        The cache holds a reference to each array, so an id cannot be reused
        by a new array while its entry is alive.
        """
        hit = self._keys.get(id(array))
        if hit is None:
            digest = hashlib.blake2b(array.tobytes(), digest_size=16)
            digest.update(repr(array.shape).encode())
            hit = self._keys[id(array)] = (array, digest.digest())
        return hit[1]

    def _pair(self, a, b, p) -> None:
        ka, kb = self._content_key(a), self._content_key(b)
        self._op_pairs.add((min(ka, kb), max(ka, kb), float(p)))

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> None:
        self._keys.clear()
        self._op_pairs.clear()
        self._op_points.clear()
        self._op_span = self._open(OP, "operation")

    def end_op(self) -> None:
        self._close(self._op_span)
        self._count(distinct_pairs=len(self._op_pairs),
                    distinct_triangulations=len(self._op_points))
        self._keys.clear()

    # -- hooks run after a wrapped call returns --------------------------------

    def _after_load(self, span, args, kwargs, result):
        self._count(load_calls=1, load_bytes=os.path.getsize(_arg(args, kwargs, 0, "path")))

    def _after_matrix(self, span, args, kwargs, result):
        self._count(matrix_calls=1)

    def _after_exact(self, span, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        if a.q > 1:  # q = 1 goes through _sorted_pair_cost, counted there
            self._count(assign_pairs=1)
            self._pair(a.samples, b.samples, args[2] if len(args) > 2 else kwargs.get("p", 1))

    def _after_embed(self, span, args, kwargs, result):
        m = _arg(args, kwargs, 0, "delta").m
        with self._lock:
            self.counts["embedding_calls"] += 1
            self.counts["max_m"] = max(self.counts["max_m"], m)

    def _after_triangulate(self, span, args, kwargs, result):
        self._op_points.add(self._content_key(result.points))
        self._count(triangulations=1, simplices=result.n_simplices)

    def _after_query(self, span, args, kwargs, result):
        if span.parent is None or span.parent.layer != "surface":
            self._count(queries=1)

    def _after_recover(self, span, args, kwargs, result):
        self._count(recoveries=1, boundary_pinned=int(result.on_boundary))

    def _after_write(self, path_index: int):
        def hook(span, args, kwargs, result):
            self._count(write_calls=1,
                        write_bytes=os.path.getsize(_arg(args, kwargs, path_index, "path")))
        return hook

    # -- installation --------------------------------------------------------

    def _spanned(self, layer, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _sort_pair_counter(self, fn):
        def wrapper(sa, sb, p):
            self._count(sort_pairs=1)
            self._pair(sa, sb, p)
            return fn(sa, sb, p)

        return functools.update_wrapper(wrapper, fn)

    def _traced_map(self, fn_map):
        def wrapper(fn, items):
            stack = self._stack()
            layer = stack[-1].layer if stack else OP
            durations: list[float] = []

            def item(x):
                span = self._open(layer, "map_item")
                try:
                    return fn(x)
                finally:
                    self._close(span)
                    durations.append(span.end - span.start)

            span = self._open("parallel", "map_deterministic")
            try:
                return fn_map(item, items)
            finally:
                self._close(span)
                with self._lock:
                    self.counts["maps"] += 1
                    self.counts["items"] += len(items)
                    self.counts["item_busy_s"] += sum(durations)
                    self.counts["map_wall_s"] += span.end - span.start
                    self.counts["workers"] = max(self.counts["workers"], 1)

        return functools.update_wrapper(wrapper, fn_map)

    def _recording_pool(self):
        tracer = self

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                with tracer._lock:
                    tracer.counts["workers"] = max(tracer.counts["workers"], max_workers or 0)
                super().__init__(max_workers, *args, **kwargs)

        return RecordingPool

    def _replacements(self):
        """(defining module, function name, wrapper factory) for every layer."""
        spanned = lambda layer, after=None: (  # noqa: E731
            lambda name, fn: self._spanned(layer, name, fn, after)
        )
        write = lambda i: spanned("write", self._after_write(i))  # noqa: E731
        return [
            ("core", "load_dataset", spanned("core", self._after_load)),
            ("transport", "read_distance_matrix", spanned("core", self._after_load)),
            ("embedding", "read_embedding", spanned("core", self._after_load)),
            ("cli", "read_params_csv", spanned("core", self._after_load)),
            ("transport", "distance_matrix", spanned("transport", self._after_matrix)),
            ("transport", "wasserstein_exact", spanned("transport", self._after_exact)),
            ("transport", "cost_matrix", spanned("transport")),
            ("transport", "_sorted_pair_cost", lambda name, fn: self._sort_pair_counter(fn)),
            ("_parallel", "map_deterministic", lambda name, fn: self._traced_map(fn)),
            ("_parallel", "ThreadPoolExecutor", lambda name, fn: self._recording_pool()),
            ("embedding", "cmds", spanned("embedding", self._after_embed)),
            ("embedding", "realizability_diagnostics", spanned("embedding", self._after_embed)),
            ("embedding", "double_center", spanned("embedding")),
            ("embedding", "select_dimension", spanned("embedding")),
            ("embedding", "procrustes_align", spanned("embedding")),
            ("surface", "delaunay_triangulate", spanned("surface", self._after_triangulate)),
            ("surface", "locate", spanned("surface", self._after_query)),
            ("surface", "interpolate", spanned("surface", self._after_query)),
            ("surface", "hull_boundary_distance", spanned("surface", self._after_query)),
            ("recovery", "recover_parameter", spanned("recovery", self._after_recover)),
            ("recovery", "joint_embed", spanned("recovery")),
            ("recovery", "leave_one_out", spanned("recovery")),
            ("transport", "write_distance_matrix", write(1)),
            ("embedding", "write_embedding", write(1)),
            ("embedding", "write_spectrum", write(1)),
            ("surface", "write_triangulation", write(1)),
            ("recovery", "write_recovery_report", write(2)),
            ("cli", "write_params_csv", write(2)),
        ]

    def install(self) -> "Tracer":
        """Patch every distmirror namespace that binds a layer function."""
        import distmirror.cli  # noqa: F401  (imports every module of the package)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "distmirror" or name.startswith("distmirror.")]
        for module_name, func_name, factory in self._replacements():
            original = getattr(sys.modules[f"distmirror.{module_name}"], func_name)
            replacement = factory(func_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        self._patches.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patches)

    # -- reduction -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = [s for s in self.spans if s.end is not None]
        covered: dict[int, float] = Counter()
        for s in spans:
            if s.parent is not None:
                covered[id(s.parent)] += s.end - s.start
        self_time = {id(s): s.end - s.start - covered[id(s)] for s in spans}

        def busy(pred) -> float:
            return sum(self_time[id(s)] for s in spans if pred(s))

        def wall(pred) -> float:
            return _union([(s.start, s.end) for s in spans if pred(s)])

        def layer(name):
            return lambda s: s.layer == name

        def named(*names):
            return lambda s: s.name in names

        c = self.counts
        pairs = c["sort_pairs"] + c["assign_pairs"]
        load_wall = wall(layer("core"))
        return {
            "core.load_calls": c["load_calls"],
            "core.load_bytes": c["load_bytes"],
            "core.load_wall_s": load_wall,
            "core.load_mb_per_s": c["load_bytes"] / 1e6 / load_wall if load_wall else 0.0,
            "transport.matrix_calls": c["matrix_calls"],
            "transport.sort_pairs": c["sort_pairs"],
            "transport.assign_pairs": c["assign_pairs"],
            "transport.distinct_pairs": c["distinct_pairs"],
            "transport.useful_ratio": c["distinct_pairs"] / pairs if pairs else 0.0,
            "transport.wall_s": wall(layer("transport")),
            "transport.busy_s": busy(layer("transport")),
            "parallel.workers": c["workers"],
            "parallel.maps": c["maps"],
            "parallel.items": c["items"],
            "parallel.busy_over_wall": (
                c["item_busy_s"] / c["map_wall_s"] if c["map_wall_s"] else 0.0
            ),
            "embedding.calls": c["embedding_calls"],
            "embedding.max_m": c["max_m"],
            "embedding.wall_s": wall(layer("embedding")),
            "embedding.busy_s": busy(layer("embedding")),
            "surface.triangulations": c["triangulations"],
            "surface.distinct_triangulations": c["distinct_triangulations"],
            "surface.useful_ratio": (
                c["distinct_triangulations"] / c["triangulations"] if c["triangulations"] else 0.0
            ),
            "surface.simplices": c["simplices"],
            "surface.triangulate_wall_s": wall(named("delaunay_triangulate")),
            "surface.triangulate_busy_s": busy(named("delaunay_triangulate")),
            "surface.queries": c["queries"],
            "surface.query_wall_s": wall(named(*QUERIES)),
            "recovery.recoveries": c["recoveries"],
            "recovery.boundary_pinned": c["boundary_pinned"],
            "recovery.self_busy_s": busy(layer("recovery")),
            "write.calls": c["write_calls"],
            "write.bytes": c["write_bytes"],
            "write.wall_s": wall(layer("write")),
        }
