"""Spans and counters recorded from outside the package.

The tracer replaces module attributes the package calls through with thin
wrappers and restores them afterwards; no package source changes.  A
wrapped name that a later version no longer has is skipped, so its layer
goes unmeasured while the end-to-end numbers still hold.

Two modes:

* ``spans``: each wrapped call records (name, start, end, parent, op) in
  memory, and dbscan inputs are kept so their neighborhood bounds can be
  timed after the operation.
* ``counts``: no spans; dbscan calls get an ``OpCounters``, and failures,
  fallbacks and cluster counts are tallied.  Passing counters may select
  a slower reference path, so counting never runs inside a timed
  operation.
* ``alloc``: dbscan calls run alone under ``tracemalloc``, without
  counters, for the peak allocation of the path a user gets.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc

import numpy as np

from scanseg import dbscan1d, geometry

# (module, attribute, span name); the benchmark's own calls go through the
# same module attributes, so one table covers them too
WRAPPED = [
    ("scanseg.dbscan1d", "dbscan_1d", "dbscan1d.dbscan_1d"),
    ("scanseg.segmentation", "estimate_local_angles", "geometry.estimate_local_angles"),
    ("scanseg.segmentation", "dbscan_1d_circular", "dbscan1d.dbscan_1d_circular"),
    ("scanseg.segmentation", "recluster_subrange", "dbscan1d.recluster_subrange"),
    ("scanseg.segmentation", "circular_mean", "geometry.circular_mean"),
    ("scanseg.segmentation", "tls_fit", "geometry.tls_fit"),
    ("scanseg.segmentation", "angular_segmentation", "segmentation.angular_segmentation"),
    ("scanseg.segmentation", "fit_cluster_lines", "segmentation.fit_cluster_lines"),
    ("scanseg.scan_io", "generate_scan", "scan_io.generate_scan"),
    ("scanseg.cli", "main", "cli.main"),
    ("scanseg.cli", "load_scan", "scan_io.load_scan"),
    ("scanseg.cli", "load_points", "scan_io.load_points"),
    ("scanseg.cli", "save_scan", "scan_io.save_scan"),
    ("scanseg.cli", "generate_scan", "scan_io.generate_scan"),
    ("scanseg.cli", "dbscan_1d", "dbscan1d.dbscan_1d"),
    ("scanseg.cli", "dbscan_1d_circular", "dbscan1d.dbscan_1d_circular"),
    ("scanseg.cli", "angular_segmentation", "segmentation.angular_segmentation"),
    ("scanseg.cli", "fit_cluster_lines", "segmentation.fit_cluster_lines"),
]

DBSCAN = ("dbscan1d.dbscan_1d", "dbscan1d.dbscan_1d_circular", "dbscan1d.recluster_subrange")


class Tracer:
    """Records spans and counts for one run; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.captured: list[tuple] = []  # dbscan inputs of the current op
        self.counts = {
            "points": 0, "clusters": 0, "noise": 0,
            "peak_alloc": 0, "mean_fallbacks": 0, "fit_failures": 0,
            "stage2_calls": 0, "subclusters": 0, "emitted": 0,
        }
        self.counters = dbscan1d.OpCounters()
        self.unwrapped = []

    # -- installing ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, mode: str):
        """Wrap every name in WRAPPED for ``mode``; restore them on exit."""
        saved = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing = f"{module_name}.{attr}"
                if missing not in self.unwrapped:
                    self.unwrapped.append(missing)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(mode, name, fn))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, mode, name, fn):
        if mode == "spans":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    if name in DBSCAN:
                        self._capture(name, args, kwargs)
                    return fn(*args, **kwargs)

            return traced

        if mode == "alloc":
            if name not in DBSCAN:
                return fn

            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counts["peak_alloc"] = max(self.counts["peak_alloc"], peak)

            return measured

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return self._count(name, fn, args, kwargs)

        return counted

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op_id]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def _capture(self, name, args, kwargs):
        values = args[0]
        params = args[1] if len(args) > 1 else kwargs["params"]
        period = None
        if name == "dbscan1d.dbscan_1d_circular":
            period = (args[2] if len(args) > 2 else kwargs["domain"]).period
        self.captured.append((values, params.epsilon, period))

    def time_bounds(self) -> int:
        """Time neighborhood bounds on every captured dbscan input; ns."""
        total = 0
        for values, eps, period in self.captured:
            t0 = time.perf_counter_ns()
            if period is None:
                dbscan1d.calculate_neighborhood(values, eps)
            else:
                dbscan1d.calculate_neighborhood_circular(
                    values, eps, dbscan1d.CircularDomain(period)
                )
            total += time.perf_counter_ns() - t0
        self.captured = []
        return total

    # -- counts -------------------------------------------------------------

    def _count(self, name, fn, args, kwargs):
        c = self.counts
        if name in DBSCAN:
            if kwargs.get("counters") is None:
                kwargs["counters"] = self.counters
            result = fn(*args, **kwargs)
            if name == "dbscan1d.recluster_subrange":
                labels, clusters = kwargs["out_labels"], result
                c["stage2_calls"] += 1
                c["subclusters"] += len(clusters)
            else:
                labels, clusters = result
            c["points"] += len(args[0])
            c["clusters"] += len(clusters)
            c["noise"] += int(np.count_nonzero(labels == dbscan1d.NOISE))
            return result
        if name == "geometry.circular_mean":
            try:
                return fn(*args, **kwargs)
            except geometry.UndefinedMeanError:
                c["mean_fallbacks"] += 1
                raise
        if name == "geometry.tls_fit":
            try:
                return fn(*args, **kwargs)
            except ValueError:
                c["fit_failures"] += 1
                raise
        result = fn(*args, **kwargs)
        if name == "segmentation.angular_segmentation":
            c["emitted"] += len(result)
        return result

    def count_metrics(self) -> dict:
        c = self.counts
        points = max(c["points"], 1)
        return {
            "dbscan1d.peak_alloc_mb": c["peak_alloc"] / 1e6,
            "dbscan1d.steps_per_point": self.counters.neighborhood_steps / points,
            "dbscan1d.touches_per_point": self.counters.expand_touches / points,
            "dbscan1d.clusters": c["clusters"],
            "dbscan1d.noise_frac": c["noise"] / points,
            "geometry.mean_fallbacks": c["mean_fallbacks"],
            "geometry.fit_failures": c["fit_failures"],
            "segmentation.stage2_calls": c["stage2_calls"],
            "segmentation.remnants_dropped": c["subclusters"] - c["emitted"],
        }

    # -- per-layer times ----------------------------------------------------

    def op_layers(self) -> dict[int, dict[str, int]]:
        """Per operation id: ns per layer, self times net of child spans."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, int]] = {}
        for k, (name, t0, t1, parent, op) in enumerate(spans):
            if op < 0:
                continue
            layers = out.setdefault(op, dict.fromkeys(LAYERS, 0))
            dur = t1 - t0
            parent_name = spans[parent][0] if parent >= 0 else None
            for layer in SPAN_LAYERS.get(name, ()):
                layers[layer] += dur
            if name == "dbscan1d.dbscan_1d_circular" and parent_name == "segmentation.angular_segmentation":
                layers["segmentation.stage1_s"] += dur
            if name in SELF_LAYERS:
                layers[SELF_LAYERS[name]] += dur - child[k]
        return out


# span name -> layers its whole duration counts toward
SPAN_LAYERS = {
    "op": ("op",),
    "sort": ("sort.self_s",),
    "dbscan1d.dbscan_1d": ("dbscan1d.cluster_s",),
    "dbscan1d.dbscan_1d_circular": ("dbscan1d.cluster_s",),
    "dbscan1d.recluster_subrange": ("dbscan1d.cluster_s", "segmentation.stage2_s"),
    "geometry.estimate_local_angles": ("geometry.local_angles_s",),
    "geometry.circular_mean": ("geometry.circular_mean_s",),
    "geometry.tls_fit": ("geometry.tls_fit_s",),
    "segmentation.fit_cluster_lines": ("segmentation.fit_s",),
    "scan_io.generate_scan": ("scan_io.generate_s",),
    "scan_io.save_scan": ("scan_io.save_scan_s",),
    "scan_io.load_scan": ("scan_io.load_scan_s",),
    "scan_io.load_points": ("scan_io.load_points_s",),
}
# span name -> layer that gets its self time
SELF_LAYERS = {
    "segmentation.angular_segmentation": "segmentation.self_s",
    "cli.main": "cli.self_s",
}
LAYERS = sorted(
    {layer for names in SPAN_LAYERS.values() for layer in names}
    | set(SELF_LAYERS.values())
    | {"segmentation.stage1_s"}
)
