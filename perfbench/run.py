"""scanseg benchmark: one workload per call, or all three in turn.

    python3 perfbench/run.py --workload scans-360 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The package is imported from ``src/`` of
the checkout this script sits in, never from an installed copy; without
it the script exits with code 1 and prints no result.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it holds
diagnostics (environment, host-speed probe, per-command and per-layer
times in seconds).  A traced run also writes its spans to
``.perfbench-out/``.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import os

# all load from one thread; set before numpy loads a BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# numpy asks the kernel for transparent huge pages on arrays of 4 MB and
# more; whether it grants them varies from run to run and moved peak RSS
# in 2 MB steps, by up to 6 % between runs of the same code
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import argparse
import array
import bisect
import contextlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("linear-1m", "scans-360", "cli-roundtrip")
# The gated tail is p90 over inputs (see end_to_end).  p90 and p99 of
# single operations are reported in the diagnostics.
TAIL_PERCENTILE = 90.0
# One reference block every GAUGE_INTERVAL_S; a host factor is the median
# of at least GAUGE_WINDOW blocks.
GAUGE_INTERVAL_S = 0.04
GAUGE_WINDOW = 25
# Median time of one reference block on the host the benchmark was defined
# on (shared 2-vCPU Intel Xeon VM, 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REFERENCE_NOMINAL_S = 0.0033


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import scanseg
    except ImportError as e:
        sys.exit(f"perfbench: cannot import scanseg from {src}: {e}")
    if not Path(scanseg.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: scanseg resolved outside {src}: {scanseg.__file__}")


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    from scanseg import _kernels

    return {
        "backend": "numba" if hasattr(_kernels.linear_bounds, "py_func") else "interpreted",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def host_probe():
    """Fixed pure-Python and numpy loops; they show host drift, not code changes."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = np.random.Generator(np.random.Philox(0)).random(200_000)
    t2 = time.perf_counter()
    for _ in range(10):
        np.sort(a)
    t3 = time.perf_counter()
    return {"python_loop_s": t1 - t0, "numpy_loop_s": t3 - t2}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


class HostGauge:
    """A fixed reference block, run on a timer while the work is timed.

    The host is shared, and its speed drifts by tens of percent within
    seconds, every layer moving together.  The block runs no package code,
    so its median time over REFERENCE_NOMINAL_S is the host's slowdown
    while it ran.  A SIGALRM timer runs one block every GAUGE_INTERVAL_S,
    between bytecodes of whatever is running, so blocks sample the same
    moments as the work.  ``split`` takes the blocks that ran inside a
    timed interval out of its time and scales what is left by the blocks
    of that interval (or the GAUGE_WINDOW nearest it, if fewer ran
    inside): the result reads as on the reference host and keeps every
    change the package makes.  The block mixes the kinds of work the
    workloads do: interpreted loops, calls on small arrays, small
    objects and scalar indexing of an array.  A large-array component
    tracked the host worst on every workload and was left out.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.Generator(np.random.Philox(0))
        self.small = [rng.random(360) for _ in range(48)]
        self.sorted = np.sort(rng.random(2_000))
        # raw C integers: a Python int kept per sample would pin the
        # allocator's memory arenas the workload frees, and move peak RSS
        self.starts = array.array("q")  # ns, in the order run
        self.durations = array.array("q")  # ns

    def block(self, *_signal):
        np = self.np
        t0 = time.perf_counter_ns()
        acc, counts = 0.0, {}
        for i in range(2_000):  # integer arithmetic and a dict
            k = i * 7919 % 1013
            counts[k] = counts.get(k, 0) + 1
            acc += i * i % 7
        for a in self.small:  # calls on small arrays
            b = np.sort(a)
            acc += float(np.arctan2(b[1:], np.diff(b) + 1.0).sum())
        points = [_Point(i, i + 1) for i in range(600)]  # small objects
        acc += sum(p.x * p.y for p in points if p.x % 3)
        v, j = self.sorted, 0  # scalar indexing, as in the interpreted kernels
        for i in range(v.size):
            while j < v.size and v[j] - v[i] <= 0.3:
                j += 1
        self.starts.append(t0)
        self.durations.append(time.perf_counter_ns() - t0)

    @contextlib.contextmanager
    def sampling(self):
        for _ in range(GAUGE_WINDOW):
            self.block()
        previous = signal.signal(signal.SIGALRM, self.block)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def split(self, t0_ns, t1_ns):
        """(seconds of work in [t0, t1] without the blocks, host factor for it)."""
        lo = bisect.bisect_left(self.starts, t0_ns)
        hi = bisect.bisect_left(self.starts, t1_ns)
        inside = self.durations[lo:hi]
        window = inside
        if len(inside) < GAUGE_WINDOW:
            first = min(max(0, (lo + hi) // 2 - GAUGE_WINDOW // 2), len(self.starts) - GAUGE_WINDOW)
            window = self.durations[max(0, first):first + GAUGE_WINDOW]
        work = (t1_ns - t0_ns - sum(inside)) / 1e9
        return work, statistics.median(window) / 1e9 / REFERENCE_NOMINAL_S

    def factor(self):
        return statistics.median(self.durations) / 1e9 / REFERENCE_NOMINAL_S


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_with_count(samples, p):
    """The p-th percentile if at least ten samples lie beyond it, else None."""
    import numpy as np

    if len(samples) * (100.0 - p) / 100.0 < 10:
        return None
    return float(np.percentile(samples, p))


@contextlib.contextmanager
def _no_span(name):
    yield


def _run_op(wl, i, span, stats):
    """One timed operation; returns ((start, end) in ns, output or None if it raised)."""
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(i, span)
    except Exception:
        out = None
        if stats["attempted"] == stats["failed"]:
            traceback.print_exc()
    t1 = time.perf_counter_ns()
    stats["attempted"] += 1
    return (t0, t1), out


def _check(wl, i, out, stats):
    """Untimed output checks of operation i; a raised operation counts as failed."""
    passed, good = False, False
    if out is not None:
        try:
            passed, good = wl.check(i, out)
        except Exception:
            traceback.print_exc()
    stats["failed"] += not passed
    stats["ok"] += passed and good


def timed_run(wl, seconds):
    """Returns stats, per-operation (input, (start, end) in ns) and per-command seconds."""
    stats = {"attempted": 0, "failed": 0, "ok": 0}
    ops, commands = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        interval, out = _run_op(wl, i, _no_span, stats)
        ops.append((wl.input_of(i), interval))
        _check(wl, i, out, stats)
        if out is not None and hasattr(wl, "command_seconds"):
            commands.append(wl.command_seconds(out))
        del out  # free it before the next operation allocates
        i += 1
        if time.perf_counter() >= deadline:
            break
    return stats, ops, commands


def traced_run(wl, seconds, tracer):
    """Alternate traced and untraced operations; spans only on the traced ones."""
    stats = {"attempted": 0, "failed": 0, "ok": 0}
    traced, untraced, bounds = {}, [], {}
    parsed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if i % 2 == 0:
            tracer.op_id = i
            with tracer.installed("spans"), tracer.span("op"):
                (t0, t1), out = _run_op(wl, i, tracer.span, stats)
            tracer.op_id = -1
            traced[i] = (t1 - t0) / 1e9
            bounds[i] = tracer.time_bounds()
            parsed += wl.parsed_bytes()
        else:
            (t0, t1), out = _run_op(wl, i, _no_span, stats)
            untraced.append((t1 - t0) / 1e9)
        _check(wl, i, out, stats)
        del out
        i += 1
        if time.perf_counter() >= deadline and untraced:
            break
    return stats, traced, untraced, bounds, parsed


SHARES = {
    "sort.self_share": "sort.self_s",
    "geometry.local_angles_share": "geometry.local_angles_s",
    "geometry.circular_mean_share": "geometry.circular_mean_s",
    "geometry.tls_fit_share": "geometry.tls_fit_s",
    "segmentation.stage1_share": "segmentation.stage1_s",
    "segmentation.stage2_share": "segmentation.stage2_s",
    "segmentation.self_share": "segmentation.self_s",
    "segmentation.fit_share": "segmentation.fit_s",
    "scan_io.generate_share": "scan_io.generate_s",
    "scan_io.save_scan_share": "scan_io.save_scan_s",
    "scan_io.load_scan_share": "scan_io.load_scan_s",
    "scan_io.load_points_share": "scan_io.load_points_s",
    "cli.self_share": "cli.self_s",
}
UNITS = {
    "dbscan1d.bounds_s": "s", "dbscan1d.cluster_s": "s", "dbscan1d.derived_sweep_s": "s",
    "dbscan1d.peak_alloc_mb": "MB", "dbscan1d.steps_per_point": "count",
    "dbscan1d.touches_per_point": "count", "dbscan1d.clusters": "count",
    "dbscan1d.noise_frac": "frac", "geometry.mean_fallbacks": "count",
    "geometry.fit_failures": "count", "segmentation.stage2_calls": "count",
    "segmentation.remnants_dropped": "count", "scan_io.parse_mb_per_s": "MB/s",
    "cli.output_bytes": "bytes", "trace.overhead_frac": "frac",
    **dict.fromkeys(SHARES, "frac"),
}


def layer_metrics(tracer, traced, untraced, bounds, parsed, counts):
    per_op = tracer.op_layers()
    ops = sorted(per_op)

    def med(layer):
        return statistics.median(per_op[i][layer] for i in ops) / 1e9

    seconds = {layer: med(layer) for layer in per_op[ops[0]] if layer != "op"}
    seconds["dbscan1d.bounds_s"] = statistics.median(bounds[i] for i in ops) / 1e9
    seconds["dbscan1d.derived_sweep_s"] = (
        statistics.median(per_op[i]["dbscan1d.cluster_s"] - bounds[i] for i in ops) / 1e9
    )
    op_total = sum(per_op[i]["op"] for i in ops)
    load_ns = sum(per_op[i]["scan_io.load_scan_s"] + per_op[i]["scan_io.load_points_s"] for i in ops)
    metrics = {
        "dbscan1d.bounds_s": seconds["dbscan1d.bounds_s"],
        "dbscan1d.cluster_s": seconds["dbscan1d.cluster_s"],
        "dbscan1d.derived_sweep_s": seconds["dbscan1d.derived_sweep_s"],
        **tracer.count_metrics(),
        **{share: sum(per_op[i][layer] for i in ops) / op_total for share, layer in SHARES.items()},
        "scan_io.parse_mb_per_s": parsed / 1e6 / (load_ns / 1e9) if load_ns else 0.0,
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "trace.overhead_frac": statistics.median(traced.values()) / statistics.median(untraced) - 1.0,
    }
    detail = {
        **{name: {"value": v, "unit": "s"} for name, v in sorted(seconds.items())},
        "trace.op_s_traced": {"value": statistics.median(traced.values()), "unit": "s"},
        "trace.op_s_untraced": {"value": statistics.median(untraced), "unit": "s"},
        "trace.ops": {"value": len(traced) + len(untraced), "unit": "count"},
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, detail


def write_trace(tracer, name, seed):
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json"
    fields = ["name", "start_ns", "end_ns", "parent", "op"]
    with open(path, "w", encoding="ascii") as f:
        json.dump({"fields": fields, "spans": tracer.spans}, f)
    return str(path.relative_to(ROOT))


def run_one(name, seed, seconds, trace):
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment(seed)
    probe_before = host_probe()
    wl = WORKLOADS[name](seed)
    gauge = None
    try:
        if trace:
            tracer = Tracer()
            t0 = time.perf_counter()
            tracer.op_id = -2  # setup spans: kept in the file, not in any op
            with tracer.installed("spans"), tracer.span("setup"):
                wl.setup()
            tracer.op_id = -1
            detail = {"setup_s_samples": {"value": [time.perf_counter() - t0], "unit": "s"}}
            with tracer.installed("counts"):
                counts = wl.count_pass()
            with tracer.installed("alloc"):
                wl.count_pass()
            stats, traced, untraced, bounds, parsed = traced_run(wl, seconds, tracer)
            metrics, layer_detail = layer_metrics(tracer, traced, untraced, bounds, parsed, counts)
            setup_gen = sum(s[2] - s[1] for s in tracer.spans if s[0] == "scan_io.generate_scan" and s[4] == -2)
            detail.update(layer_detail)
            detail["scan_io.generate_setup_s"] = {"value": setup_gen / 1e9, "unit": "s"}
            detail["trace.file"] = {"value": write_trace(tracer, name, seed), "unit": "path"}
            detail["trace.unwrapped"] = {"value": tracer.unwrapped, "unit": "names"}
        else:
            gauge = HostGauge()
            with gauge.sampling():
                setups = []
                for _ in range(wl.setup_repeats):
                    t0 = time.perf_counter_ns()
                    wl.setup()
                    setups.append((t0, time.perf_counter_ns()))
                stats, ops, commands = timed_run(wl, seconds)
            times = [(key, *gauge.split(*interval)) for key, interval in ops]
            metrics, detail = end_to_end(
                name, stats, times, commands, [gauge.split(*iv) for iv in setups]
            )
    finally:
        wl.close()
    attempted = stats["attempted"]
    detail["failed_frac"] = {"value": stats["failed"] / attempted, "unit": "frac"}
    diagnostics = {
        "workload": name,
        "trace": trace,
        "env": env,
        "probe": {"before": probe_before, "after": host_probe()},
        "gauge": gauge and {"host_factor": gauge.factor(), "blocks": len(gauge.durations)},
        "detail": detail,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    return {
        "correct": stats["failed"] == 0,
        "attempted": attempted,
        "failed": stats["failed"],
        "metrics": metrics,
    }


def end_to_end(name, stats, times, commands, setups):
    """Metrics from per-operation (input, work seconds, host factor).

    Gated timings are the scaled ones.  The gated tail is taken over
    inputs, each at its median over the run: the tail of single
    operations also holds the host's hiccups shorter than the gauge's
    interval, and moved by a sixth between runs of the same code.  The
    diagnostics keep the unscaled times of single operations and the
    per-command wall times.
    """
    work = [w for _, w, _ in times]
    scaled = [w / f for _, w, f in times]
    by_input = {}
    for (key, _, _), value in zip(times, scaled):
        by_input.setdefault(key, []).append(value)
    scaled_tail = percentile_with_count(
        [statistics.median(v) for v in by_input.values()], TAIL_PERCENTILE
    )
    p50 = statistics.median(work)
    p90 = percentile_with_count(work, TAIL_PERCENTILE)
    p99 = percentile_with_count(work, 99.0)
    ok_frac = stats["ok"] / stats["attempted"]
    unscaled = {
        "setup_s": statistics.median(w for w, _ in setups),
        "op_ms_p50": p50 * 1e3,
        "op_ms_tail": (p50 if p90 is None else p90) * 1e3,
    }
    metrics = {
        "setup_s": {"value": statistics.median(w / f for w, f in setups), "unit": "s"},
        "op_ms_p50": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "op_ms_tail": {
            "value": (statistics.median(scaled) if scaled_tail is None else scaled_tail) * 1e3,
            "unit": "ms",
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "ok_frac": {"value": ok_frac, "unit": "frac"},
    }
    detail = {
        "setup_s_samples": {"value": [w for w, _ in setups], "unit": "s"},
        **{f"unscaled_{k}": {"value": v, "unit": metrics[k]["unit"]} for k, v in unscaled.items()},
        "samples": {"value": len(times), "unit": "count"},
        "op_ms_tail_percentile": {"value": 50.0 if scaled_tail is None else TAIL_PERCENTILE, "unit": "%"},
        "inputs": {"value": len(by_input), "unit": "count"},
    }
    if p99 is not None:
        detail["op_ms_p99"] = {"value": p99 * 1e3, "unit": "ms"}
    if name == "linear-1m":
        detail["cluster_mpts_per_s"] = {"value": 1.0 / p50, "unit": "Mpts/s"}
    elif name == "scans-360":
        detail["scan_ms_p50"] = {"value": p50 * 1e3, "unit": "ms"}
        for p, value in ((90, p90), (99, p99)):
            if value is not None:
                detail[f"scan_ms_p{p}"] = {"value": value * 1e3, "unit": "ms"}
        detail["walls_ok_frac"] = {"value": ok_frac, "unit": "frac"}
    else:
        for k, cmd in enumerate(("generate", "segment", "cluster")):
            value = statistics.median(c[k] for c in commands) if commands else float("nan")
            detail[f"cli_{cmd}_s"] = {"value": value, "unit": "s"}
        detail["walls_ok_frac"] = {"value": ok_frac, "unit": "frac"}
    return metrics, detail


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        print(proc.stdout, end="")
        results[name] = (json.loads(lines[-2])["diagnostics"], json.loads(lines[-1]))
    print()
    for name, (diag, res) in results.items():
        shown = {**res["metrics"], **{k: v for k, v in diag["detail"].items() if k != "setup_s_samples"}}
        for metric, m in shown.items():
            print(f"{name:14s} {metric:32s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{n}/{k}": v for n, (_, r) in results.items() for k, v in r["metrics"].items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed; 1 is for tuning, 2 is held out to confirm a claimed gain",
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_package()
    if args.workload == "all":
        run_all(args)
        return
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
