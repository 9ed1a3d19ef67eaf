"""Command-line front end.

Four subcommands: ``cluster`` runs 1D clustering on a point-list file,
``segment`` runs the two-stage scan pipeline, ``generate`` writes a
synthetic room scan, ``bench`` emits experiment CSVs.  Data goes to the
output file or stdout; diagnostics and timings go to stderr; exit code 0
means the operation completed.  Every row of text comes from one kernel,
:mod:`scanseg._text`: ``segment`` streams its label column through
:mod:`scanseg.scan_io`'s block row writer, and ``cluster`` formats each
distinct (value, label) row once, into one table of words, and writes
its rows in file order as gathers from that table.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import scan_io
from ._text import _table, _text
from .bench import bench_epsilon_sweep, bench_scaling, write_csv
from .dbscan1d import (
    BorderPolicy,
    CircularDomain,
    DbscanParams,
    dbscan_1d,
    dbscan_1d_circular,
)
from .scan_io import (
    NoiseModel,
    RoomModel,
    _maybe_open,
    _write_rows,
    generate_scan,
    load_points,
    load_scan,
    save_scan,
)
from .segmentation import SegmentationParams, angular_segmentation, fit_cluster_lines


def _cmd_cluster(args) -> int:
    tl = time.perf_counter_ns()
    values, file_period = load_points(args.input)
    period = args.circular_period if args.circular_period is not None else file_period
    params = DbscanParams(args.epsilon, args.min_points, BorderPolicy(args.border_policy))
    t0 = time.perf_counter_ns()
    # the order of equal values is free: bounds, core status, chains and
    # so cluster ranges depend on the values alone, so every range starts
    # and ends on a whole run of equal values and equal values get equal
    # labels, under every policy, on a line and on a ring
    order = np.argsort(values)
    values = values[order]
    t1 = time.perf_counter_ns()
    if period is not None:
        labels, clusters = dbscan_1d_circular(values, params, CircularDomain(period))
    else:
        labels, clusters = dbscan_1d(values, params)
    t2 = time.perf_counter_ns()
    # each distinct row is formatted once, since quantized values repeat:
    # a run of sorted rows starts where the value's bits (so -0.0 and 0.0
    # keep their own text) or the label change, the table holds the words
    # of each run's first row, and each block of file rows is written as
    # the text of its rows' runs.  What the table does not need is dropped
    # before it is built: on distinct values it holds 40 bytes a row
    n = values.size
    first = np.ones(n, bool)
    bits = values.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    first[1:] |= labels[1:] != labels[:-1]
    run = np.cumsum(first, dtype=np.int32 if n < 2**31 else np.intp)
    run -= 1
    row_of = np.empty_like(run)
    row_of[order] = run
    del order, bits, run
    firsts = values[first], labels[first]
    del values, labels, first
    block = scan_io._WRITE_BLOCK
    table = _table("%r\t%d\n", firsts, block)
    del firsts
    with _maybe_open(args.output or sys.stdout, "w") as out:
        for start in range(0, n, block):
            out.write(_text(np.take(table, row_of[start : start + block], axis=0)))
        for c in clusters:
            out.write(f"# cluster id={c.id} lower={c.lower} upper={c.upper} size={c.size}\n")
    t3 = time.perf_counter_ns()
    print(
        f"load_ns={t0 - tl} sort_ns={t1 - t0} cluster_ns={t2 - t1} write_ns={t3 - t2}",
        file=sys.stderr,
    )
    return 0


def _cmd_segment(args) -> int:
    tl = time.perf_counter_ns()
    scan = load_scan(args.input)
    params = SegmentationParams(args.eps_theta, args.eps_dist, args.min_points)
    t0 = time.perf_counter_ns()
    clusters = angular_segmentation(scan, params)
    t1 = time.perf_counter_ns()
    fit_cluster_lines(scan, clusters)
    t2 = time.perf_counter_ns()
    labels = np.full(scan.beams, -1, dtype=np.int64)
    for c in clusters:
        labels[c.point_indices] = c.id
    with _maybe_open(args.output, "w") as out:
        _write_rows(out, "%d\n", labels)
    t3 = time.perf_counter_ns()
    for c in clusters:
        if c.fitted_line is not None:
            d, theta = float(c.fitted_line.d), float(c.fitted_line.theta)
        else:
            d, theta = float("nan"), float("nan")
        print(f"{c.id} {c.size} {float(c.mean_theta)!r} {d!r} {theta!r}")
    print(
        f"load_ns={t0 - tl} segmentation_ns={t1 - t0} fitting_ns={t2 - t1} write_ns={t3 - t2}",
        file=sys.stderr,
    )
    return 0


def _parse_room(text: str) -> RoomModel:
    """Room spec: ``square``, ``square:SIDE``, or ``x1,y1;x2,y2;...``."""
    if text == "square" or text.startswith("square:"):
        side = float(text.partition(":")[2]) if ":" in text else 4.0
        if side <= 0:
            raise ValueError(f"square side must be > 0, got {side}")
        h = side / 2.0
        verts = [(-h, -h), (h, -h), (h, h), (-h, h)]
    else:
        verts = []
        for pair in text.split(";"):
            xy = pair.split(",")
            if len(xy) != 2:
                raise ValueError(f"bad vertex {pair!r}, expected x,y")
            verts.append((float(xy[0]), float(xy[1])))
    return RoomModel(np.array(verts))


def _cmd_generate(args) -> int:
    room = _parse_room(args.room)
    noise = NoiseModel(args.noise_sigma, args.dropout, args.seed)
    t0 = time.perf_counter_ns()
    scan, _ = generate_scan(room, args.beams, noise)
    t1 = time.perf_counter_ns()
    save_scan(scan, args.output or sys.stdout)
    print(f"generate_ns={t1 - t0} write_ns={time.perf_counter_ns() - t1}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "scaling":
        sizes = [int(s) for s in args.sizes.split(",")]
        rows = bench_scaling(sizes, args.trials, args.seed)
    else:
        epsilons = [float(e) for e in args.epsilons.split(",")]
        rows = bench_epsilon_sweep(args.n, epsilons, args.trials, args.seed)
    write_csv(rows, args.output or sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanseg",
        description="Linear-time 1D density clustering and range-scan line extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a 1D point-list file")
    p.add_argument("input", help="point list, one value per line")
    p.add_argument("--epsilon", type=float, required=True, help="neighborhood radius")
    p.add_argument("--min-points", type=int, required=True, help="core point threshold")
    p.add_argument(
        "--circular-period",
        type=float,
        default=None,
        help="treat values as circular with this period (overrides the file header)",
    )
    p.add_argument(
        "--border-policy",
        choices=[b.value for b in BorderPolicy],
        default=BorderPolicy.FIRST_CLUSTER.value,
        help="contested border point assignment",
    )
    p.add_argument("--output", default=None, help="label file (default stdout)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("segment", help="extract line clusters from a scan file")
    p.add_argument("input", help="scan file")
    p.add_argument("--eps-theta", type=float, required=True, help="angular chain radius (rad)")
    p.add_argument("--eps-dist", type=float, required=True, help="distance chain radius (m)")
    p.add_argument("--min-points", type=int, required=True, help="core point threshold")
    p.add_argument("--output", required=True, help="per-point label column file")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("generate", help="write a synthetic room scan")
    p.add_argument(
        "--room",
        default="square",
        help="'square', 'square:SIDE', or 'x1,y1;x2,y2;...' (sensor at origin)",
    )
    p.add_argument("--beams", type=int, default=360)
    p.add_argument("--noise-sigma", type=float, default=0.0, help="relative range noise")
    p.add_argument("--dropout", type=float, default=0.0, help="invalid beam probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="scan file (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run a benchmark experiment, emit CSV")
    p.add_argument("--experiment", choices=["scaling", "epsilon-sweep"], required=True)
    p.add_argument("--sizes", default="10000,20000,50000,100000", help="scaling sizes")
    p.add_argument("--n", type=int, default=1000000, help="sweep input size")
    p.add_argument(
        "--epsilons", default="1e-7,1e-6,1e-5,1e-4,1e-3", help="sweep epsilon values"
    )
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
