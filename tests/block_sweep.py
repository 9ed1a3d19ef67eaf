"""Sweep the blocked clustering kernels, in tiny blocks, against the reference.

    PYTHONPATH=src python tests/block_sweep.py --count 20000 --seed 17 --blocks 1 3

Runs the seeded fuzz cases of ``test_dbscan1d.fuzz_cases`` with
``_kernels.VEC_BLOCK`` set in turn to each of ``--blocks``.  Bounds,
labels, cluster ranges and the derived operation counters must equal the
counted reference sweep's (``sweep_reference.run_sweep``), as in
``test_dbscan1d.assert_matches_sweep``.  In blocks of one point every
core starts or continues a chain across a block edge.  Then, under each
border policy, ``--count // 30`` grouped lattice cases
(``test_dbscan1d.lattice_group_cases``) must give, in one grouped pass,
what one ``dbscan_1d`` per group gives, and the members that stage 2's
call, ``dbscan1d._members``, lists from the grouped ranges alone must be
those the grouped labels give (``members_reference``).  Exits 1 at the
first difference.  Tier-1 runs blocks of 2, 7 and 64 on a tenth of the
cases (``test_dbscan1d.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from scanseg import (
    CircularDomain,
    DbscanParams,
    calculate_neighborhood,
    calculate_neighborhood_circular,
)
from scanseg import _kernels
from test_dbscan1d import (
    POLICIES,
    assert_groups_match_per_group_runs,
    assert_matches_sweep,
    assert_members_match_reference,
    fuzz_cases,
    lattice_group_cases,
)


def mismatch(x, eps, period, mp, policy) -> str | None:
    """How the kernels and the reference sweep differ on one case, or None."""
    try:
        lower, upper, _ = assert_matches_sweep(x, eps, period, mp, policy)
    except AssertionError:
        return "labels, ranges or counters"
    if period is None:
        got = calculate_neighborhood(x, eps)
    else:
        got = calculate_neighborhood_circular(x, eps, CircularDomain(period))
    if not (np.array_equal(got[0], lower) and np.array_equal(got[1], upper)):
        return "bounds"
    return None


def describe(x, eps, period, mp, policy) -> str:
    return f"x={x.tolist()!r}, eps={eps!r}, period={period!r}, min_points={mp}, {policy}"


def grouped_mismatch(groups, ids, eps, mp, policy) -> str | None:
    """How the grouped pass differs from the per-group runs or its members
    from the label rule, or None."""
    try:
        assert_groups_match_per_group_runs(groups, ids, eps, mp, policy)
    except AssertionError:
        return "grouped labels, ranges, counters or bounds"
    values = np.concatenate(groups)
    group = np.repeat(ids, [g.size for g in groups])
    try:
        assert_members_match_reference(values, DbscanParams(eps, mp, policy), group=group)
    except AssertionError:
        return "grouped members"
    return None


def describe_groups(groups, ids, eps, mp, policy) -> str:
    values = [g.tolist() for g in groups]
    return f"groups={values!r}, ids={ids.tolist()!r}, eps={eps!r}, min_points={mp}, {policy}"


def grouped_cases(count: int, seed: int):
    """The grouped lattice cases under each border policy in turn."""
    for policy in POLICIES:
        for case in lattice_group_cases(count, seed):
            yield (*case, policy)


def sweep(count: int, seed: int, block: int) -> tuple[int, str | None]:
    """(cases compared, first mismatch or None) in blocks of ``block``."""
    saved = _kernels.VEC_BLOCK
    _kernels.VEC_BLOCK = block
    done = 0
    try:
        for check, describe_case, cases in (
            (mismatch, describe, fuzz_cases(count, seed)),
            (grouped_mismatch, describe_groups, grouped_cases(count // 30, seed)),
        ):
            for case in cases:
                try:
                    bad = check(*case)
                except Exception:
                    print(f"blocks of {block}: raised on {describe_case(*case)}")
                    raise
                if bad is not None:
                    return done, f"{bad} differ on {describe_case(*case)}"
                done += 1
        return done, None
    finally:
        _kernels.VEC_BLOCK = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20_000, help="fuzz cases per block size")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--blocks", type=int, nargs="+", default=[1, 3], help="block sizes")
    args = parser.parse_args(argv)
    for block in args.blocks:
        start = time.perf_counter()
        done, bad = sweep(args.count, args.seed, block)
        seconds = time.perf_counter() - start
        if bad is not None:
            print(f"blocks of {block}: mismatch after {done} cases: {bad}")
            return 1
        print(f"blocks of {block}: {done} cases match, in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
