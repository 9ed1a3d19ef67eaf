"""Sanity checks for the quadratic reference implementations.

The oracles validate the fast paths elsewhere, so they get their own
definitional tests here: small hand-checked instances plus symmetries
that hold regardless of implementation strategy.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scanseg import BorderPolicy, DegenerateFitError, OrientationUndefinedError
from scanseg.oracle import (
    density_reachable_closure,
    eigen_tls,
    naive_dbscan,
    naive_neighborhood,
)


def partition(labels):
    """Cluster membership as a set of frozensets, ignoring id numbering."""
    out = set()
    for cid in np.unique(labels):
        if cid > 0:
            out.add(frozenset(np.flatnonzero(labels == cid).tolist()))
    return out


def test_neighborhood_pair():
    assert naive_neighborhood(np.array([0.0, 1.0]), 0, 1.0).tolist() == [0, 1]


def test_neighborhood_is_closed_ball():
    x = np.array([0.0, 0.5, 1.0, 2.0])
    assert naive_neighborhood(x, 1, 0.5).tolist() == [0, 1, 2]
    assert naive_neighborhood(x, 3, 0.99).tolist() == [3]


def test_neighborhood_circular_uses_ring_distance():
    x = np.array([0.1, 3.0, 6.2])
    # 0.1 and 6.2 are 0.183 apart around the seam of a 2*pi ring
    got = naive_neighborhood(x, 0, 0.2, period=2 * np.pi)
    assert got.tolist() == [0, 2]


def scalar_neighborhood(x, index, epsilon, period=None):
    """The earlier pairwise loop, one float expression per pair."""
    out = []
    for j in range(x.size):
        d = abs(x[index] - x[j])
        if period is not None:
            d = min(d, period - d)
        if d <= epsilon:
            out.append(j)
    return out


@st.composite
def neighborhood_inputs(draw):
    """(values, epsilon, period) on a grid of ``unit`` steps, one ulp off
    here and there: gaps of exactly epsilon, ties by an ulp, duplicates,
    and on a ring of whole units, pairs exactly epsilon apart across the
    seam.  A unit of 0.1 makes the grid inexact."""
    unit = draw(st.sampled_from([1.0, 0.125, 0.1]))
    steps = draw(st.lists(st.integers(0, 12), min_size=1, max_size=30))
    ulps = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=len(steps), max_size=len(steps)))
    x = np.array(steps) * unit
    x = np.where(np.array(ulps) < 0, np.nextafter(x, -np.inf), x)
    x = np.where(np.array(ulps) > 0, np.nextafter(x, np.inf), x)
    epsilon = draw(st.integers(0, 4)) * unit
    period = draw(st.one_of(st.none(), st.integers(13, 15).map(lambda k: k * unit)))
    return np.sort(x), epsilon, period


@given(neighborhood_inputs())
def test_neighborhood_rows_match_the_pairwise_loop(case):
    x, epsilon, period = case
    for i in range(x.size):
        assert naive_neighborhood(x, i, epsilon, period).tolist() == scalar_neighborhood(
            x, i, epsilon, period
        )


def test_closure_simple_chain():
    x = np.array([0.0, 0.4, 0.8, 5.0, 5.3, 5.6])
    members, cores = density_reachable_closure(x, 1, 0.5, 3)
    assert members.tolist() == [0, 1, 2]
    assert cores.tolist() == [1]


def test_closure_rejects_non_core_seed():
    x = np.array([0.0, 0.4, 0.8])
    with pytest.raises(ValueError):
        density_reachable_closure(x, 0, 0.5, 3)


def test_closure_idempotent():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = np.sort(rng.random(int(rng.integers(5, 60))) * 5)
        eps, mp = float(rng.random() * 0.4 + 0.02), int(rng.integers(2, 5))
        sizes = np.array(
            [naive_neighborhood(x, i, eps).size for i in range(x.size)]
        )
        cores = np.flatnonzero(sizes >= mp)
        if cores.size == 0:
            continue
        members, closure_cores = density_reachable_closure(x, int(cores[0]), eps, mp)
        for p in closure_cores:
            again, _ = density_reachable_closure(x, int(p), eps, mp)
            np.testing.assert_array_equal(again, members)


def test_two_cluster_labels():
    x = np.array([0.0, 0.4, 0.8, 5.0, 5.3, 5.6])
    labels = naive_dbscan(x, 0.5, 3)
    assert labels.tolist() == [1, 1, 1, 2, 2, 2]


@given(
    st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=0, max_size=50),
    st.floats(0.0, 5.0),
    st.integers(1, 5),
    st.sampled_from(list(BorderPolicy)),
)
def test_mirror_symmetry(vals, eps, mp, policy):
    """Negating the axis reflects the clustering but never changes it."""
    x = np.sort(np.asarray(vals, dtype=np.float64))
    labels = naive_dbscan(x, eps, mp, border_policy=policy)
    mirrored = naive_dbscan(np.sort(-x), eps, mp, border_policy=policy)
    n = x.size
    reflected = {frozenset(n - 1 - i for i in part) for part in partition(mirrored)}
    assert partition(labels) == reflected
    np.testing.assert_array_equal(labels == -1, (mirrored == -1)[::-1])


def test_eigen_tls_axis_cases():
    horizontal = eigen_tls(np.array([[0.0, 2.0], [1.0, 2.0], [5.0, 2.0]]))
    assert horizontal.d == pytest.approx(2.0, abs=1e-12)
    assert horizontal.theta == pytest.approx(np.pi / 2, abs=1e-12)
    vertical = eigen_tls(np.array([[3.0, 0.0], [3.0, 2.0], [3.0, 7.0]]))
    assert vertical.d == pytest.approx(3.0, abs=1e-12)
    assert min(vertical.theta, 2 * np.pi - vertical.theta) == pytest.approx(0.0, abs=1e-12)


def test_eigen_tls_coincident_points():
    with pytest.raises(DegenerateFitError, match=r"^all points coincide$"):
        eigen_tls(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))


def test_eigen_tls_isotropic_scatter():
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(OrientationUndefinedError, match=r"^point scatter is isotropic$"):
        eigen_tls(square)
