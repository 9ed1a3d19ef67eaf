"""Sorted 1D density clustering: bounds, full runs, counters."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanseg import (
    NOISE,
    BorderPolicy,
    CircularDomain,
    Cluster1D,
    ClusterSequence,
    DbscanParams,
    NoiseModel,
    OpCounters,
    SegmentationParams,
    UnsortedInputError,
    calculate_neighborhood,
    calculate_neighborhood_circular,
    dbscan_1d,
    dbscan_1d_circular,
)
from scanseg import _kernels
from scanseg._kernels import VEC_BLOCK, linear_bounds, sweep_steps
from scanseg.dbscan1d import _members, _ranges
from scanseg.bench import generate_separated_clusters, scaling_epsilon
from scanseg.oracle import density_reachable_closure, naive_dbscan, naive_neighborhood
from members_reference import reference_members
from sweep_reference import run_sweep

TWO_PI = 2.0 * np.pi

POLICIES = [BorderPolicy.FIRST_CLUSTER, BorderPolicy.ALL_CLUSTERS, BorderPolicy.AS_NOISE]


@st.composite
def sorted_values(draw, max_size=60, span=10.0):
    vals = draw(
        st.lists(
            st.floats(0.0, span, allow_nan=False, allow_infinity=False),
            min_size=0,
            max_size=max_size,
        )
    )
    return np.sort(np.asarray(vals, dtype=np.float64))


@st.composite
def circular_instance(draw, max_size=50):
    period = draw(st.floats(0.5, 20.0))
    n = draw(st.integers(0, max_size))
    raw = draw(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)
    )
    x = np.sort(np.asarray(raw, dtype=np.float64) * period)
    x[x >= period] = 0.0  # scaling can round up to the period itself
    x.sort()
    eps = draw(st.floats(0.0, 0.499)) * period
    mp = draw(st.integers(1, 5))
    return x, eps, period, mp


class TestNeighborhoodBounds:
    def test_linear_worked_example(self):
        lower, upper = calculate_neighborhood([0.0, 1.0, 2.0, 10.0], 1.5)
        assert lower.tolist() == [0, 0, 1, 3]
        assert upper.tolist() == [1, 2, 2, 3]
        assert sweep_steps(lower, upper) == 8

    def test_single_point(self):
        lower, upper = calculate_neighborhood([5.0], 1.5)
        assert lower.tolist() == [0]
        assert upper.tolist() == [0]
        assert sweep_steps(lower, upper) == 2

    def test_zero_epsilon_duplicates(self):
        # closed neighborhoods: exact duplicates are mutual neighbors at eps=0
        lower, upper = calculate_neighborhood([0.0, 0.0, 0.0], 0.0)
        assert lower.tolist() == [0, 0, 0]
        assert upper.tolist() == [2, 2, 2]

    def test_neighborhood_size(self):
        lower, upper = calculate_neighborhood([0.0, 1.0, 2.0, 10.0], 1.5)
        assert (upper - lower + 1).tolist() == [2, 3, 2, 1]

    def test_empty(self):
        lower, upper = calculate_neighborhood([], 1.0)
        assert lower.size == 0 and upper.size == 0

    def test_circular_wrap_example(self):
        lower, upper = calculate_neighborhood_circular(
            [0.1, 0.2, 3.0, 6.2], 0.3, CircularDomain(TWO_PI)
        )
        assert lower.tolist() == [-1, -1, 2, 3]
        assert upper.tolist() == [1, 1, 2, 5]
        assert sweep_steps(lower, upper) == 11
        assert (upper - lower + 1).tolist() == [3, 3, 1, 3]

    def test_circular_low_end_wrap(self):
        lower, upper = calculate_neighborhood_circular(
            [0.0, 0.1, 6.2], 0.2, CircularDomain(TWO_PI)
        )
        assert lower.tolist() == [-1, -1, 2]
        assert upper.tolist() == [1, 1, 4]

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInputError):
            calculate_neighborhood([1.0, 0.5], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            calculate_neighborhood([0.0, np.nan], 1.0)

    @pytest.mark.parametrize("values", [[-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf]])
    def test_infinite_end_rejected(self, values):
        # sorted input is finite throughout when both ends are
        with pytest.raises(ValueError, match=r"^values must be finite$"):
            dbscan_1d(values, DbscanParams(0.5, 1))

    def test_circular_domain_violations(self):
        dom = CircularDomain(TWO_PI)
        with pytest.raises(ValueError):
            calculate_neighborhood_circular([0.0, 7.0], 0.3, dom)
        with pytest.raises(ValueError):
            calculate_neighborhood_circular([0.0, 1.0], np.pi, dom)
        with pytest.raises(ValueError):
            calculate_neighborhood_circular([-0.1, 1.0], 0.3, dom)

    @given(sorted_values(), st.floats(0.0, 5.0))
    def test_bounds_monotone_and_exact(self, x, eps):
        lower, upper = calculate_neighborhood(x, eps)
        n = x.size
        assert sweep_steps(lower, upper) == 2 * n
        if n == 0:
            return
        assert np.all(np.diff(lower) >= 0)
        assert np.all(np.diff(upper) >= 0)
        for i in range(n):
            expected = naive_neighborhood(x, i, eps)
            got = np.arange(lower[i], upper[i] + 1)
            np.testing.assert_array_equal(got, expected)

    @given(circular_instance())
    def test_circular_bounds_match_oracle(self, inst):
        x, eps, period, _ = inst
        lower, upper = calculate_neighborhood_circular(x, eps, CircularDomain(period))
        n = x.size
        assert sweep_steps(lower, upper) <= max(4 * n - 2, 0)
        for i in range(n):
            expected = naive_neighborhood(x, i, eps, period=period)
            got = np.sort(np.arange(lower[i], upper[i] + 1) % n)
            np.testing.assert_array_equal(got, expected)
            assert upper[i] - lower[i] + 1 == expected.size


class TestLinearRuns:
    def test_two_clusters(self):
        x = np.array([0.0, 0.4, 0.8, 5.0, 5.3, 5.6])
        labels, clusters = dbscan_1d(x, DbscanParams(0.5, 3))
        assert labels.tolist() == [1, 1, 1, 2, 2, 2]
        assert list(clusters) == [Cluster1D(1, 0, 2), Cluster1D(2, 3, 5)]

    def test_policies_on_sparse_cores(self):
        """Only the middles are cores here, so AS_NOISE shrinks both clusters."""
        x = np.array([0.0, 0.4, 0.8, 5.0, 5.3, 5.6])
        for policy in (BorderPolicy.FIRST_CLUSTER, BorderPolicy.ALL_CLUSTERS):
            labels, _ = dbscan_1d(x, DbscanParams(0.5, 3, policy))
            assert labels.tolist() == [1, 1, 1, 2, 2, 2]
        labels, clusters = dbscan_1d(x, DbscanParams(0.5, 3, BorderPolicy.AS_NOISE))
        assert labels.tolist() == [-1, 1, -1, -1, 2, -1]
        assert list(clusters) == [Cluster1D(1, 1, 1), Cluster1D(2, 4, 4)]

    def test_all_noise(self):
        labels, clusters = dbscan_1d(np.array([0.0, 10.0, 20.0]), DbscanParams(1.0, 2))
        assert labels.tolist() == [-1, -1, -1]
        assert len(clusters) == 0

    def test_min_points_one_yields_gap_runs(self):
        x = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])
        labels, clusters = dbscan_1d(x, DbscanParams(1.0, 1))
        assert labels.tolist() == [1, 1, 1, 2, 2, 3]
        assert list(clusters) == [
            Cluster1D(1, 0, 2),
            Cluster1D(2, 3, 4),
            Cluster1D(3, 5, 5),
        ]

    def test_empty_input(self):
        labels, clusters = dbscan_1d([], DbscanParams(1.0, 2))
        assert labels.size == 0
        assert len(clusters) == 0
        assert clusters == []

    def test_as_noise_point_embedded_in_range(self):
        """A non-core point can sit strictly between two cores of one cluster.

        The reported range spans it, but the label array keeps it noise, so
        labels stay authoritative for membership under AS_NOISE.
        """
        x = np.array([-0.95, -0.9, 0.0, 0.5, 1.0, 1.9, 1.95])
        labels, clusters = dbscan_1d(x, DbscanParams(1.0, 4, BorderPolicy.AS_NOISE))
        assert labels.tolist() == [-1, -1, 1, -1, 1, -1, -1]
        assert list(clusters) == [Cluster1D(1, 2, 4)]

    def test_first_policy_border_steal_shrinks_later_cluster(self):
        # found by randomized search; the earlier cluster wins the shared
        # border at index 6, leaving cluster 2 with only 3 labeled members
        x = np.array(
            [
                0.09453357932566009,
                0.6303000883248733,
                1.6020963027418649,
                1.6390119539171688,
                1.6622039208200885,
                2.128687790435152,
                2.792612420827771,
                3.3912746379591217,
                3.9643599098345006,
                3.9887620946367375,
            ]
        )
        labels, clusters = dbscan_1d(x, DbscanParams(0.8091246300159174, 4))
        assert labels.tolist() == [-1, -1, 1, 1, 1, 1, 1, 2, 2, 2]
        assert list(clusters) == [Cluster1D(1, 2, 6), Cluster1D(2, 7, 9)]
        assert int(np.sum(labels == 2)) < 4

    def test_work_independent_of_epsilon(self):
        # fixed N: counter totals stay within 2x across four orders of eps
        rng = np.random.default_rng(11)
        x = np.sort(rng.random(5000) * 100)
        totals = []
        for eps in (1e-3, 1e-2, 1e-1, 1e0, 1e1):
            counters = OpCounters()
            dbscan_1d(x, DbscanParams(eps, 4), counters=counters)
            totals.append(counters.total)
        assert max(totals) <= 2 * min(totals)


class TestCircularRuns:
    def test_wrapped_cluster(self):
        x = np.array([0.1, 0.2, 3.0, 6.2])
        labels, clusters = dbscan_1d_circular(
            x, DbscanParams(0.3, 2), CircularDomain(TWO_PI)
        )
        assert labels.tolist() == [1, 1, -1, 1]
        assert list(clusters) == [Cluster1D(1, 3, 5)]
        assert clusters[0].indices(4).tolist() == [3, 0, 1]
        assert clusters[0].size == 3

    def test_paper_quarter_circle_instance(self):
        x = np.sort(np.array([0.0, np.pi / 4, np.pi, TWO_PI - np.pi / 4]))
        labels, clusters = dbscan_1d_circular(
            x, DbscanParams(np.pi / 2, 2), CircularDomain(TWO_PI)
        )
        assert labels.tolist() == [1, 1, -1, 1]
        assert len(clusters) == 1
        assert sorted(clusters[0].indices(4).tolist()) == [0, 1, 3]

    def test_all_equal_values(self):
        labels, clusters = dbscan_1d_circular(
            np.full(5, 1.25), DbscanParams(0.0, 3), CircularDomain(TWO_PI)
        )
        assert labels.tolist() == [1] * 5
        assert list(clusters) == [Cluster1D(1, 0, 4)]

    def test_full_circle_ring(self):
        ring = np.arange(12) * (TWO_PI / 12)
        labels, clusters = dbscan_1d_circular(
            ring, DbscanParams(0.53, 2), CircularDomain(TWO_PI)
        )
        assert labels.tolist() == [1] * 12
        assert len(clusters) == 1
        cluster = clusters[0]
        assert cluster.size == 12
        assert 0 <= cluster.lower < 12
        assert sorted(cluster.indices(12).tolist()) == list(range(12))

    def test_wrapped_lower_is_normalized(self):
        x = np.array([0.2, 3.0, 4.0, 6.0])
        _, clusters = dbscan_1d_circular(
            x, DbscanParams(0.6, 2), CircularDomain(TWO_PI)
        )
        assert list(clusters) == [Cluster1D(1, 3, 4)]
        assert clusters[0].indices(4).tolist() == [3, 0]


class TestOracleEquivalence:
    @given(
        sorted_values(max_size=80),
        st.floats(0.0, 4.0),
        st.integers(1, 5),
        st.sampled_from(POLICIES),
    )
    def test_linear_labels_match(self, x, eps, mp, policy):
        labels, clusters = dbscan_1d(x, DbscanParams(eps, mp, policy))
        expected = naive_dbscan(x, eps, mp, border_policy=policy)
        np.testing.assert_array_equal(labels, expected)
        assert [c.id for c in clusters] == list(range(1, len(clusters) + 1))

    @given(circular_instance(), st.sampled_from(POLICIES))
    def test_circular_labels_match(self, inst, policy):
        x, eps, period, mp = inst
        labels, _ = dbscan_1d_circular(
            x, DbscanParams(eps, mp, policy), CircularDomain(period)
        )
        expected = naive_dbscan(x, eps, mp, period=period, border_policy=policy)
        np.testing.assert_array_equal(labels, expected)

    @given(sorted_values(max_size=60), st.floats(0.0, 3.0), st.integers(1, 5))
    def test_coverage_and_touch_bound(self, x, eps, mp):
        for policy in POLICIES:
            counters = OpCounters()
            labels, clusters = dbscan_1d(
                x, DbscanParams(eps, mp, policy), counters=counters
            )
            assert counters.expand_touches <= 2 * x.size
            ids = {c.id for c in clusters}
            # every point is either noise or carries a real cluster id
            assert set(np.unique(labels)) <= ids | {NOISE}
            if policy is not BorderPolicy.ALL_CLUSTERS:
                for cluster in clusters:
                    members = np.flatnonzero(labels == cluster.id)
                    assert members.size > 0
                    assert cluster.lower <= members.min()
                    assert members.max() <= cluster.upper

    @given(sorted_values(max_size=50), st.floats(0.01, 3.0), st.integers(2, 5))
    def test_closure_property(self, x, eps, mp):
        """Each cluster is the reachability closure of any of its cores.

        Stated for uncontested instances: when no border point is shared
        between clusters (FIRST and ALL label arrays agree), the closure of
        every core equals its cluster's member set exactly.
        """
        first, clusters = dbscan_1d(x, DbscanParams(eps, mp))
        all_pol, _ = dbscan_1d(x, DbscanParams(eps, mp, BorderPolicy.ALL_CLUSTERS))
        if not np.array_equal(first, all_pol):
            return
        lower, upper = calculate_neighborhood(x, eps)
        for cluster in clusters:
            members = np.flatnonzero(first == cluster.id)
            cores = [i for i in members if upper[i] - lower[i] + 1 >= mp]
            assert cores, "every cluster contains at least one core"
            for p in cores:
                closure, _ = density_reachable_closure(x, p, eps, mp)
                np.testing.assert_array_equal(closure, members)


def grouped_run(values, group, params, counters=None):
    """``(labels, clusters)`` of one grouped pass, as dbscan_1d gives them."""
    n, raw, lo, hi, noncore = _ranges(values, params, None, counters, group)
    return _kernels.fill_labels(n, raw, noncore), ClusterSequence(lo, hi)


def assert_members_match_reference(values, params, domain=None, group=None):
    """The range-only _members equals the label rule of members_reference
    on the labels of a full run, and its ``lo`` is that run's lowers."""
    if group is not None:
        labels, clusters = grouped_run(values, group, params)
    elif domain is None:
        labels, clusters = dbscan_1d(values, params)
    else:
        labels, clusters = dbscan_1d_circular(values, params, domain)
    pos, cluster, lo = _members(values, params, domain, None, group)
    np.testing.assert_array_equal(lo, [c.lower for c in clusters])
    want_pos, want_cluster = reference_members(labels, clusters)
    np.testing.assert_array_equal(pos, want_pos)
    np.testing.assert_array_equal(cluster, want_cluster)


def assert_members_match_oracle(x, eps, mp, policy, period=None):
    """_members gives each cluster's oracle member set, in cluster order.

    Under ALL_CLUSTERS that is the reachability closure of a core the
    labels give to the cluster, which also checks the ranges; otherwise
    it is the positions labelled with the cluster's id.
    """
    params = DbscanParams(eps, mp, policy)
    domain = None if period is None else CircularDomain(period)
    if domain is None:
        labels, clusters = dbscan_1d(x, params)
    else:
        labels, clusters = dbscan_1d_circular(x, params, domain)
    pos, cluster, _ = _members(x, params, domain, None)
    assert (np.diff(cluster) >= 0).all()
    if policy is BorderPolicy.ALL_CLUSTERS:
        sizes = np.array([naive_neighborhood(x, i, eps, period).size for i in range(x.size)])
    for k, c in enumerate(clusters):
        if policy is BorderPolicy.ALL_CLUSTERS:
            seed = np.flatnonzero((labels == c.id) & (sizes >= mp))[0]
            want = density_reachable_closure(x, seed, eps, mp, period)[0]
        else:
            want = np.flatnonzero(labels == c.id)
        np.testing.assert_array_equal(pos[cluster == k], want)


class TestMembers:
    @given(
        sorted_values(max_size=80),
        st.floats(0.0, 4.0),
        st.integers(1, 5),
        st.sampled_from(POLICIES),
    )
    def test_linear_members_match_oracle(self, x, eps, mp, policy):
        assert_members_match_oracle(x, eps, mp, policy)

    @given(circular_instance(), st.sampled_from(POLICIES))
    def test_circular_members_match_oracle(self, inst, policy):
        x, eps, period, mp = inst
        assert_members_match_oracle(x, eps, mp, policy, period)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_contested_and_embedded_points(self, policy):
        # a non-core point between two cores of one cluster, and border
        # points that two clusters reach across the seam
        x = np.array([-0.95, -0.9, 0.0, 0.5, 1.0, 1.9, 1.95])
        assert_members_match_oracle(x, 1.0, 4, policy)
        low = [0.0, 0.07, 0.09, 0.11, 0.11, 0.16, 0.16, 0.19]
        high = [6.073, 6.073, 6.093, 6.093, 6.123, 6.133, 6.163, 6.183]
        assert_members_match_oracle(np.array(low + high), 0.1, 5, policy, TWO_PI)

    def test_seeded_fuzz(self):
        for x, eps, period, mp, policy in fuzz_cases(600, seed=23):
            assert_members_match_oracle(x, eps, mp, policy, period)

    def test_seeded_fuzz_matches_label_rule(self):
        # line and ring cases as they are, then the values of each as
        # grouped input: whole, then their first half again in a group
        # that starts below where the first one ends
        for x, eps, period, mp, policy in fuzz_cases(600, seed=23):
            params = DbscanParams(eps, mp, policy)
            domain = None if period is None else CircularDomain(period)
            assert_members_match_reference(x, params, domain)
            half = x[: x.size // 2 + 1]
            group = np.repeat([0, 2], [x.size, half.size])
            assert_members_match_reference(np.concatenate((x, half)), params, group=group)

    @pytest.mark.parametrize("policy", POLICIES[:2])
    @pytest.mark.parametrize("ring", [False, True])
    def test_peak_allocation_stays_within_two_arrays(self, ring, policy):
        # every point a member, in one cluster: equal values on a line, or
        # evenly spaced points whose chain closes around the ring.  The
        # positions and the cluster of each are the two N-arrays; under
        # AS_NOISE the non-core mask and the kept copies come on top
        if ring:
            x = np.arange(PEAK_N) * (4000.0 / PEAK_N)
            params = DbscanParams(2.0 * 4000.0 / PEAK_N, 3, policy)
            domain = CircularDomain(4000.0)
        else:
            x, params, domain = np.zeros(PEAK_N), DbscanParams(0.5, 4, policy), None
        assert peak_allocation(lambda: _members(x, params, domain, None)) <= two_arrays(PEAK_N)
        pos, cluster, lo = _members(x, params, domain, None)
        np.testing.assert_array_equal(pos, np.arange(PEAK_N))
        assert not cluster.any() and lo.tolist() == [0]


@st.composite
def edge_instance(draw, circular):
    """(x, eps, period, min_points) placed on the predicate's rounding edges.

    Lattice values with eps a multiple of the step, duplicate runs, gaps
    of exactly eps, eps = 0 and single points; circular instances add
    values one ulp below the period and eps one ulp below period / 2.
    """
    kind = draw(st.sampled_from(["lattice", "runs", "gaps", "single"]))
    n = 1 if kind == "single" else draw(st.integers(1, 60))
    if kind == "lattice":
        step = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 0.7, 1e-3]))
        x = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))) * step
        eps = step * draw(st.integers(0, 4))
    elif kind == "runs":
        values = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
        repeats = draw(st.lists(st.integers(1, 8), min_size=len(values), max_size=len(values)))
        x = np.repeat(values, repeats)
        eps = draw(st.floats(0.0, 3.0))
    elif kind == "gaps":
        eps = draw(st.sampled_from([0.1, 0.125, 0.3, 1.0, 2.0**-20]))
        gaps = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=n - 1, max_size=n - 1))
        x = np.empty(n)
        x[0] = eps * draw(st.integers(0, 50))
        for i, g in enumerate(gaps, 1):
            x[i] = x[i - 1] + g * eps
    else:
        x = np.array([draw(st.floats(0.0, 10.0))])
        eps = draw(st.floats(0.0, 3.0))
    if draw(st.integers(0, 4)) == 0:
        eps = 0.0
    period = None
    if circular:
        period = draw(st.sampled_from([1.0, np.pi, TWO_PI, 10.0, 0.7]))
        x = np.mod(x, period)
        x[x >= period] = 0.0
        if draw(st.booleans()):
            x = np.append(x, [np.nextafter(period, 0.0), 0.0])
        if eps >= period / 2.0 or draw(st.integers(0, 5)) == 0:
            eps = float(np.nextafter(period / 2.0, 0.0))
    return np.sort(x), float(eps), period, draw(st.integers(1, 5))


def fuzz_cases(count, seed):
    """Seeded (x, eps, period, min_points, policy) cases on rounding edges.

    Cycles through both metrics, all three policies and three value kinds:
    rounded uniform values, lattice values with eps a multiple of the step,
    and duplicate runs.  Circular cases may hold a value one ulp below the
    period and use eps from 0 up to one ulp below period / 2.
    """
    rng = np.random.default_rng(seed)
    for t in range(count):
        circular = t % 2 == 1
        policy = POLICIES[t % 3]
        kind = t // 6 % 3
        n = int(rng.integers(1, 61))
        period = float(rng.choice([0.7, 1.0, np.pi, TWO_PI, 10.0])) if circular else None
        span = period if circular else 10.0
        if kind == 0:
            x = np.round(rng.random(n) * span, int(rng.integers(0, 3)))
            eps = float(rng.random()) * span / 2.0
        elif kind == 1:
            step = float(rng.choice([0.1, 0.25, 1.0 / 3.0, 0.7]))
            x = rng.integers(0, 40, n) * step
            eps = step * int(rng.integers(0, 5))
        else:
            x = rng.choice(rng.random(int(rng.integers(1, 7))) * span, n)
            eps = float(rng.random()) * span / 4.0
        if rng.random() < 0.1:
            eps = 0.0
        if circular:
            x = np.mod(x, period)
            if rng.random() < 0.2:
                x[0] = np.nextafter(period, 0.0)
            x[x >= period] = 0.0
            if eps >= period / 2.0 or rng.random() < 0.1:
                eps = float(np.nextafter(period / 2.0, 0.0))
        yield np.sort(x), eps, period, int(rng.integers(1, 6)), policy


def cluster_counted(x, eps, period, mp, policy, counters=None):
    params = DbscanParams(eps, mp, policy)
    if period is None:
        return dbscan_1d(x, params, counters=counters)
    return dbscan_1d_circular(x, params, CircularDomain(period), counters=counters)


def assert_matches_sweep(x, eps, period, mp, policy):
    """Labels, ranges and derived counters equal the reference sweep's.

    Returns the sweep's bounds and step count.
    """
    lower, upper, ref_labels, ref_lo, ref_hi, steps, touches = run_sweep(
        x, eps, mp, policy, period
    )
    counters = OpCounters()
    labels, clusters = cluster_counted(x, eps, period, mp, policy, counters)
    assert np.array_equal(labels, ref_labels)
    assert clusters == ClusterSequence(ref_lo, ref_hi)
    assert counters == OpCounters(steps, touches)
    return lower, upper, steps


def assert_paths_agree(x, eps, period, mp):
    """Bounds, labels, ranges and counters match the reference sweep exactly.

    Covers every border policy and the bounds and step count of
    ``calculate_neighborhood*``.
    """
    for policy in POLICIES:
        lower, upper, steps = assert_matches_sweep(x, eps, period, mp, policy)
    if period is None:
        got_lower, got_upper = calculate_neighborhood(x, eps)
    else:
        got_lower, got_upper = calculate_neighborhood_circular(x, eps, CircularDomain(period))
    np.testing.assert_array_equal(got_lower, lower)
    np.testing.assert_array_equal(got_upper, upper)
    assert sweep_steps(got_lower, got_upper) == steps


def assert_agrees_with_sweep_and_oracle(x, eps, period, mp):
    """assert_paths_agree, and labels equal to the brute-force oracle's."""
    assert_paths_agree(x, eps, period, mp)
    for policy in POLICIES:
        labels, _ = cluster_counted(x, eps, period, mp, policy)
        want = naive_dbscan(x, eps, mp, period=period, border_policy=policy)
        np.testing.assert_array_equal(labels, want)


def seam_group(n, seed=5):
    """Sorted values on a ring of period 4000 whose dense group straddles
    the seam: nine tenths of them lie within 1 of it, half on each side,
    rounded to four places so that duplicate runs cross block edges too."""
    rng = np.random.default_rng(seed)
    k = 9 * n // 20
    x = np.concatenate((rng.random(k), 3999.0 + rng.random(k), rng.random(n - 2 * k) * 4000.0))
    x = np.round(x, 4)
    x[x >= 4000.0] = 0.0
    return np.sort(x)


class TestCountedPathEquivalence:
    @settings(max_examples=300)
    @given(edge_instance(circular=False))
    def test_linear_edges(self, inst):
        assert_agrees_with_sweep_and_oracle(*inst)

    @settings(max_examples=300)
    @given(edge_instance(circular=True))
    def test_circular_edges(self, inst):
        assert_agrees_with_sweep_and_oracle(*inst)

    @given(sorted_values(max_size=80), st.floats(0.0, 4.0), st.integers(1, 5))
    def test_linear_random(self, x, eps, mp):
        assert_agrees_with_sweep_and_oracle(x, eps, None, mp)

    @given(circular_instance())
    def test_circular_random(self, inst):
        assert_agrees_with_sweep_and_oracle(*inst)

    def test_seeded_fuzz(self):
        cases = 0
        for x, eps, period, mp, policy in fuzz_cases(20_000, seed=17):
            assert_matches_sweep(x, eps, period, mp, policy)
            cases += 1
        assert cases == 20_000

    @pytest.mark.parametrize("block", [2, 7, 64])
    def test_seeded_fuzz_in_small_blocks(self, block, monkeypatch):
        # every fuzz case fits in one default block; blocks of 2 and 7
        # split the same cases into several, and one of 64 just holds the
        # largest of them.  In blocks of 2 most chains cross block edges,
        # often through blocks with no core or with a chain's only core.
        monkeypatch.setattr(_kernels, "VEC_BLOCK", block)
        cases = 0
        for x, eps, period, mp, policy in fuzz_cases(2_000, seed=17):
            lower, upper, _ = assert_matches_sweep(x, eps, period, mp, policy)
            if period is None:
                got_lower, got_upper = calculate_neighborhood(x, eps)
            else:
                got_lower, got_upper = calculate_neighborhood_circular(
                    x, eps, CircularDomain(period)
                )
            np.testing.assert_array_equal(got_lower, lower)
            np.testing.assert_array_equal(got_upper, upper)
            cases += 1
        assert cases == 2_000

    def test_larger_than_a_block(self):
        # chains, duplicate runs and border points straddle block edges
        n = 3 * VEC_BLOCK + 17
        rng = np.random.default_rng(3)
        x = np.sort(np.round(rng.random(n) * 4000.0, 2))
        x[x >= 4000.0] = 0.0
        x.sort()
        for eps, mp in ((0.02, 4), (0.0, 2), (0.05, 12)):
            assert_paths_agree(x, eps, None, mp)
            assert_paths_agree(x, eps, 4000.0, mp)
        # one duplicate run longer than a block
        runs = np.repeat([0.0, 1.0, 1.5], [VEC_BLOCK + 5, 7, 100])
        assert_paths_agree(runs, 0.5, None, 8)
        assert_paths_agree(runs, 0.5, 3.0, 8)
        # the last point reaches more than a block of points across the
        # seam, and more than a block of points reach across it
        x = seam_group(80_000)
        lower, upper = calculate_neighborhood_circular(x, 1.0, CircularDomain(4000.0))
        assert upper[-1] - (x.size - 1) > VEC_BLOCK
        assert x.size - np.searchsorted(upper, x.size, "left") > VEC_BLOCK
        assert_paths_agree(x, 1.0, 4000.0, 5)

    def test_border_points_contested_across_the_seam(self):
        # two clusters, one on each side of the seam, reach the same
        # border points; the last cluster's reach runs past the seam
        low = [0.0, 0.07, 0.09, 0.11, 0.11, 0.16, 0.16, 0.19]
        high = [6.073, 6.073, 6.093, 6.093, 6.123, 6.133, 6.163, 6.183]
        assert_paths_agree(np.array(low + high), 0.1, TWO_PI, 5)
        x = np.array([0.0336, 0.0910, 0.1549, 0.1699, 0.1872, 6.1526, 6.1660, 6.1955, 6.2028, 6.2486])
        assert_paths_agree(x, 0.1, TWO_PI, 4)

    def test_peak_allocation_stays_within_two_arrays(self):
        # the separated-cluster input of the linear-1m benchmark workload:
        # lower and upper, then labels, plus at most one bool mask and
        # small blocks
        n = 1_000_000
        rng = np.random.Generator(np.random.Philox(1))
        x = np.sort(generate_separated_clusters(n, rng))
        params = DbscanParams(scaling_epsilon(n), 4)
        assert peak_allocation(lambda: dbscan_1d(x, params)) <= two_arrays(n)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_circular_peak_allocation_stays_within_two_arrays(self, policy):
        # the same bound on a ring whose dense group straddles the seam
        n = 900_000
        x = seam_group(n)
        params = DbscanParams(1.0, 5, policy)
        peak = peak_allocation(lambda: dbscan_1d_circular(x, params, CircularDomain(4000.0)))
        assert peak <= two_arrays(n)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dense_block_peak_allocation_stays_within_two_arrays(self, policy):
        # equal values: every point reaches the last, so the last block
        # counts the upper bounds of all n points
        x = np.zeros(PEAK_N)
        params = DbscanParams(0.5, 4, policy)
        assert peak_allocation(lambda: dbscan_1d(x, params)) <= two_arrays(PEAK_N)
        labels, clusters = dbscan_1d(x, params)
        assert (labels == 1).all() and list(clusters) == [Cluster1D(1, 0, PEAK_N - 1)]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("spacing", [2.0, 0.5])
    def test_ring_peak_allocation_stays_within_two_arrays(self, spacing, policy):
        # evenly spaced points on a ring: eps half the spacing leaves no
        # core, eps twice it closes one chain around the whole ring
        x = np.arange(PEAK_N) * (4000.0 / PEAK_N)
        params = DbscanParams(4000.0 / PEAK_N / spacing, 3, policy)
        domain = CircularDomain(4000.0)
        peak = peak_allocation(lambda: dbscan_1d_circular(x, params, domain))
        assert peak <= two_arrays(PEAK_N)
        labels, clusters = dbscan_1d_circular(x, params, domain)
        if spacing > 1.0:
            assert (labels == NOISE).all() and not len(clusters)
        else:
            assert (labels == 1).all() and list(clusters) == [Cluster1D(1, 0, PEAK_N - 1)]

    @pytest.mark.parametrize("dense", [False, True])
    def test_grouped_peak_allocation_stays_within_three_arrays(self, dense):
        # stage 2's call: its (group, value) search keys take two
        # N-arrays; they go before lower comes.  Either 1024 groups of 1024
        # random values, or half the values equal in one group (the block
        # that holds its end counts the bounds of the whole run) and groups
        # of 1000 after it
        n = PEAK_N
        if dense:
            half = n // 2
            group = np.concatenate((np.zeros(half, np.int64), 1 + np.arange(n - half) // 1000))
            x = np.concatenate((np.zeros(half), np.arange(n - half) % 1000 * 0.01))
        else:
            group = np.arange(n) // 1024
            x = np.sort(np.random.default_rng(7).random((1024, 1024)), axis=1).ravel()
        params = DbscanParams(0.002, 4)
        peak = peak_allocation(lambda: _members(x, params, None, None, group))
        assert peak <= 3 * 8 * n + n + PEAK_SLACK


# Peak-allocation bounds: labels, lower and upper are N int64 arrays each,
# a bool mask one byte a point, and the block scratch fits the slack.  At
# PEAK_N points one N-array is four times the slack.
PEAK_SLACK = 2 * 2**20
PEAK_N = 1 << 20


def two_arrays(n):
    return 2 * 8 * n + n + PEAK_SLACK


def peak_allocation(run):
    """Peak bytes traced while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_labels_follow_ranges(x, eps, period, mp, policy):
    """Each label is the largest id among the clusters whose range, taken
    modulo n, covers the point; every other point is NOISE, and so is
    every non-core under AS_NOISE."""
    params = DbscanParams(eps, mp, policy)
    if period is None:
        labels, clusters = dbscan_1d(x, params)
        lower, upper = calculate_neighborhood(x, eps)
    else:
        domain = CircularDomain(period)
        labels, clusters = dbscan_1d_circular(x, params, domain)
        lower, upper = calculate_neighborhood_circular(x, eps, domain)
    want = np.full(x.size, NOISE, np.int64)
    for cluster in clusters:  # ascending ids: a later cluster overwrites
        want[cluster.indices(x.size)] = cluster.id
    if policy is BorderPolicy.AS_NOISE:
        want[upper - lower < mp - 1] = NOISE
    np.testing.assert_array_equal(labels, want)


class TestLabelRule:
    """The labels follow from the public ranges by one rule under every
    policy; only ALL_CLUSTERS has ranges that share points."""

    def test_seeded_fuzz(self):
        for case in fuzz_cases(3_000, seed=29):
            assert_labels_follow_ranges(*case)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_lattice_and_seam(self, policy):
        # on a lattice of 2n slots holding n points, eps of 2-4 steps
        # leaves border points that two clusters reach (13-31 of the
        # ALL_CLUSTERS ranges overlap their successor), and one cluster
        # crosses the seam; the seam groups close across it, and the last
        # two rings have border points contested across it
        x = np.sort(np.random.default_rng(12).integers(0, 40_000, 20_000)) * 0.1
        for k, mp in ((2, 4), (3, 6), (4, 8)):
            assert_labels_follow_ranges(x, 0.1 * k, None, mp, policy)
            assert_labels_follow_ranges(x, 0.1 * k, 4000.0, mp, policy)
        x = seam_group(20_000, seed=11)
        for eps, mp in ((0.0003, 3), (0.001, 5), (0.01, 40)):
            assert_labels_follow_ranges(x, eps, None, mp, policy)
            assert_labels_follow_ranges(x, eps, 4000.0, mp, policy)
        low = [0.0, 0.07, 0.09, 0.11, 0.11, 0.16, 0.16, 0.19]
        high = [6.073, 6.073, 6.093, 6.093, 6.123, 6.133, 6.163, 6.183]
        assert_labels_follow_ranges(np.array(low + high), 0.1, TWO_PI, 5, policy)
        x = np.array([0.0336, 0.0910, 0.1549, 0.1699, 0.1872, 6.1526, 6.1660, 6.1955, 6.2028, 6.2486])
        assert_labels_follow_ranges(x, 0.1, TWO_PI, 4, policy)


@st.composite
def grouped_instance(draw):
    """Groups of lattice values, each sorted on its own, for the stage-2 pass.

    Values lie on a lattice, so duplicates are common and so are gaps of
    exactly epsilon (binary steps) or gaps that rounding puts on either
    side of it (decimal steps).  A group may start at or below the value
    its predecessor ended on, and groups may be smaller than min_points or
    hold a single value.
    """
    if draw(st.booleans()):
        eps = draw(st.sampled_from([0.0, 0.125, 0.5, 1.0]))
        step = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
        base = draw(st.sampled_from([0.0, 1.0, -3.0, 1e6]))
    else:
        eps = draw(st.sampled_from([0.1, 0.3, 0.7]))
        step = draw(st.sampled_from([0.1, 0.3, 0.7]))
        base = draw(st.sampled_from([0.1, 0.7, -2.9, 1e3 + 0.1]))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    groups = [
        np.sort(base + step * np.array(draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))))
        for k in sizes
    ]
    ids = np.cumsum(draw(st.lists(st.integers(1, 2), min_size=len(sizes), max_size=len(sizes))))
    mp = draw(st.integers(1, 5))
    return groups, ids, eps, mp


def assert_groups_match_per_group_runs(groups, ids, eps, mp, policy):
    """One grouped pass equals dbscan_1d on each group in turn: labels with
    ids counted on, ranges shifted by the group start, summed counters."""
    params = DbscanParams(eps, mp, policy)
    values = np.concatenate(groups)
    group = np.repeat(ids, [g.size for g in groups])
    counters = OpCounters()
    labels, clusters = grouped_run(values, group, params, counters)
    want_labels, want_ranges = [], []
    want = OpCounters()
    start = 0
    for g in groups:
        part_labels, part = dbscan_1d(g, params, counters=want)
        found = len(want_ranges)
        want_labels.append(np.where(part_labels == NOISE, NOISE, part_labels + found))
        want_ranges += [(c.id + found, c.lower + start, c.upper + start) for c in part]
        start += g.size
    np.testing.assert_array_equal(labels, np.concatenate(want_labels))
    assert [tuple(c) for c in clusters] == want_ranges
    assert counters == want
    # no bound leaves its group, and the one-group bounds are unchanged
    lower, upper = linear_bounds(values, eps, group)
    assert (group[lower] == group).all() and (group[upper] == group).all()
    start = 0
    for g in groups:
        one_lower, one_upper = calculate_neighborhood(g, eps)
        np.testing.assert_array_equal(lower[start : start + g.size], one_lower + start)
        np.testing.assert_array_equal(upper[start : start + g.size], one_upper + start)
        start += g.size


def lattice_group_cases(count, seed):
    """Seeded grouped lattice cases ``(groups, ids, eps, min_points)``: up
    to six groups of 1-12 values on a lattice of steps 0.1, 0.125, 0.3 or
    0.5, each sorted on its own, with ids rising by 1 or 2 and eps zero,
    one step or two."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sizes = rng.integers(1, 13, int(rng.integers(1, 7)))
        step = float(rng.choice([0.1, 0.125, 0.3, 0.5]))
        groups = [np.sort(step * rng.integers(0, 9, k)) for k in sizes]
        ids = np.cumsum(rng.integers(1, 3, sizes.size))
        eps = step * int(rng.integers(0, 3))
        yield groups, ids, eps, int(rng.integers(1, 6))


class TestRecluster:
    """The stage-2 pass: every group clustered on its own, in one run."""

    @settings(max_examples=300)
    @given(grouped_instance(), st.sampled_from(POLICIES))
    def test_groups_match_per_group_runs(self, case, policy):
        assert_groups_match_per_group_runs(*case, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_group_boundary_cases(self, policy):
        cases = [
            # equal values on both sides of a boundary, and gaps of exactly eps
            ([np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.5, 2.0])], [0, 1], 0.5, 2),
            # a group ending above where the next one starts
            ([np.array([2.0, 2.0, 2.0]), np.array([0.0, 0.0, 2.0, 2.0])], [0, 1], 0.0, 2),
            # groups smaller than min_points between dense ones
            ([np.full(4, 3.0), np.array([3.0]), np.array([3.0, 3.0]), np.full(5, 3.0)],
             [0, 1, 2, 3], 1.0, 3),
            # one group, and a long run of duplicates across a block
            ([np.repeat([0.0, 1.0], [VEC_BLOCK + 3, 4])], [0], 0.5, 4),
            ([np.repeat([0.0, 0.5], [5, VEC_BLOCK]), np.repeat([0.0, 0.5], [VEC_BLOCK, 3])],
             [0, 1], 0.5, 4),
        ]
        for groups, ids, eps, mp in cases:
            assert_groups_match_per_group_runs(groups, np.array(ids), eps, mp, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_small_blocks_match_one_block(self, policy, monkeypatch):
        # blocks of 7, on grouped lattice values, against the one block
        # that holds every case by default
        cases = [
            (np.concatenate(groups), np.repeat(ids, [g.size for g in groups]),
             DbscanParams(eps, mp, policy))
            for groups, ids, eps, mp in lattice_group_cases(300, seed=23)
        ]
        want = [(linear_bounds(x, p.epsilon, g), grouped_run(x, g, p)) for x, g, p in cases]
        monkeypatch.setattr(_kernels, "VEC_BLOCK", 7)
        for (x, g, p), ((lower, upper), (labels, clusters)) in zip(cases, want):
            got_lower, got_upper = linear_bounds(x, p.epsilon, g)
            np.testing.assert_array_equal(got_lower, lower)
            np.testing.assert_array_equal(got_upper, upper)
            got_labels, got_clusters = grouped_run(x, g, p)
            np.testing.assert_array_equal(got_labels, labels)
            assert got_clusters == clusters

    def test_matches_fresh_run(self):
        rng = np.random.default_rng(9)
        params = DbscanParams(0.15, 3)
        for _ in range(50):
            x = np.sort(rng.random(int(rng.integers(1, 80))))
            labels, clusters = grouped_run(x, np.zeros(x.size, np.int64), params)
            fresh_labels, fresh_clusters = dbscan_1d(x, params)
            np.testing.assert_array_equal(labels, fresh_labels)
            assert list(clusters) == list(fresh_clusters)

    def test_larger_epsilon_never_splits_dense_slice(self):
        """Growing eps can only merge clusters of a slice that was itself
        one cluster at the base eps (dense); derived over 100 random slices."""
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            n = int(rng.integers(20, 200))
            x = np.sort(rng.random(n) * 10)
            eps0 = float(rng.random() * 0.5 + 0.02)
            mp = int(rng.integers(2, 5))
            _, clusters = dbscan_1d(x, DbscanParams(eps0, mp))
            if not len(clusters):
                continue
            pick = clusters[int(rng.integers(0, len(clusters)))]
            piece = x[pick.lower : pick.upper + 1]
            previous = None
            for mult in (1.0, 1.5, 2.5, 5.0, 20.0):
                _, sub = dbscan_1d(piece, DbscanParams(eps0 * mult, mp))
                if previous is not None:
                    assert len(sub) <= previous
                previous = len(sub)
            checked += 1

    def test_slice_below_min_points_is_noise(self):
        x = np.array([1.0, 1.01, 1.0, 1.01])
        labels, clusters = grouped_run(x, np.array([0, 0, 1, 1]), DbscanParams(0.5, 3))
        assert labels.tolist() == [-1, -1, -1, -1]
        assert len(clusters) == 0

    def test_values_checked_like_dbscan_1d(self):
        params = DbscanParams(0.5, 2)

        def run(values, group=(0, 0, 0)):
            return _members(values, params, None, None, np.array(group))

        with pytest.raises(UnsortedInputError):
            run([3.0, 1.0, 2.0])
        with pytest.raises(UnsortedInputError):
            run([1.0, 3.0, 2.0], (0, 1, 1))
        for bad in ([1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [np.nan, 1.0, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                run(bad, (0, 0, 1))
        with pytest.raises(ValueError, match="one-dimensional"):
            run([[1.0, 2.0], [3.0, 4.0]])
        # a new group may start below the last one's end
        pos, cluster, lo = run([3.0, 1.0, 1.2], (0, 1, 1))
        assert (pos.tolist(), cluster.tolist(), lo.tolist()) == ([1, 2], [0, 0], [1])
        labels, _ = grouped_run(np.array([3.0, 1.0, 1.2]), np.array([0, 1, 1]), params)
        assert labels.tolist() == [-1, 1, 1]


class TestNearFloatMax:
    """Search keys x + eps past the float max overflow to inf, which
    searches to the array end, where the exact predicate corrects them.
    The overflow must not warn: the test settings make a warning fail."""

    X = np.array([0.0, 1e307, 1.5e308, 1.6e308, 1.7e308])
    EPS = 1e308
    # a ring whose linear keys and seam keys (x + eps) - period overflow
    RING = np.array([0.0, 1e307, 1.5e308, 1.6e308, 1.7e308, 1.75e308])
    RING_EPS, PERIOD = 8.9e307, 1.79e308

    @pytest.mark.parametrize("policy", POLICIES)
    def test_linear_labels_match_oracle(self, policy):
        labels, _ = dbscan_1d(self.X, DbscanParams(self.EPS, 2, policy))
        want = naive_dbscan(self.X, self.EPS, 2, border_policy=policy)
        np.testing.assert_array_equal(labels, want)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_circular_labels_match_oracle(self, policy):
        params = DbscanParams(self.RING_EPS, 2, policy)
        labels, _ = dbscan_1d_circular(self.RING, params, CircularDomain(self.PERIOD))
        want = naive_dbscan(self.RING, self.RING_EPS, 2, self.PERIOD, policy)
        np.testing.assert_array_equal(labels, want)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_grouped_labels_match_oracle(self, policy):
        params = DbscanParams(self.EPS, 2, policy)
        x = np.concatenate((self.X, self.X))
        labels, _ = grouped_run(x, np.repeat([0, 1], self.X.size), params)
        one = naive_dbscan(self.X, self.EPS, 2, border_policy=policy)
        later = np.where(one == NOISE, NOISE, one + one.max())
        np.testing.assert_array_equal(labels, np.concatenate((one, later)))

    def test_neighborhoods_match_oracle(self):
        lower, upper = calculate_neighborhood(self.X, self.EPS)
        for i in range(self.X.size):
            want = naive_neighborhood(self.X, i, self.EPS)
            np.testing.assert_array_equal(np.arange(lower[i], upper[i] + 1), want)
        n = self.RING.size
        domain = CircularDomain(self.PERIOD)
        lower, upper = calculate_neighborhood_circular(self.RING, self.RING_EPS, domain)
        for i in range(n):
            want = naive_neighborhood(self.RING, i, self.RING_EPS, self.PERIOD)
            np.testing.assert_array_equal(np.sort(np.arange(lower[i], upper[i] + 1) % n), want)


class TestParams:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            DbscanParams(-0.1, 2)
        with pytest.raises(ValueError):
            DbscanParams(np.inf, 2)
        # a string or None is refused by the field's name
        for bad in ("0.1", None):
            with pytest.raises(ValueError, match=r"^epsilon must be a number, got"):
                DbscanParams(bad, 2)
        DbscanParams(0.0, 1)  # zero radius is allowed
        DbscanParams(np.float32(0.1), 2)
        DbscanParams(np.array(0.1), 2)

    def test_min_points_validation(self):
        with pytest.raises(ValueError):
            DbscanParams(1.0, 0)
        with pytest.raises(ValueError):
            DbscanParams(1.0, 2.5)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="min_points must be an integer >= 1"):
                DbscanParams(1.0, bad)

    def test_border_policy_validation(self):
        # a policy's value is refused when the params are made, not when
        # they are first used
        with pytest.raises(ValueError, match=r"^border_policy must be a BorderPolicy, got 'first'$"):
            DbscanParams(0.1, 2, "first")

    def test_period_validation(self):
        with pytest.raises(ValueError):
            CircularDomain(0.0)
        with pytest.raises(ValueError):
            CircularDomain(-1.0)
        with pytest.raises(ValueError, match=r"^period must be a number, got '6\.28'$"):
            CircularDomain("6.28")
        CircularDomain(np.array(6.28))

    def test_infinite_period_rejected(self):
        with pytest.raises(ValueError, match=r"^period must be finite and > 0, got inf$"):
            CircularDomain(math.inf)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda big: DbscanParams(big, 3), "epsilon must be finite and >= 0"),
            (lambda big: CircularDomain(big), "period must be finite and > 0"),
            (lambda big: SegmentationParams(0.1, big, 3), "epsilon_dist must be > 0"),
            (lambda big: NoiseModel(big), "sigma must be >= 0"),
        ],
        ids=["DbscanParams", "CircularDomain", "SegmentationParams", "NoiseModel"],
    )
    def test_int_past_float_range_rejected(self, make, message):
        # an int too large for a float reads as inf, which no field takes
        big = 10**400
        with pytest.raises(ValueError) as raised:
            make(big)
        assert str(raised.value) == f"{message}, got {big}"


class TestClusterSequence:
    def test_sequence_protocol(self):
        x = np.sort(np.random.default_rng(0).random(200))
        _, clusters = dbscan_1d(x, DbscanParams(0.004, 2))
        assert len(clusters) > 2
        assert clusters[0].id == 1
        assert clusters[-1].id == len(clusters)
        assert clusters[1:3] == list(clusters)[1:3]
        assert list(reversed(list(clusters)))[0] == clusters[-1]
        with pytest.raises(IndexError):
            clusters[len(clusters)]

    def test_index_below_minus_length_raises(self):
        clusters = ClusterSequence(np.array([0, 4]), np.array([2, 6]))
        assert clusters[-2].id == 1
        with pytest.raises(IndexError, match=r"^cluster index out of range$"):
            clusters[-3]

    def test_equality_compares_every_range(self):
        clusters = ClusterSequence(np.array([0, 4]), np.array([2, 6]))
        assert clusters == ClusterSequence(np.array([0, 4]), np.array([2, 6]))
        assert clusters != ClusterSequence(np.array([0, 4]), np.array([2, 7]))
        assert clusters != ClusterSequence(np.array([0, 3]), np.array([2, 6]))
        assert clusters == list(clusters)
        assert clusters != [*clusters, Cluster1D(3, 8, 9)]
        assert clusters != [clusters[0], Cluster1D(2, 4, 7)]


def test_neighborhood_rejects_negative_epsilon():
    with pytest.raises(ValueError, match=r"^epsilon must be finite and >= 0, got -1\.0$"):
        calculate_neighborhood(np.array([0.0, 1.0]), -1.0)
    # the same check as DbscanParams, so a string is no number here either
    with pytest.raises(ValueError, match=r"^epsilon must be a number, got '0\.5'$"):
        calculate_neighborhood(np.array([0.0, 1.0]), "0.5")


def test_cluster_sequence_repr_lists_a_few_clusters():
    clusters = ClusterSequence(np.array([0, 4]), np.array([2, 6]))
    assert repr(clusters) == (
        "ClusterSequence([Cluster1D(id=1, lower=0, upper=2), Cluster1D(id=2, lower=4, upper=6)])"
    )


def test_cluster_sequence_repr_counts_many_clusters():
    clusters = ClusterSequence(np.arange(0, 14, 2), np.arange(1, 15, 2))
    assert repr(clusters) == "ClusterSequence(<7 clusters>)"


def test_cluster_sequence_is_not_equal_to_an_unrelated_type():
    clusters = ClusterSequence(np.array([0]), np.array([2]))
    assert clusters.__eq__(5) is NotImplemented
    assert clusters != 5 and clusters != "ClusterSequence"
