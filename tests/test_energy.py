import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdim as rd
import rieszdim.cloud as cloud_mod
from conftest import random_cloud


def naive_energy(points, s):
    """Independent double-loop oracle with exact accumulation."""
    pts = [list(map(float, p)) for p in points]
    n = len(pts)
    terms = []
    for i in range(n):
        for j in range(n):
            if i != j:
                r = math.dist(pts[i], pts[j])
                terms.append(r**-s)
    return math.fsum(terms) / (n * (n - 1))


def test_two_point_pair():
    c = rd.PointCloud([[0.0], [0.5]])
    assert rd.discrete_energy(c, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_zero_exponent_is_exactly_one():
    for seed in range(3):
        c = random_cloud(seed, 17, 2)
        assert rd.discrete_energy(c, 0.0) == 1.0


def test_three_by_three_grid_matches_brute_force():
    grid = [[float(x), float(y)] for x in range(3) for y in range(3)]
    c = rd.PointCloud(grid)
    assert rd.discrete_energy(c, 1.0) == pytest.approx(naive_energy(grid, 1.0), rel=1e-13)


def test_blocked_matches_naive_on_random_clouds():
    for seed in range(5):
        c = random_cloud(seed, 60, 3)
        for s in (0.3, 1.0, 1.7, 2.0):
            assert rd.discrete_energy(c, s) == pytest.approx(
                naive_energy(c.points, s), rel=1e-10
            )


def test_small_blocks_match_single_block(monkeypatch):
    c = random_cloud(9, 200, 2)
    a = rd.discrete_energy(c, 0.7)
    monkeypatch.setattr(cloud_mod, "_TILE", 32 * 32)
    b = rd.discrete_energy(c, 0.7)
    assert a == pytest.approx(b, rel=1e-10)


def test_thread_count_does_not_change_bits(monkeypatch):
    monkeypatch.setattr(cloud_mod, "_TILE", 64 * 64)
    c = random_cloud(3, 300, 2)
    for s in (0.5, 1.3):
        serial = rd.discrete_energy(c, s, threads=1)
        parallel = rd.discrete_energy(c, s, threads=4)
        assert serial == parallel  # bit identical


def test_thread_counts_below_one_run_serially(monkeypatch):
    # zero or negative counts must neither fail nor skip blocks
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)
    c = random_cloud(5, 300, 2)
    want = rd.discrete_energy_multi(c, [0.0, 0.5, 1.3], threads=1).tolist()
    for t in (0, -1, -2, -5):
        got = rd.discrete_energy_multi(c, [0.0, 0.5, 1.3], threads=t)
        assert got.tolist() == want
    radius = 0.3 * c.diameter()
    assert rd.truncated_energy(c, 0.5, radius, threads=-2) == rd.truncated_energy(
        c, 0.5, radius, threads=1
    )
    prof = [rd.energy_profile(c, [0.5], [10, 100, 300], threads=t).values.tolist() for t in (1, 0, -2)]
    assert prof[0] == prof[1] == prof[2]


def test_concurrent_callers_get_identical_bits(monkeypatch):
    # eight callers at once, asking for 2..5 workers, so the shared pool is
    # grown while other callers use it
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)
    c = random_cloud(7, 400, 2)
    want = rd.discrete_energy_multi(c, [0.5, 1.5]).tolist()
    results = []

    def call(workers):
        results.append(
            rd.discrete_energy_multi(c, [0.5, 1.5], threads=workers).tolist()
        )

    callers = [threading.Thread(target=call, args=(2 + i % 4,)) for i in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert results == [want] * len(callers)


def test_repeat_runs_are_bit_identical():
    c = random_cloud(4, 150, 2)
    assert rd.discrete_energy(c, 0.9) == rd.discrete_energy(c, 0.9)


def test_scaling_law():
    # J(lambda P, s) = lambda^{-s} J(P, s)
    for seed in range(4):
        c = random_cloud(seed, 40, 2)
        for lam in (0.25, 3.0, 17.5):
            scaled = rd.PointCloud(lam * c.points)
            for s in (0.4, 1.1):
                assert rd.discrete_energy(scaled, s) == pytest.approx(
                    lam**-s * rd.discrete_energy(c, s), rel=1e-12
                )


def test_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    for seed in range(4):
        c = random_cloud(seed, 35, 3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = rd.PointCloud(c.points @ q.T + shift)
        for s in (0.5, 1.5):
            assert rd.discrete_energy(moved, s) == pytest.approx(
                rd.discrete_energy(c, s), rel=1e-10
            )


def test_monotone_in_s_for_small_diameter():
    # every pairwise distance <= 1 makes r^{-s} nondecreasing in s
    for seed in range(3):
        c = random_cloud(seed, 30, 1)  # inside [0, 1]
        values = [rd.discrete_energy(c, s) for s in (0.0, 0.3, 0.8, 1.4, 1.9)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_too_few_points():
    with pytest.raises(rd.TooFewPoints):
        rd.discrete_energy(rd.PointCloud([[0.0]]), 1.0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        rd.discrete_energy(rd.PointCloud([[0.0], [1.0]]), -0.5)


# ---------------------------------------------------------------- profiles


def test_profile_zero_exponent_row():
    prof = rd.energy_profile(rd.grid_1d(4), [0.0], [2, 3, 4])
    assert prof.values[0].tolist() == [1.0, 1.0, 1.0]


def test_profile_single_cell_matches_direct_call():
    c = rd.grid_1d(100)
    prof = rd.energy_profile(c, [0.5], [100])
    assert prof.values[0, 0] == pytest.approx(rd.discrete_energy(c, 0.5), rel=1e-10)
    assert prof.row(0.5)[0] == prof.values[0, 0]


def test_profile_matches_per_prefix_calls():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3, (0, 2)),), 5)
    c = rd.cantor_points(spec)
    prof = rd.energy_profile(c, [0.5], [16, 32, 64])
    for j, n in enumerate(prof.n_grid):
        direct = rd.discrete_energy(c.prefix(n), 0.5)
        assert prof.values[0, j] == pytest.approx(direct, rel=1e-10)


def test_profile_matches_naive_on_random_cloud():
    c = random_cloud(21, 48, 2)
    prof = rd.energy_profile(c, [0.4, 1.2], [8, 23, 48])
    for i, s in enumerate(prof.s_grid):
        for j, n in enumerate(prof.n_grid):
            assert prof.values[i, j] == pytest.approx(
                naive_energy(c.points[:n], s), rel=1e-10
            )


def test_profile_columns_nondecreasing_in_s_when_diameter_small():
    c = random_cloud(5, 40, 1)
    prof = rd.energy_profile(c, [0.1, 0.5, 1.0, 1.5], [10, 20, 40])
    diffs = np.diff(prof.values, axis=0)
    assert np.all(diffs >= 0)


def test_profile_grid_validation():
    c = rd.grid_1d(8)
    with pytest.raises(ValueError):
        rd.energy_profile(c, [0.5, 0.4], [4, 8])
    with pytest.raises(ValueError):
        rd.energy_profile(c, [0.5], [8, 4])
    with pytest.raises(rd.TooFewPoints):
        rd.energy_profile(c, [0.5], [4, 16])
    with pytest.raises(rd.TooFewPoints):
        rd.energy_profile(c, [0.5], [1, 4])


def test_energy_profile_type_validation():
    with pytest.raises(ValueError):
        rd.EnergyProfile((0.5,), (2, 3), np.ones((2, 2)))
    with pytest.raises(ValueError):
        rd.EnergyProfile((0.5,), (2,), -np.ones((1, 1)))


# ---------------------------------------------------------------- potential


def test_potential_midpoint():
    c = rd.PointCloud([[0.0], [1.0]])
    assert rd.riesz_potential_discrete(c, [0.5], 1.0) == pytest.approx(2.0, rel=1e-15)


def test_potential_singular_point_is_inf():
    c = rd.PointCloud([[0.0], [1.0]])
    assert rd.riesz_potential_discrete(c, [0.0], 1.0) == math.inf


def test_potential_zero_exponent():
    c = rd.PointCloud([[0.0], [1.0]])
    assert rd.riesz_potential_discrete(c, [0.0], 0.0) == 1.0


def test_potential_far_point_matches_nine_term_sum():
    grid = [[float(x), float(y)] for x in range(3) for y in range(3)]
    c = rd.PointCloud(grid)
    x = [10.0, 10.0]
    oracle = math.fsum(1.0 / math.dist(x, p) ** 2 for p in grid) / 9.0
    assert rd.riesz_potential_discrete(c, x, 2.0) == pytest.approx(oracle, rel=1e-13)


def test_potential_dimension_mismatch():
    c = rd.PointCloud([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(rd.DimensionMismatch):
        rd.riesz_potential_discrete(c, [0.5], 1.0)


# ---------------------------------------------------------------- truncated


def test_truncated_fully_open_cutoff_is_exact():
    c = rd.PointCloud([[0.0], [0.5]])
    # separation 0.5, cutoff outer radius 2R < 0.5: the kernel is untouched
    value = rd.truncated_energy(c, 1.0, 0.2)
    assert value == 1.0  # (1/4) * (2 + 2), exactly ((n-1)/n) J
    assert value == pytest.approx(0.5 * rd.discrete_energy(c, 1.0), abs=0)


def test_truncated_fully_closed_cutoff_is_zero():
    c = rd.PointCloud([[0.0], [0.5]])
    assert rd.truncated_energy(c, 1.0, 2.0) == 0.0


def test_truncated_sweep_converges_to_scaled_energy():
    c = rd.grid_1d(8)
    target = (7.0 / 8.0) * rd.discrete_energy(c, 0.5)
    gaps = [abs(rd.truncated_energy(c, 0.5, r) - target) for r in (1.0, 0.1, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] == 0.0  # exact once R < min gap / 2


def test_truncated_exactness_threshold():
    c = random_cloud(2, 25, 2)
    radius = 0.49 * c.min_gap()
    target = (c.n - 1) / c.n * rd.discrete_energy(c, 0.8)
    assert rd.truncated_energy(c, 0.8, radius) == pytest.approx(target, rel=1e-15)


def test_truncated_validation():
    c = rd.PointCloud([[0.0], [0.5]])
    with pytest.raises(ValueError):
        rd.truncated_energy(c, 0.5, 0.0)
    with pytest.raises(rd.TooFewPoints):
        rd.truncated_energy(rd.PointCloud([[0.0]]), 0.5, 1.0)


# ---------------------------------------------------------------- overflow


def test_overflowing_kernel_gives_inf_not_nan():
    # the 1e-100 gap makes one term 1e400 at s = 4
    c = rd.PointCloud([[0.0], [1e-100], [0.5]])
    assert rd.discrete_energy(c, 4.0) == math.inf
    multi = rd.discrete_energy_multi(c, [4.0, 1.0])
    assert multi[0] == math.inf
    assert multi[1] == pytest.approx((1e100 + 2.0 + 1.0 / (0.5 - 1e-100)) / 3.0)
    prof = rd.energy_profile(c, [1.0, 4.0], [2, 3])
    assert prof.values[1].tolist() == [math.inf, math.inf]
    assert np.all(np.isfinite(prof.values[0]))
    assert rd.riesz_potential_discrete(c, [1e-101], 4.0) == math.inf


def test_overflowing_sum_of_finite_terms_gives_inf():
    # each term is about 1e308, finite; their sum is not
    c = rd.PointCloud([[0.0], [1e-154], [2e-154]])
    assert rd.discrete_energy(c, 2.0) == math.inf
    prof = rd.energy_profile(c, [2.0], [2, 3])
    assert prof.values[0, 0] == pytest.approx(1e308, rel=1e-12)
    assert prof.values[0, 1] == math.inf


def test_distinct_points_whose_squared_distance_underflows():
    # 1e-300 squared underflows to 0, yet the points are distinct
    c = rd.PointCloud([[0.0], [1e-300], [0.5]])
    want = (1e150 + 2.0 * 0.5**-0.5) / 3.0  # about 3.3e149
    assert rd.discrete_energy(c, 0.5) == pytest.approx(want, rel=1e-12)
    assert rd.discrete_energy(c, 4.0) == math.inf
    assert rd.discrete_energy_multi(c, [0.0, 0.5]).tolist() == pytest.approx([1.0, want], rel=1e-12)
    prof = rd.energy_profile(c, [0.5], [2, 3])
    assert prof.values[0].tolist() == pytest.approx([1e150, want], rel=1e-12)
    # both coordinates tiny: the distance is 5e-300
    c2 = rd.PointCloud([[0.0, 0.0], [3e-300, 4e-300], [0.5, 0.2]])
    far = 2.0 * 0.29**-0.25
    assert rd.discrete_energy(c2, 0.5) == pytest.approx(
        (5e-300**-0.5 + far) / 3.0, rel=1e-12
    )
    # the truncated kernel weights the tiny pair at 0
    assert rd.truncated_energy(c, 0.5, 0.1) == pytest.approx(
        2.0 * 0.5**-0.5 / 4.5, rel=1e-15
    )


def test_exactly_coinciding_points_still_raise():
    c = rd.PointCloud([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]], _validate=False)
    with pytest.raises(rd.DuplicatePoints):
        rd.discrete_energy(c, 0.5)


def test_slln_path_overflow_gives_inf(monkeypatch):
    import rieszdim.stats as stats_mod

    pts = np.linspace(0.0, 1.0, 100)
    pts[1] = 1e-100  # x_1 and x_2 nearly coincide
    monkeypatch.setattr(stats_mod, "sample", lambda m, n, seed: rd.PointCloud(pts))
    path = rd.slln_path(rd.UniformCube(1), 4.0, 100, seed=0)
    assert all(j == math.inf for _, j in path)


# ---------------------------------------------------------------- properties

coordinate = st.integers(-(10**4), 10**4).map(lambda k: k / 997.0)
exponent = st.floats(0.0, 2.5)


@st.composite
def clouds(draw, max_size=40):
    d = draw(st.integers(1, 3))
    points = draw(
        st.lists(st.tuples(*[coordinate] * d), min_size=2, max_size=max_size, unique=True)
    )
    return rd.PointCloud(points)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), exponent, st.randoms(use_true_random=False))
def test_energy_ignores_point_order(cloud, s, random):
    shuffled = cloud.points.tolist()
    random.shuffle(shuffled)
    assert rd.discrete_energy(rd.PointCloud(shuffled), s) == pytest.approx(
        rd.discrete_energy(cloud, s), rel=1e-12
    )


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), exponent, st.floats(0.01, 100.0))
def test_energy_scales_as_minus_s_power(cloud, s, lam):
    scaled = rd.PointCloud(lam * cloud.points)
    assert rd.discrete_energy(scaled, s) == pytest.approx(
        lam**-s * rd.discrete_energy(cloud, s), rel=1e-12
    )


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), st.integers(1, 16))
def test_zero_exponent_energy_is_exactly_one(cloud, block):
    with mock.patch.object(cloud_mod, "_TILE", block * block):
        assert rd.discrete_energy(cloud, 0.0) == 1.0
    prof = rd.energy_profile(cloud, [0.0], range(2, cloud.n + 1))
    assert prof.values[0].tolist() == [1.0] * (cloud.n - 1)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), st.lists(exponent, min_size=1, max_size=3, unique=True), st.data())
def test_profile_equals_energy_of_each_prefix(cloud, s_list, data):
    s_grid = sorted(s_list)
    n_grid = sorted(data.draw(st.sets(st.integers(2, cloud.n), min_size=1)))
    prof = rd.energy_profile(cloud, s_grid, n_grid)
    for j, n in enumerate(n_grid):
        direct = rd.discrete_energy_multi(cloud.prefix(n), s_grid)
        assert prof.values[:, j] == pytest.approx(direct, rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(st.integers(1, 3), exponent, st.integers(100, 160), st.integers(0, 2**32))
def test_slln_path_equals_energy_of_each_prefix(d, s, n_max, seed):
    measure = rd.UniformCube(d)
    path = rd.slln_path(measure, s, n_max, seed)
    cloud = rd.sample(measure, n_max, seed)
    assert [n for n, _ in path] == list(range(2, n_max + 1))
    for n in (2, 3, n_max // 2, n_max):
        assert path[n - 2][1] == pytest.approx(
            rd.discrete_energy(cloud.prefix(n), s), rel=1e-12
        )


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), st.lists(exponent, min_size=1, max_size=3), st.integers(1, 16))
def test_thread_count_gives_identical_bits(cloud, s_list, block):
    with mock.patch.object(cloud_mod, "_TILE", block * block):
        runs = [
            rd.discrete_energy_multi(cloud, s_list, threads=t).tolist() for t in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]
        s = s_list[0]
        radius = 0.3 * cloud.diameter()
        truncated = [rd.truncated_energy(cloud, s, radius, threads=t) for t in (1, 2, 4)]
        assert truncated[0] == truncated[1] == truncated[2]
    profiles = [
        rd.energy_profile(cloud, [s], range(2, cloud.n + 1), threads=t).values.tolist()
        for t in (1, 2, 4)
    ]
    assert profiles[0] == profiles[1] == profiles[2]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(max_size=60), st.lists(exponent, min_size=1, max_size=3), st.integers(1, 40))
def test_block_size_changes_only_rounding(cloud, s_list, block):
    with mock.patch.object(cloud_mod, "_TILE", block * block):
        small = rd.discrete_energy_multi(cloud, s_list)
    assert small == pytest.approx(rd.discrete_energy_multi(cloud, s_list), rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(), exponent, st.floats(0.01, 0.999))
def test_truncated_equals_scaled_energy_below_half_min_gap(cloud, s, frac):
    radius = frac * cloud.min_gap() / 2
    n = cloud.n
    assert rd.truncated_energy(cloud, s, radius) == pytest.approx(
        (n - 1) / n * rd.discrete_energy(cloud, s), rel=1e-15
    )
