import decimal
import math
import os
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdim as rd
import rieszdim.cloud as cloud_mod
import rieszdim.energy as energy_mod
from conftest import no_child_left, random_cloud


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
    exps = [0.0, 1.3] + [round(0.1 * i, 10) for i in range(1, 26)]  # ladder runs too
    want = rd.discrete_energy_multi(c, exps, threads=1).tolist()
    for t in (0, -1, -2, -5):
        got = rd.discrete_energy_multi(c, exps, threads=t)
        assert got.tolist() == want
    radius = 0.3 * c.diameter()
    assert rd.truncated_energy(c, 0.5, radius, threads=-2) == rd.truncated_energy(
        c, 0.5, radius, threads=1
    )
    prof = [rd.energy_profile(c, [0.5], [10, 100, 300], threads=t).values.tolist() for t in (1, 0, -2)]
    assert prof[0] == prof[1] == prof[2]


def test_concurrent_callers_get_identical_bits(monkeypatch):
    # eight callers at once, asking for 2..5 workers, so the dealer may start
    # workers while other callers use them
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


_CLOUD = rd.PointCloud([[0.0], [0.5], [2.0]])
_NON_FINITE_CALLS = {
    "discrete_energy_inf": lambda: rd.discrete_energy(_CLOUD, math.inf),
    "discrete_energy_nan": lambda: rd.discrete_energy(_CLOUD, math.nan),
    "discrete_energy_multi_inf": lambda: rd.discrete_energy_multi(_CLOUD, [0.5, math.inf]),
    "discrete_energy_multi_nan": lambda: rd.discrete_energy_multi(_CLOUD, [math.nan]),
    "energy_profile_nan": lambda: rd.energy_profile(_CLOUD, [0.5, math.nan], [2, 3]),
    "profile_from_family_nan": lambda: rd.profile_from_family([_CLOUD], [math.nan]),
    "grid_1d_profile_nan": lambda: rd.grid_1d_profile([math.nan], [2, 3]),
    "riesz_potential_discrete_nan": lambda: rd.riesz_potential_discrete(_CLOUD, [1.0], math.nan),
    "truncated_energy_s_nan": lambda: rd.truncated_energy(_CLOUD, math.nan, 0.1),
    "truncated_energy_radius_nan": lambda: rd.truncated_energy(_CLOUD, 0.5, math.nan),
    "truncated_energy_radius_inf": lambda: rd.truncated_energy(_CLOUD, 0.5, math.inf),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_CALLS))
def test_non_finite_inputs_rejected_before_any_work(name, monkeypatch):
    # NaN or inf exponents (and cutoff radii) are usage errors, raised before
    # any pair is evaluated, never a silent nan
    def no_work(*args, **kwargs):
        raise AssertionError("pair work started")

    monkeypatch.setattr(energy_mod, "_row_sums", no_work)
    monkeypatch.setattr(energy_mod, "_tile", no_work)
    with pytest.raises(ValueError):
        _NON_FINITE_CALLS[name]()


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


# ----------------------------------------------------------- 1-D grid family

# the ``dim`` default exponents, the exact count s = 0 and an s past overflow
_GRID_EXPS = [0.0] + [round(0.1 * i, 10) for i in range(1, 20)] + [1000.0]
_GRID_SIZES = [2, 3, 10, 257, 1000, 3072]


def test_grid_closed_form_matches_the_pair_engine():
    got = rd.grid_1d_profile(_GRID_EXPS, _GRID_SIZES)
    want = rd.profile_from_family([rd.grid_1d(n) for n in _GRID_SIZES], _GRID_EXPS)
    assert (got.s_grid, got.n_grid) == (want.s_grid, want.n_grid)
    assert got.values[0].tolist() == [1.0] * len(_GRID_SIZES)
    assert got.values[-1].tolist() == want.values[-1].tolist() == [math.inf] * len(_GRID_SIZES)
    np.testing.assert_allclose(got.values[1:-1], want.values[1:-1], rtol=1e-14, atol=0.0)


def test_grid_closed_form_against_an_extended_precision_oracle():
    exps = _GRID_EXPS[1:-1]
    got = rd.grid_1d_profile(exps, _GRID_SIZES).values
    for j, n in enumerate(_GRID_SIZES):
        k = np.arange(1, n, dtype=np.longdouble)
        m = np.longdouble(n)
        want = np.array(
            [np.sum((m - k) * ((m + 1) / k) ** np.longdouble(s)) for s in exps]
        ) / (m * (m - 1) / 2)
        assert float(np.max(np.abs(got[:, j] - want) / want)) < 2e-15


def test_grid_sum_with_some_overflowing_terms_gives_inf():
    # at s = 90 only the nearest neighbours' term, (n - 1)(n + 1)^s, overflows
    n = 3072
    assert 90 * math.log((n + 1) / 2) < math.log(sys.float_info.max) < 90 * math.log(n + 1)
    values = rd.grid_1d_profile([80.0, 90.0], [n]).values[:, 0]
    assert math.isfinite(values[0]) and values[1] == math.inf


@pytest.mark.parametrize(
    "s_grid, n_grid",
    [
        ([0.5, 0.4], [4, 8]),  # exponents not ascending
        ([0.5], [8, 4]),  # sizes not ascending
        ([-0.5], [4, 8]),
        ([0.5, math.inf], [4, 8]),
        ([0.5], [1, 4]),  # a grid of one point
    ],
)
def test_grid_closed_form_refuses_the_family_errors(s_grid, n_grid):
    def error_of(call):
        with pytest.raises(Exception) as info:
            call()
        return type(info.value), str(info.value)

    clouds = [rd.PointCloud((np.arange(1, n + 1) / (n + 1))[:, None]) for n in n_grid]
    assert error_of(lambda: rd.grid_1d_profile(s_grid, n_grid)) == error_of(
        lambda: rd.profile_from_family(clouds, s_grid)
    )


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


def test_potential_at_a_point_whose_squared_distance_underflows():
    c = rd.PointCloud([[0.0], [0.5]])
    want = (1e150 + (0.5 - 1e-300) ** -0.5) / 2.0  # about 5e149
    assert rd.riesz_potential_discrete(c, [1e-300], 0.5) == pytest.approx(want, rel=1e-12)
    assert rd.riesz_potential_discrete(c, [0.0], 0.5) == math.inf
    c2 = rd.PointCloud([[0.0, 0.0], [0.5, 0.2]])
    want2 = (5e-300**-0.5 + 0.29**-0.25) / 2.0
    assert rd.riesz_potential_discrete(c2, [3e-300, 4e-300], 0.5) == pytest.approx(want2, rel=1e-12)


def test_subnormal_differences_keep_full_accuracy():
    # tiny = 1e-320 is subnormal; log d2 = 2 log(top) + log(sum) stays exact
    # to rounding where the distance itself would round on the subnormal grid
    tiny = 1e-320
    c = rd.PointCloud([[0.0, 0.0], [tiny, tiny], [0.5, 0.5]])
    near = 2.0**-0.25 * tiny**-0.5  # (sqrt(2) tiny)^(-1/2), about 8.4e159
    want = (near + 2.0 * 0.5**-0.25) / 3.0
    assert rd.discrete_energy(c, 0.5) == pytest.approx(want, rel=1e-12)
    assert rd.energy_profile(c, [0.5], [2, 3]).values[0].tolist() == pytest.approx(
        [near, want], rel=1e-12
    )
    pot = rd.riesz_potential_discrete(rd.PointCloud([[0.0, 0.0], [0.5, 0.5]]), [tiny, tiny], 0.5)
    assert pot == pytest.approx((near + 0.5**-0.25) / 2.0, rel=1e-12)


def test_pair_sums_where_the_squares_overflow():
    # the squares of 1e200, 2e200 and 3e200 overflow to inf; read as a
    # distance of inf they would give the energy 0
    c = rd.PointCloud([[0.0], [1e200], [3e200]])
    far = [1e200**-0.5, 2e200**-0.5, 3e200**-0.5]
    want = math.fsum(far) / 3.0  # about 7.6e-101
    # exp(-s/2 log d2) carries the rounding of log d2 (about 921) into the
    # kernel: a few 1e-14 relative
    rel = 5e-14
    assert rd.discrete_energy(c, 0.5) == pytest.approx(want, rel=rel)
    assert rd.discrete_energy_multi(c, [0.0, 0.5]).tolist() == pytest.approx([1.0, want], rel=rel)
    prof = rd.energy_profile(c, [0.5], [2, 3])
    assert prof.values[0].tolist() == pytest.approx([far[0], want], rel=rel)
    # a radius far below every gap leaves the cutoff fully open: (n-1)/n J
    assert rd.truncated_energy(c, 0.5, 1e190) == pytest.approx(2.0 / 3.0 * want, rel=rel)
    pot = rd.riesz_potential_discrete(c, [2e200], 0.5)
    assert pot == pytest.approx((2e200**-0.5 + 2.0 * 1e200**-0.5) / 3.0, rel=rel)


def test_pair_sums_where_a_difference_overflows():
    # 1e308 - (-1e308) overflows; read as inf / inf it would make J nan
    c = rd.PointCloud([[-1e308], [1e308], [0.0]])
    far = 1e-154 / math.sqrt(2.0)  # (2e308)^-0.5
    want = (2e-154 + far) / 3.0
    rel = 1e-14
    assert rd.discrete_energy(c, 0.5) == pytest.approx(want, rel=rel)
    prof = rd.energy_profile(c, [0.5], [2, 3])
    assert prof.values[0].tolist() == pytest.approx([far, want], rel=rel)
    # a radius far below every gap leaves the cutoff fully open: (n-1)/n J
    assert rd.truncated_energy(c, 0.5, 1e290) == pytest.approx(2.0 / 3.0 * want, rel=rel)


def test_pair_sums_at_a_gap_whose_square_is_subnormal():
    # g^2 is subnormal, not 0: it keeps only its leading bits
    g = 1.23456789e-161
    c = rd.PointCloud([[0.0], [g], [0.5]])
    # log d2 is about -740: its rounding reaches the kernel as a few 1e-14
    rel = 5e-14
    assert rd.discrete_energy(c, 1.0) == pytest.approx((1 / g + 2.0 + 1 / (0.5 - g)) / 3.0, rel=rel)
    pot = rd.riesz_potential_discrete(rd.PointCloud([[0.0], [0.5]]), [g], 1.0)
    assert pot == pytest.approx((1 / g + 1 / (0.5 - g)) / 2.0, rel=rel)


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
# a short list of any exponents, or a rounded arithmetic grid long enough
# to span more than one ladder run
exponent_lists = st.lists(exponent, min_size=1, max_size=3) | st.builds(
    lambda a, h, k: [round(a + i * h, 10) for i in range(k)],
    st.floats(0.0, 0.5),
    st.sampled_from([0.01, 0.05, 0.1, 0.125]),
    st.integers(20, 40),
)


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
@given(clouds(), exponent_lists, st.integers(1, 16))
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
        rd.energy_profile(cloud, sorted(set(s_list)), range(2, cloud.n + 1), threads=t).values.tolist()
        for t in (1, 2, 4)
    ]
    assert profiles[0] == profiles[1] == profiles[2]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(clouds(max_size=60), exponent_lists, st.integers(1, 40))
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


# any k in [-900, 900], or one from the tails where squares of 2^k P leave
# the normal range: the distances of P lie in [1/997, 35], so some squares
# underflow for k <= -502 and some overflow for k >= 507
dyadic = st.integers(-900, 900) | st.integers(-900, -520) | st.integers(520, 900)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(clouds(), st.floats(0.0, 1.0), dyadic)
def test_dyadic_rescaling_holds_at_any_scale(cloud, s, k):
    # 2^k P has the distances of P times 2^k; no coordinate of it is
    # subnormal, since every nonzero |x| of P is at least 1/997
    scaled = rd.PointCloud(np.ldexp(cloud.points, k))
    assert rd.discrete_energy(scaled, s) == pytest.approx(
        2.0 ** (-k * s) * rd.discrete_energy(cloud, s), rel=1e-12
    )
    for got, ref in ((scaled.min_gap(), cloud.min_gap()), (scaled.diameter(), cloud.diameter())):
        want = math.ldexp(ref, k)
        assert abs(got - want) <= 2.0 * math.ulp(want)


# ---------------------------------------------------------- exponent ladder


def _dim_grid(s_max):
    """The exponent grid of ``rieszdim dim --s-max s_max`` (default steps)."""
    return [round(s, 10) for s in np.arange(0.1, s_max + 1e-9, 0.1)]


def test_ladder_plan_takes_one_step_factor_per_run():
    # the rounded grids have several float steps that differ by a few ulp;
    # an exact-equality step test would anchor almost every exponent
    for s_max in (1.9, 2.5):
        exps = [float(s) for s in _dim_grid(s_max)]
        assert len(set(np.diff(exps))) > 1
        runs = energy_mod._ladder(tuple(exps))
        assert [len(rows) for _, _, rows in runs] == [16, len(exps) - 16]
        assert [i for _, _, rows in runs for i in rows] == list(range(len(exps)))
        for s, h, rows in runs:
            assert s == exps[rows[0]] and h > 0.0
            for m, i in enumerate(rows):
                assert abs(s + m * h - exps[i]) <= 2.0 * math.ulp(exps[i])
    # irregular lists take no more exp passes than one per exponent
    assert [len(rows) for _, _, rows in energy_mod._ladder((0.2, 0.3, 0.5, 0.7))] == [1, 3]
    assert [len(rows) for _, _, rows in energy_mod._ladder((0.0, 0.5, 1.0, 1.5))] == [1, 3]
    for exps in ((1.5, 1.0, 0.5), (1.0, 1.0, 1.0), (0.5, 1.0), (2.0, 0.0, 2.0, 4.0)):
        assert [len(rows) for _, _, rows in energy_mod._ladder(exps)] == [1] * len(exps)


def test_ladder_matches_direct_exponents_on_odd_lists():
    # two strips; each list mixes ladder runs with the cases that must anchor
    c = random_cloud(21, 250, 2)
    lists = [
        [0.0, 0.5, 1.0, 1.5, 2.0],  # s = 0 then a run: the run must not be skipped
        [0.4, 0.8, 1.2, 0.0, 1.6, 2.0, 2.4],  # s = 0 mid-list
        [1.7, 0.3, 2.2, 0.9, 1.1, 1.3, 1.5, 0.6],  # unsorted
        [2.4, 2.0, 1.6, 1.2, 0.8, 0.4],  # descending
        [1.1, 1.1, 1.1, 2.2, 2.2, 3.3, 3.3],  # repeated
        [round(0.1 * i, 10) for i in range(30, 0, -1)] + _dim_grid(3.0),
    ]
    for exps in lists:
        got = rd.discrete_energy_multi(c, exps)
        want = [rd.discrete_energy(c, s) for s in exps]
        assert got.tolist() == pytest.approx(want, rel=1e-14)
        assert [g for g, s in zip(got, exps) if s == 0.0] == [1.0] * exps.count(0.0)


def test_ladder_from_the_smallest_subnormal_exponent_is_finite():
    # -s/2 rounds to -0.0 at s = 5e-324: a kernel masked by L = +inf would be nan
    c = random_cloud(22, 250, 2)
    exps = [5e-324, 0.5, 1.0, 1.5]
    got = rd.discrete_energy_multi(c, exps)
    assert got[0] == 1.0
    assert got.tolist() == pytest.approx([rd.discrete_energy(c, s) for s in exps], rel=1e-14)
    prof = rd.energy_profile(c, exps, [2, 100, 250])
    assert np.all(np.isfinite(prof.values))


def test_ladder_over_an_underflowing_pair_gives_inf_not_nan():
    # the 1e-300 pair's kernel overflows from s = 1.5 on; at 1e-320 the step
    # factor itself overflows, and a descending step would reach inf * 0
    for tiny, step in ((1e-300, 0.5), (1e-320, 0.5), (1e-320, 1.0)):
        c = rd.PointCloud([[0.0], [tiny], [0.5], [0.75]])
        up = [step * i for i in range(1, int(4 / step) + 1)]
        for exps in (up, up[::-1]):
            got = rd.discrete_energy_multi(c, exps)
            want = [rd.discrete_energy(c, s) for s in exps]
            assert not np.isnan(got).any()
            assert got.tolist() == pytest.approx(want, rel=1e-14)
            assert math.inf in want and math.inf in got.tolist()


def test_truncated_kernel_ladder_on_a_multi_strip_cloud():
    # the weight, including its zeros below the radius, is applied once per
    # anchor and must ride the ladder unchanged
    c = random_cloud(23, 400, 2)
    pts = c.points
    radius = 0.02
    assert c.min_gap() < radius  # some pairs have weight 0

    def weight(r):
        return 1.0 - energy_mod._cutoff(r / radius)

    exps = _dim_grid(2.5)
    assert len(cloud_mod._fold_blocks(400)) > 1
    got = energy_mod._fold_sums(pts, exps, weight=weight)
    for i, s in enumerate(exps):
        want = energy_mod._fold_sums(pts, [s], weight=weight)[0]
        np.testing.assert_allclose(got[i], want, rtol=1e-14, atol=0.0)


def test_long_ladder_against_an_extended_precision_oracle():
    # each prefix profile value of a 200-point cloud over 600 exponents, to a
    # long double oracle; a ladder never re-anchored drifts to about 6e-14 here
    n = 200
    exps = [round(0.01 * i, 10) for i in range(1, 601)]
    c = random_cloud(24, n, 2)
    rows, cols = np.tril_indices(n, -1)  # pairs j < k, ordered by k
    p = c.points.astype(np.longdouble)
    half_log = np.log(((p[rows] - p[cols]) ** 2).sum(axis=1)) / 2
    m = np.arange(2, n + 1)
    last = m * (m - 1) // 2 - 1  # index of the last pair of the m-point prefix
    want = np.array(
        [np.cumsum(np.exp(-np.longdouble(s) * half_log))[last] for s in exps]
    ) / (last + 1)
    got = rd.energy_profile(c, exps, m).values
    assert float(np.max(np.abs(got - want) / want)) < 3e-14


# ------------------------------------------------------------ strip workspace


def _in_fresh_thread(fn):
    """Run fn on a new thread, whose strip workspace starts empty."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and box, "worker thread failed"
    return box[0]


def naive_row_sums(pts, exps):
    return np.array(
        [
            [math.fsum(math.dist(pts[k], pts[j]) ** -s for j in range(k)) for k in range(len(pts))]
            for s in exps
        ]
    )


def test_workspace_grows_for_wide_single_row_strips(monkeypatch):
    # a 16-value tile makes the first strip 4 x 4 and every later strip a
    # single row as wide as its index, so the workspace must grow
    monkeypatch.setattr(cloud_mod, "_TILE", 16)
    pts = random_cloud(11, 50, 2).points
    exps = [0.0, 0.7, 2.3]
    assert cloud_mod._row_blocks(50)[0] == (0, 4)

    def run():
        cols = np.ascontiguousarray(pts[:4].T)
        cloud_mod._tile(cols[:, :, None], cols)
        first = cloud_mod._workspace.bufs[0].size
        R = energy_mod._row_sums(pts, exps)
        return first, cloud_mod._workspace.bufs[0].size, R

    first, last, R = _in_fresh_thread(run)
    assert first == 16
    assert last >= 50
    want = naive_row_sums(pts.tolist(), exps)
    assert R[0].tolist() == list(range(50))
    np.testing.assert_allclose(R, want, rtol=1e-12, atol=0.0)


_SMALL_CALLS = """
import numpy as np, rieszdim as rd
from rieszdim.sets import distance_set, dot_product_set
if {large}:
    big = rd.PointCloud(np.random.default_rng(5).random((2500, 3)) * 7.0)
    rd.discrete_energy_multi(big, [0.5, 1.5]); distance_set(big)
    rd.riesz_potential_discrete(big, [0.1, 0.2, 0.3], 0.5)
c = rd.PointCloud(np.random.default_rng(6).random((37, 2)))
vals = list(rd.discrete_energy_multi(c, [0.0, 0.5, 1.5])) + [
    rd.truncated_energy(c, 0.8, 0.05),
    rd.riesz_potential_discrete(c, [0.25, 0.5], 0.9),
    c.diameter(), c.min_gap(),
]
vals += list(distance_set(c).values) + list(dot_product_set(c).values)
print([float(v).hex() for v in vals])
"""


def test_large_call_leaves_no_stale_values_for_a_small_one():
    def run(large):
        code = _SMALL_CALLS.format(large=large)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run(True) == run(False)


def test_truncated_and_underflow_paths_on_a_reused_workspace():
    tiny = rd.PointCloud([[0.0], [1e-300], [0.5]])
    c = random_cloud(12, 90, 2)

    def calls():
        return [
            rd.discrete_energy(tiny, 0.5),
            rd.truncated_energy(tiny, 0.5, 0.1),
            rd.truncated_energy(c, 1.2, 0.07),
            rd.discrete_energy(c, 1.2),
        ]

    fresh = _in_fresh_thread(calls)

    def dirty_then_calls():
        rd.discrete_energy_multi(random_cloud(13, 800, 3, scale=9.0), [0.3, 2.0])
        return calls()

    assert _in_fresh_thread(dirty_then_calls) == fresh
    assert calls() == fresh  # this thread's workspace is already in use
    assert fresh[0] == pytest.approx((1e150 + 2.0 * 0.5**-0.5) / 3.0, rel=1e-12)
    assert fresh[1] == pytest.approx(2.0 * 0.5**-0.5 / 4.5, rel=1e-15)


def test_interleaved_strip_users_on_two_threads():
    a = random_cloud(14, 400, 2).points
    b = random_cloud(15, 300, 3).points
    want_tiles = np.concatenate(list(cloud_mod._pair_tiles(a))).tolist()
    want_rows = energy_mod._row_sums(b, [0.4, 1.7]).tolist()
    results = []

    def call():
        for _ in range(5):
            tiles = np.concatenate(list(cloud_mod._pair_tiles(a))).tolist()
            rows = energy_mod._row_sums(b, [0.4, 1.7]).tolist()
            results.append(tiles == want_tiles and rows == want_rows)

    callers = [threading.Thread(target=call) for _ in range(2)]
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
    assert results == [True] * 10


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are Linux-only")
def test_row_sums_do_not_page_fault_per_strip():
    # each strip reuses the thread's workspace, so repeated calls map no
    # new pages; allocating per strip costs hundreds of faults per call
    resource = pytest.importorskip("resource")
    pts = random_cloud(16, 300, 2).points
    exps = [0.3, 0.6, 0.9, 1.2]
    energy_mod._row_sums(pts, exps)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        energy_mod._row_sums(pts, exps)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 200 < 1.0


# ------------------------------------------------------------------- fold


@settings(deadline=None, derandomize=True, max_examples=30)
@given(clouds(), exponent_lists)
def test_fold_totals_are_bit_identical_at_any_tile_and_thread_count(cloud, s_list):
    # every fold row is summed on its own, so totals depend on neither
    default = cloud_mod._TILE
    radius = 0.3 * cloud.diameter()
    results = set()
    for tile in (1, 16, 64, default):
        with mock.patch.object(cloud_mod, "_TILE", tile):
            for t in (1, 2, 4):
                energies = rd.discrete_energy_multi(cloud, s_list, threads=t).tolist()
                truncated = rd.truncated_energy(cloud, s_list[0], radius, threads=t)
                results.add((tuple(energies), truncated))
    assert len(results) == 1


def prefix_distances(pts):
    """Sorted distances of the pairs j < k, gathered from the prefix strips."""
    out = []
    cols = np.ascontiguousarray(pts.T)
    for k0, k1 in cloud_mod._row_blocks(len(pts)):
        a, b = cols[:, k0:k1, None], cols[:, :k1]
        with np.errstate(over="ignore"):
            d2 = cloud_mod._tile(a, b).copy()
        np.copyto(d2[:, k0:], 1.0, where=np.tri(k1 - k0, dtype=bool).T)  # j >= k
        out.append(cloud_mod._distances(d2, a, b)[np.tri(k1 - k0, k1, k0 - 1, dtype=bool)])
    return np.sort(np.concatenate(out)).tolist()


def _out_of_range_clouds():
    # odd and even n: for even n the half fold row n/2 holds a lost pair
    for n in (7, 8):
        base = random_cloud(30 + n, n, 2).points
        yield base * 1e-170  # every square underflows
        yield base * 1e170  # every square overflows
    yield [[-1e308], [1e308], [0.0]]  # a difference overflows
    yield [[-1e308], [1e308], [0.0], [1.0]]
    yield [[0.0], [5e-324], [0.5]]  # a subnormal gap
    yield [[0.0], [0.5], [5e-324], [0.75]]
    # d >= 8: numpy sums runs of 8 or more contiguous values with partial sums
    base = random_cloud(47, 8, 9).points
    yield base * 1e-170
    yield base * 1e170


def _truncated_oracle(pts, s, radius):
    """truncated_energy in 40-digit Decimal: no distance under- or overflows."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        rad, total = decimal.Decimal(radius), decimal.Decimal(0)
        for k in range(len(pts)):
            for j in range(k):
                r = sum((decimal.Decimal(a) - decimal.Decimal(b)) ** 2
                        for a, b in zip(pts[k], pts[j])).sqrt()
                t = min(max(r / rad - 1, decimal.Decimal(0)), decimal.Decimal(1))
                total += t * t * (3 - 2 * t) * r ** decimal.Decimal(-s)  # 1 - cutoff
        return float(total / (len(pts) ** 2 / decimal.Decimal(2)))


@pytest.mark.parametrize("points", list(_out_of_range_clouds()))
def test_fold_rebuilds_out_of_range_pairs(points):
    c = rd.PointCloud(points)
    pts, n = c.points, c.n
    exps = [0.0, 0.5, 1.0, 1.7]
    # the prefix strips' row sums are the totals' layout before the fold
    want = [energy_mod._fsum(row) / (n * (n - 1) // 2) for row in energy_mod._row_sums(pts, exps)]
    assert rd.discrete_energy_multi(c, exps).tolist() == pytest.approx(want, rel=1e-14)
    assert rd.discrete_energy(c, 1.0) == pytest.approx(want[2], rel=1e-14)
    radius = c.min_gap()
    # a rebuilt pair takes r^-s as exp(-s log r), good to about |s log r| ulps: 4e-14 at 2e308
    got = rd.truncated_energy(c, 0.5, radius)
    assert got == pytest.approx(_truncated_oracle(pts, 0.5, radius), rel=5e-14, abs=0)
    dists = prefix_distances(pts)
    assert sorted(np.concatenate(list(cloud_mod._pair_distances(pts))).tolist()) == dists
    assert (c.min_gap(), c.diameter()) == (dists[0], dists[-1])


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
def test_fold_raises_on_coinciding_points(scale):
    # points 0 and 2 meet in the half row of the even cloud, 0 and 3 in a full row of the odd one
    for coords in ([0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 2.0, 0.0, 3.0]):
        c = rd.PointCloud(np.array(coords)[:, None] * scale, _validate=False)
        calls = [
            lambda: rd.discrete_energy_multi(c, [0.0, 0.5]),
            lambda: rd.truncated_energy(c, 0.5, scale),
            c.diameter,
            c.min_gap,
        ]
        for call in calls:
            with pytest.raises(rd.DuplicatePoints):
                call()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are Linux-only")
def test_fold_sums_do_not_page_fault_per_strip():
    # the fold twin of test_row_sums_do_not_page_fault_per_strip
    resource = pytest.importorskip("resource")
    c = random_cloud(16, 300, 2)
    exps = [0.3, 0.6, 0.9, 1.2]
    rd.discrete_energy_multi(c, exps)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        rd.discrete_energy_multi(c, exps)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 200 < 1.0


# ------------------------------------------------------------------ dealer

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _counting_forks(monkeypatch):
    """Wrap os.fork so that the parent's returned list counts its forks."""
    forks, real = [], os.fork

    def fork():
        pid = real()
        forks.append(pid)  # only the parent's list outlives the child
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@needs_fork
def test_dealer_reraises_share_errors_typed(forking):
    # items range(6) at 3 workers: the caller takes [0, 3], the children [1, 4] and [2, 5]
    def worker_fails(share, out):
        if share[0] == 2:
            raise rd.DuplicatePoints("share 2")

    with pytest.raises(rd.DuplicatePoints, match="share 2"):
        energy_mod._deal(worker_fails, range(6), 6, 3, 0)

    def all_fail(share, out):
        if share[0] == 1:
            time.sleep(0.05)  # finishes last, and its error still wins over share 2's
        raise (rd.TooFewPoints if share[0] else rd.DuplicatePoints)(f"share {share[0]}")

    with pytest.raises(rd.DuplicatePoints, match="share 0"):  # the caller's own first
        energy_mod._deal(all_fail, range(6), 6, 3, 0)
    with pytest.raises(rd.TooFewPoints, match="share 1"):
        energy_mod._deal(lambda share, out: share[0] and all_fail(share, out), range(6), 6, 3, 0)
    no_child_left()


@needs_fork
def test_interrupt_in_the_callers_share_waits_for_the_others(forking):
    # the children are killed and reaped before the caller's interrupt propagates
    def run(share, out):
        if share[0] == 0:
            raise KeyboardInterrupt
        time.sleep(20)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        energy_mod._deal(run, range(3), 3, 3, 0)
    assert time.monotonic() - start < 10
    no_child_left()


@needs_fork
def test_dealer_writes_a_zeroed_shared_array(forking):
    def run(share, out):
        for i in share:
            out[i, 0] = os.getpid()  # column 1 is left as the dealer made it

    out = energy_mod._deal(run, range(4), (4, 2), 2, 0)
    assert out[:, 1].tolist() == [0.0] * 4
    assert out[0, 0] == out[2, 0] == os.getpid() != out[1, 0] == out[3, 0]


@needs_fork
def test_workers_are_clamped_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(energy_mod, "_FORK_WORK", 0)
    monkeypatch.setattr(energy_mod, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)
    forks = _counting_forks(monkeypatch)
    pts = random_cloud(2, 120, 2).points
    want = energy_mod._row_sums(pts, [0.5, 1.5]).tobytes()
    assert energy_mod._row_sums(pts, [0.5, 1.5], threads=1000).tobytes() == want
    assert len(forks) == 1
    forks.clear()
    want = rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 40, seed=3).tobytes()
    got = rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 40, seed=3, threads=1000)
    assert got.tobytes() == want
    assert len(forks) == 1
    no_child_left()


@needs_fork
def test_a_worker_never_forks_again(forking, monkeypatch):
    forks = _counting_forks(monkeypatch)
    pts = random_cloud(3, 60, 2).points
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)

    def run(share, out):
        for i in share:
            before = len(forks)  # a child's copy ends with the 0 its fork returned
            out[i] = energy_mod._row_sums(pts, [0.5], threads=4)[0, -1]
            out[i + 2] = len(forks) - before

    out = energy_mod._deal(run, range(2), 4, 2, 0)
    assert len(forks) == 1 + 3  # the worker, then the caller's own pass on 4 workers
    assert out[0] == out[1] and out[2:].tolist() == [3.0, 0.0]  # the worker's pass ran inline
    no_child_left()


def test_cpu_count_is_the_affinity_where_there_is_one(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert energy_mod._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert energy_mod._cpu_count() == (os.cpu_count() or 1)


@needs_fork
def test_sums_are_bit_identical_at_one_to_four_workers(forking, monkeypatch):
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)  # many strips for every worker
    exps = [0.0] + _dim_grid(2.5)
    radius = 0.2

    def weight(r):
        return 1.0 - energy_mod._cutoff(r / radius)

    for n, d in ((101, 2), (100, 3)):  # an even n has the half-row corner
        pts = random_cloud(n, n, d).points
        calls = [
            lambda t: energy_mod._row_sums(pts, exps, threads=t),
            lambda t: energy_mod._fold_sums(pts, exps, threads=t),
            lambda t: energy_mod._fold_sums(pts, exps, threads=t, weight=weight),
        ]
        for call in calls:
            runs = [call(t).tobytes() for t in (1, 2, 3, 4)]
            assert runs == [runs[0]] * 4
    from rieszdim.measures import _difference_rule

    u = np.linspace(2.01, 12.0, 200)  # 7 chunks of 28
    for d in (1, 2, 3):
        runs = [_difference_rule(u, d, 1.3, threads=t).tobytes() for t in (1, 2, 3, 4)]
        assert runs == [runs[0]] * 4
    no_child_left()


@needs_fork
def test_duplicate_points_in_a_childs_strips_come_back_typed(forking, monkeypatch):
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)
    forks = _counting_forks(monkeypatch)
    pts = random_cloud(4, 200, 2).points.copy()
    k0, _ = cloud_mod._row_blocks(len(pts))[1]  # strip 1 goes to worker 1, a child
    pts[k0] = pts[0]
    with pytest.raises(rd.DuplicatePoints):
        energy_mod._row_sums(pts, [0.5, 1.0], threads=2)
    assert len(forks) == 1
    no_child_left()


@needs_fork
def test_concurrent_callers_fork_at_once_and_get_identical_bits(forking, monkeypatch):
    monkeypatch.setattr(energy_mod, "_cpu_count", lambda: 2)  # one child per caller
    monkeypatch.setattr(cloud_mod, "_TILE", 16 * 16)
    c = random_cloud(7, 200, 2)
    want = rd.discrete_energy_multi(c, [0.5, 1.5]).tolist()
    results = []
    callers = [
        threading.Thread(target=lambda: results.append(rd.discrete_energy_multi(c, [0.5, 1.5], threads=2).tolist()))
        for _ in range(3)
    ]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in callers)
    assert results == [want] * 3
    no_child_left()


def test_criterion_sized_passes_never_fork(monkeypatch):
    def refuse():
        raise AssertionError("a tiny pass forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(energy_mod, "_cpu_count", lambda: 4)
    from rieszdim.measures import _difference_rule

    for n in (4, 17, 39):
        c = random_cloud(n, n, 2)
        rd.discrete_energy(c, 0.7, threads=4)
        rd.discrete_energy_multi(c, _dim_grid(2.5), threads=4)
        rd.truncated_energy(c, 0.7, 0.1, threads=4)
        rd.energy_profile(c, _dim_grid(2.5), [2, n], threads=4)
    rd.replicate_energies(rd.UniformCube(2), [0.3, 0.9], 39, 30, seed=1, threads=4)
    _difference_rule(np.linspace(2.1, 5.0, 100), 2, 1.2, threads=4)


def test_sums_agree_with_an_exact_oracle_over_the_dim_grid():
    # the ladder and the einsum row sums against fsum of r^-s, on d = 1-3 clouds
    exps = _dim_grid(2.5)
    worst = 0.0
    for seed in range(6):
        d = 1 + seed % 3
        pts = random_cloud(seed, 60 + 17 * seed, d).points
        n = len(pts)
        R, F = energy_mod._row_sums(pts, exps), energy_mod._fold_sums(pts, exps)
        for k in range(1, n):
            r = np.sqrt(((pts[k] - pts[:k]) ** 2).sum(axis=1))
            for i, s in enumerate(exps):
                want = math.fsum((r**-s).tolist())
                worst = max(worst, abs(R[i, k] - want) / want)
        for delta in range(1, n // 2 + 1):
            cols = n // 2 if 2 * delta == n else n
            r = np.sqrt(((pts[:cols] - np.roll(pts, -delta, axis=0)[:cols]) ** 2).sum(axis=1))
            for i, s in enumerate(exps):
                want = math.fsum((r**-s).tolist())
                worst = max(worst, abs(F[i, delta - 1] - want) / want)
    assert worst <= 5.8e-15


def test_an_overflowing_strip_sums_to_inf_not_nan():
    pts = np.array([[0.0], [1e-200], [0.5], [1.0]])
    exps = _dim_grid(2.5)
    for sums in (energy_mod._row_sums(pts, exps), energy_mod._fold_sums(pts, exps)):
        assert not np.isnan(sums).any()
        assert math.inf in sums[-1].tolist()
