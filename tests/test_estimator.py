import functools
import re

import numpy as np
import pytest

import rieszdim as rd
from rieszdim.energy import EnergyProfile


# ------------------------------------------------------------------ slopes


def test_grid_family_flat_below_transition(grid_family_profile):
    slopes = dict(rd.adaptability_slopes(grid_family_profile, (1024, 8192)))
    assert abs(slopes[0.2]) < 0.05
    assert abs(slopes[0.3]) < 0.05


def test_grid_family_bounded_slopes_below_dimension(grid_family_profile):
    # uniform boundedness below the transition: growth slopes tiny for
    # t <= 0.75 on a late window (the n^{t-1} transient makes slopes near
    # t = 1 need far larger windows)
    slopes = dict(rd.adaptability_slopes(grid_family_profile, (1024, 8192)))
    for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        assert abs(slopes[t]) <= 0.05, f"slope at t={t} is {slopes[t]}"


def test_grid_family_growth_slope_above_dimension(grid_family_profile):
    # J grows like n^{s-1} for 1-D grids
    slopes = dict(rd.adaptability_slopes(grid_family_profile, (1024, 8192)))
    assert slopes[1.5] == pytest.approx(0.5, abs=0.05)


def test_constant_profile_has_zero_slope():
    j = rd.discrete_energy(rd.PointCloud([[0.0], [0.5]]), 1.0)
    prof = EnergyProfile((1.0,), (10, 20, 40, 80), np.full((1, 4), j))
    slopes = rd.adaptability_slopes(prof, (10, 80))
    assert slopes[0][1] == 0.0


def test_window_too_small():
    prof = EnergyProfile((1.0,), (10, 20, 40, 80), np.ones((1, 4)))
    with pytest.raises(rd.WindowTooSmall):
        rd.adaptability_slopes(prof, (30, 80))


@pytest.mark.parametrize("window", [(64,), (16, 32, 64)])
def test_window_that_is_not_two_sizes_is_refused(window):
    prof = EnergyProfile((1.0, 2.0), (16, 32, 64, 128), np.ones((2, 4)))
    with pytest.raises(ValueError, match=re.escape(f"window {window}")):
        rd.dimension_estimate(prof, 0.1, window=window)


# ---------------------------------------------------------------- estimate


def test_grid_family_dimension_near_one(grid_family_profile):
    est = rd.dimension_estimate(
        grid_family_profile, 0.1, window=(1024, 8192), recompute=rd.grid_1d_profile
    )
    assert 0.9 <= est.s_hat <= 1.1


def test_cantor_dimension_recovery_one_factor():
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 8)
    cloud = rd.cantor_points(spec)
    sizes = rd.cantor_prefix_sizes(spec)
    prof = rd.energy_profile(cloud, [round(0.1 * i, 1) for i in range(1, 20)], sizes)
    # finite-level transients inflate sub-transition slopes, so the scan
    # runs at the top of the threshold range
    est = rd.dimension_estimate(prof, 0.2, recompute=functools.partial(rd.energy_profile, cloud))
    assert abs(est.s_hat - 0.6309) <= 0.07


def test_iid_uniform_estimates_cluster_near_one():
    # single-realization profiles are heavy tailed above the transition, so
    # individual seeds wobble; at least 9 of 10 land in the band
    s_grid = [round(0.1 * i, 1) for i in range(1, 20)]
    n_grid = [64, 128, 256, 512, 1024, 2048, 4096]
    hits = 0
    for seed in range(10):
        cloud = rd.sample(rd.UniformCube(1), 4096, seed)
        prof = rd.energy_profile(cloud, s_grid, n_grid)
        est = rd.dimension_estimate(prof, 0.1, recompute=functools.partial(rd.energy_profile, cloud), window=(64, 4096))
        if 0.85 <= est.s_hat <= 1.1:
            hits += 1
    assert hits >= 9


def test_iid_planar_cloud_estimates_near_two():
    # the transition sits at the ambient dimension for a filled square, so
    # the exponent grid has to extend past 2
    s_grid = [round(0.1 * i, 1) for i in range(1, 26)]
    n_grid = [64, 128, 256, 512, 1024, 2048]
    cloud = rd.sample(rd.UniformCube(2), 2048, seed=1)
    prof = rd.energy_profile(cloud, s_grid, n_grid)
    est = rd.dimension_estimate(prof, 0.1, recompute=functools.partial(rd.energy_profile, cloud), window=(64, 2048))
    assert 1.7 <= est.s_hat <= 2.3


def test_estimate_scale_invariance():
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 6)
    cloud = rd.cantor_points(spec)
    sizes = rd.cantor_prefix_sizes(spec)
    s_grid = [round(0.1 * i, 1) for i in range(1, 20)]
    prof = rd.energy_profile(cloud, s_grid, sizes)
    scaled_cloud = rd.PointCloud(37.5 * cloud.points)
    scaled = rd.energy_profile(scaled_cloud, s_grid, sizes)
    base = rd.dimension_estimate(prof, 0.2, recompute=functools.partial(rd.energy_profile, cloud))
    other = rd.dimension_estimate(scaled, 0.2, recompute=functools.partial(rd.energy_profile, scaled_cloud))
    for a, b in zip(base.slopes, other.slopes):
        assert b == pytest.approx(a, abs=1e-9)
    assert other.s_hat == pytest.approx(base.s_hat, abs=1e-9)


def test_estimate_monotone_in_threshold():
    # a looser cutoff admits larger exponents (the stated invariant has the
    # direction reversed; nondecreasing is the true monotonicity)
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 7)
    cloud = rd.cantor_points(spec)
    prof = rd.energy_profile(
        cloud, [round(0.1 * i, 1) for i in range(1, 20)], rd.cantor_prefix_sizes(spec)
    )
    estimates = [
        rd.dimension_estimate(prof, tau, recompute=functools.partial(rd.energy_profile, cloud)).s_hat
        for tau in (0.05, 0.1, 0.15, 0.2)
    ]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))


def test_estimate_s_hat_within_grid():
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 6)
    cloud = rd.cantor_points(spec)
    prof = rd.energy_profile(
        cloud, [round(0.1 * i, 1) for i in range(1, 20)], rd.cantor_prefix_sizes(spec)
    )
    est = rd.dimension_estimate(prof, 0.2, recompute=functools.partial(rd.energy_profile, cloud))
    assert prof.s_grid[0] <= est.s_hat <= prof.s_grid[-1]
    assert est.diagnostics["bracket"][0] <= est.s_hat <= est.diagnostics["bracket"][1]


def test_no_transition_when_all_flat():
    prof = EnergyProfile((0.5, 1.0), (10, 20, 40, 80), np.ones((2, 4)))
    with pytest.raises(rd.NoTransition):
        rd.dimension_estimate(prof, 0.1)


def test_no_transition_when_all_steep():
    values = np.vstack([[1, 2, 4, 8], [1, 4, 16, 64]]).astype(float)
    prof = EnergyProfile((0.5, 1.0), (10, 20, 40, 80), values)
    with pytest.raises(rd.NoTransition):
        rd.dimension_estimate(prof, 0.1)


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_non_finite_energy_in_the_window_is_refused_before_any_log(bad, monkeypatch):
    values = np.vstack([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, bad, 8.0]])
    prof = EnergyProfile((0.5, 1.5), (10, 20, 40, 80), values)

    def no_fit(*args, **kwargs):
        raise AssertionError("a log, ptp or polyfit ran")

    for name in ("log", "ptp", "polyfit"):
        monkeypatch.setattr(np, name, no_fit)
    for call in (lambda: rd.adaptability_slopes(prof, (10, 80)),
                 lambda: rd.dimension_estimate(prof, 0.1)):
        with pytest.raises(rd.NonFiniteResult, match=r"s = 1\.5, n = 40 is"):
            call()
    monkeypatch.undo()
    # outside the window the value is never fitted
    assert rd.adaptability_slopes(
        EnergyProfile((0.5,), (5, 10, 20, 40, 80), np.vstack([[bad, 1, 1, 1, 1]])), (10, 80)
    ) == [(0.5, 0.0)]


def test_non_finite_bisection_energy_is_refused():
    values = np.vstack([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0]])
    prof = EnergyProfile((0.5, 1.5), (10, 20, 40, 80), values)
    with pytest.raises(rd.NonFiniteResult, match=r"s = 1\.0, n = 80 is inf"):
        rd.dimension_estimate(
            prof,
            0.1,
            recompute=lambda s, ns: EnergyProfile(tuple(s), tuple(ns), [[1.0, 2.0, 4.0, np.inf]]),
        )


def test_constant_bisection_row_has_zero_refined_slope():
    # the midpoint row is fitted by the grid's own rule: constant energies grow by exactly 0
    values = np.vstack([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0]])
    prof = EnergyProfile((0.5, 1.5), (10, 20, 40, 80), values)
    calls = []

    def build(s_grid, n_grid):
        calls.append((list(s_grid), list(n_grid)))
        return EnergyProfile(tuple(s_grid), tuple(n_grid), np.full((1, len(n_grid)), 3.7))

    est = rd.dimension_estimate(prof, 0.1, recompute=build)
    assert calls == [([1.0], [10, 20, 40, 80])]
    assert est.diagnostics["refined"] == {"s_mid": 1.0, "slope": 0.0}
    assert est.s_hat == 1.0


def test_threshold_validation():
    prof = EnergyProfile((0.5,), (10, 20, 40, 80), np.ones((1, 4)))
    with pytest.raises(ValueError):
        rd.dimension_estimate(prof, 0.5)
    with pytest.raises(ValueError):
        rd.dimension_estimate(prof, 0.0)


# ----------------------------------------------------------------- varscan


def test_varscan_zero_exponent_score_is_one():
    scores = rd.variance_blowup_scan(rd.UniformCube(1), [0.0], 50, 60, seed=1)
    assert scores[0][1] == 1.0


def test_varscan_moderate_below_half_dimension():
    scores = dict(rd.variance_blowup_scan(rd.UniformCube(1), [0.3], 400, 200, seed=7))
    assert scores[0.3] < 3.0


def test_varscan_score_grows_with_reps_beyond_half_dimension():
    # infinite variance at 2s > 1: the max keeps growing as replicates
    # accumulate while the median stays put
    lo = dict(rd.variance_blowup_scan(rd.UniformCube(1), [0.7], 200, 50, seed=3))
    hi = dict(rd.variance_blowup_scan(rd.UniformCube(1), [0.7], 200, 400, seed=3))
    assert hi[0.7] > lo[0.7]


def test_varscan_rep_floor():
    with pytest.raises(ValueError):
        rd.variance_blowup_scan(rd.UniformCube(1), [0.3], 50, 10, seed=0)


def test_sample_sd_stabilizes_when_variance_finite():
    # SE * sqrt(reps) is the sample SD; with finite variance (2s < 1) it
    # settles as replicates grow, cross-checking the dispersion scan
    sds = []
    for reps in (100, 200, 400):
        values = rd.replicate_energies(rd.UniformCube(1), [0.3], 300, reps, seed=5)[0]
        sds.append(float(values.std(ddof=1)))
    assert max(sds) / min(sds) < 1.3
