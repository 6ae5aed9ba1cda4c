"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every tolerance is pinned here; seeds are fixed constants. Criterion
5 reads the variance boundary at s = d/2 off the excess of the dispersion
score over 1 (see its inline analysis for the extreme-value arithmetic).
"""

import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import integrate

import rieszdim as rd
import rieszdim.cloud as cloud_mod
from rieszdim.energy import discrete_energy_multi


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_expectation_identity():
    # sample mean of J_0.5 over 500 clouds of 200 uniform interval points
    # stays within 4 standard errors of the energy integral (quadrature)
    oracle, _ = integrate.quad(lambda u: 2.0 * (1.0 - u) * u**-0.5, 0.0, 1.0)
    report = rd.expectation_experiment(rd.UniformCube(1), 0.5, 200, 500, seed=0,
                                       oracle=oracle)
    cell = report.cells[0]
    dev = abs(cell["mean"] - oracle)
    ok = dev <= 4.0 * cell["se"]
    assert _line(
        1,
        "expectation identity",
        ok,
        f"mean={cell['mean']:.6f} oracle={oracle:.6f} dev={dev:.2e} se={cell['se']:.2e}",
    )


def test_criterion_2_grid_energy_bound():
    # closed-form bound 2 (n+1)^2 / (n (n-1) (1-t) (2-t)) for the 1-D grids
    worst = 0.0
    ok = True
    ts = (0.25, 0.5, 0.75)
    for n in (10, 100, 1000, 10000):
        values = discrete_energy_multi(rd.grid_1d(n), ts)
        for t, j in zip(ts, values):
            bound = 2.0 * (n + 1) ** 2 / (n * (n - 1) * (1.0 - t) * (2.0 - t))
            worst = max(worst, j / bound)
            ok = ok and j <= bound
    assert _line(2, "grid energy bound", ok, f"max J/bound = {worst:.4f}")


def test_criterion_3_cantor_dimension_recovery():
    # slope-threshold estimator at the top of the threshold range (finite
    # levels leave a slowly contracting transient in the sub-transition
    # slopes, so the default 0.1 reads the transition too early)
    spec1 = rd.CantorSpec(((2, 3, (0, 2)),), 8)
    cloud1 = rd.cantor_points(spec1)
    prof1 = rd.energy_profile(
        cloud1, [round(0.1 * i, 1) for i in range(1, 20)], rd.cantor_prefix_sizes(spec1)
    )
    est1 = rd.dimension_estimate(prof1, 0.2, recompute=functools.partial(rd.energy_profile, cloud1))
    dev1 = abs(est1.s_hat - math.log(2) / math.log(3))

    spec2 = rd.CantorSpec(((2, 3, (0, 2)),) * 2, 5)
    cloud2 = rd.cantor_points(spec2)
    prof2 = rd.energy_profile(
        cloud2, [round(0.1 * i, 1) for i in range(1, 20)], rd.cantor_prefix_sizes(spec2)
    )
    est2 = rd.dimension_estimate(prof2, 0.2, recompute=functools.partial(rd.energy_profile, cloud2))
    dev2 = abs(est2.s_hat - 2.0 * math.log(2) / math.log(3))

    ok = dev1 <= 0.07 and dev2 <= 0.1
    assert _line(
        3,
        "cantor dimension recovery",
        ok,
        f"line: s_hat={est1.s_hat:.3f} dev={dev1:.3f} (tol 0.07); "
        f"product: s_hat={est2.s_hat:.3f} dev={dev2:.3f} (tol 0.10)",
    )


def test_criterion_4_ball_measure_identity():
    # numeric integration of the ball-measure energy against the closed
    # form ((n-1)/n) J_s + ball constant; c = 4 keeps every configuration
    # inside the separation hypothesis across the sweep
    gaps = []
    for n in (16, 32, 64, 128):
        cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
        params = rd.BallMeasureParams(0.5, 4.0, n)
        numeric = rd.ball_energy_numeric(cloud, params)
        predicted = rd.ball_energy_predicted(cloud, params)
        gaps.append(abs(numeric.value - predicted.value) / predicted.value)
    ok = gaps[2] <= 0.02 and all(b < a for a, b in zip(gaps, gaps[1:]))
    assert _line(
        4,
        "ball-measure identity",
        ok,
        "gaps n=16..128: " + ", ".join(f"{g:.2e}" for g in gaps),
    )


def test_criterion_5_variance_boundary():
    # dispersion score max(J)/median(J) over 200 replicates on the uniform
    # interval, where J_s has finite variance exactly for s < 1/2. The score
    # is >= 1 and its excess over 1 comes from the replicate with the
    # closest pair, which adds about 2 delta^-s / (n (n-1)) to J.
    # (a) s = 0.3 (energy at 2s finite): moderate scores at every n.
    # (b) heavy tail past s = 1/2: excess(0.7) >= 5 * excess(0.3) at n = 1600.
    # (c) finite-variance control: excess(0.4) < 5 * excess(0.3), so a score
    #     that rises with every exponent, not across s = 1/2, fails.
    # The margin is on the excess, not the score: score(0.3) is about 1.007,
    # so score(0.7) >= 5 * score(0.3) would need max J near 25.6 on a median
    # near 5.09, i.e. a closest pair within about 2.5e-11. A 1600-point
    # uniform cloud has one with probability about n^2 * 2.5e-11 = 6e-5, or
    # about 1% over 200 replicates. The literal score ratio is printed for
    # reference.
    measure = rd.UniformCube(1)
    low = {}
    for n in (100, 400):
        low[n] = dict(rd.variance_blowup_scan(measure, [0.3], n, 200, seed=7))[0.3]
    scores = dict(
        rd.variance_blowup_scan(measure, [0.3, 0.4, 0.7], 1600, 200, seed=7)
    )
    low[1600] = scores[0.3]
    control, high = scores[0.4], scores[0.7]
    margin = 5.0 * (low[1600] - 1.0)
    clause_a = all(v < 3.0 for v in low.values())
    clause_b = high - 1.0 >= margin
    clause_c = control - 1.0 < margin
    ok = clause_a and clause_b and clause_c
    assert _line(
        5,
        "variance boundary",
        ok,
        f"scores(s=0.3)={[round(v, 4) for v in low.values()]} (<3: {clause_a}); "
        f"n=1600 score(s=0.4)={control:.4f} score(s=0.7)={high:.4f}; "
        f"excess ratio vs s=0.3: s=0.7 {(high - 1.0) / (low[1600] - 1.0):.1f} "
        f"(>=5: {clause_b}), s=0.4 {(control - 1.0) / (low[1600] - 1.0):.2f} "
        f"(<5: {clause_c}); literal score ratio {high / low[1600]:.3f}",
    )


def test_criterion_6_weak_law_exceedance():
    report = rd.wlln_exceedance(rd.UniformCube(1), 0.4, 0.1, [50, 200, 800], 400, seed=3)
    rates = [c["rate"] for c in report.cells]
    ok = all(b <= a for a, b in zip(rates, rates[1:])) and rates[-1] < 0.05
    assert _line(6, "weak law exceedance", ok, f"rates={rates}")


def test_criterion_7_counting_measure_convergence():
    # dyadic lattice prefixes converge onto the uniform interval energy
    lat = rd.lattice(1, 12)
    prof = rd.energy_profile(lat, [0.5], [2**k for k in range(8, 13)])
    oracle = 8.0 / 3.0
    gaps = np.abs(prof.values[0] - oracle) / oracle
    ok = gaps[-1] < 0.05 and all(b < a for a, b in zip(gaps, gaps[1:]))
    assert _line(
        7,
        "counting-measure convergence",
        ok,
        "relative gaps k=8..12: " + ", ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_8_energy_target_constructor():
    targets = (5.0, 3.0, 7.0, 2.0)
    spec = rd.EnergyTargetSpec(1.0, targets, tolerance=1e-6)
    cloud, checkpoints = rd.energy_sequence_points(spec, 2)
    devs = []
    for (n, _), e in zip(checkpoints, targets):
        achieved = rd.discrete_energy(cloud.prefix(n), 1.0)
        devs.append(abs(achieved - e) / e)
    ok = all(d <= 1e-6 for d in devs)
    assert _line(
        8,
        "energy target constructor",
        ok,
        "relative deviations: " + ", ".join(f"{d:.2e}" for d in devs),
    )


def test_criterion_9_set_counts_and_lipschitz():
    grid = [[float(x), float(y)] for x in range(3) for y in range(3)]
    brute = len(
        {
            sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))
            for p, q in itertools.combinations(grid, 2)
        }
    )
    count33 = rd.distance_set(rd.PointCloud(grid)).count
    ok_grid33 = count33 == 5 and brute == 5

    ok_progression = all(
        rd.distance_set(rd.grid_1d(n)).count == n - 1 for n in range(2, 101)
    )

    rng = np.random.default_rng(13)
    trials = 10_000
    alpha = rng.random(trials)
    x, y = rng.random(trials), rng.random(trials)
    u = alpha * (2.0 * rng.random(trials) - 1.0)
    v = alpha * (2.0 * rng.random(trials) - 1.0)
    moved = np.abs((x + u) * (y + v) - x * y)
    ok_lipschitz = bool(np.all(moved <= 3.0 * alpha + 1e-15))

    ok = ok_grid33 and ok_progression and ok_lipschitz
    assert _line(
        9,
        "set counts and dot-product stability",
        ok,
        f"3x3 count={count33} (brute {brute}); grid counts n-1 for n=2..100: "
        f"{ok_progression}; perturbation bound over {trials} trials: {ok_lipschitz}",
    )


def test_criterion_10_determinism_and_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 4))
        pts = rng.random((n, d))
        cloud = rd.PointCloud(pts)
        s = float(rng.choice([0.4, 1.0, 1.6]))
        with mock.patch.object(cloud_mod, "_TILE", 64):  # strips of at most 8 rows
            serial = rd.discrete_energy(cloud, s, threads=1)
            parallel = rd.discrete_energy(cloud, s, threads=4)
        single = rd.discrete_energy(cloud, s)  # one strip, different order
        worst = max(
            worst,
            abs(parallel - serial) / serial,
            abs(single - serial) / serial,
        )
    ok_parallel = worst <= 1e-10

    measure = rd.UniformCube(1)
    path = dict(rd.slln_path(measure, 0.4, 2000, seed=17))
    cloud = rd.sample(measure, 2000, 17)
    worst_inc = max(
        abs(path[n] - rd.discrete_energy(cloud.prefix(n), 0.4))
        / rd.discrete_energy(cloud.prefix(n), 0.4)
        for n in (2, 100, 777, 2000)
    )
    ok_incremental = worst_inc <= 1e-10

    ok = ok_parallel and ok_incremental
    assert _line(
        10,
        "determinism and oracle equivalence",
        ok,
        f"parallel/serial max rel diff {worst:.2e}; incremental/batch "
        f"max rel diff {worst_inc:.2e}",
    )
