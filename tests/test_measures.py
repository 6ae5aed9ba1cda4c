import math

import numpy as np
import pytest
from scipy import integrate

import rieszdim as rd
import rieszdim.cloud as cloud_mod
import rieszdim.measures as measures_mod
import rieszdim.rng as rng_mod
from rieszdim.measures import (
    _cross_quadrature,
    _self_interaction_constant,
    sample_detail,
    sobolev_dimension,
)


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic():
    m = rd.UniformCube(1)
    a = rd.sample(m, 3, 12345)
    b = rd.sample(m, 3, 12345)
    assert np.array_equal(a.points, b.points)
    assert np.all(a.points >= 0) and np.all(a.points <= 1)
    c = rd.sample(m, 3, 12346)
    assert not np.array_equal(a.points, c.points)


def test_replicate_streams_are_disjoint():
    m = rd.UniformCube(2)
    a = rd.sample(m, 5, 7, rep=0)
    b = rd.sample(m, 5, 7, rep=1)
    assert not np.array_equal(a.points, b.points)


def test_replicate_stream_is_the_jumped_stream():
    # the counter is set to rep * 2^128 directly; past 2^64 it carries into word 3
    for seed in (0, 2**64 - 1):
        for rep in (0, 1, 7, 400, 2**40, 2**64 - 1, 2**64, 2**128 - 1):
            got = rng_mod.stream(seed, rep)
            want = np.random.Generator(np.random.Philox(key=seed).jumped(rep))
            assert got.random(9).tolist() == want.random(9).tolist()
            assert got.integers(0, 10**9, 9).tolist() == want.integers(0, 10**9, 9).tolist()
    for rep in (-1, 2**128):
        with pytest.raises(ValueError):
            rng_mod.stream(0, rep)


def test_circle_support():
    pts = rd.sample(rd.UniformCircle(), 500, 3).points
    assert np.max(np.abs((pts**2).sum(axis=1) - 1.0)) < 1e-12


def test_cantor_sampler_avoids_middle_digit():
    m = rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)),), depth=30)
    pts = rd.sample(m, 200, 9).points.ravel()
    scale = 3**30
    for x in pts:
        numerator = round(x * scale)
        assert math.isclose(numerator / scale, x, rel_tol=0, abs_tol=0)
        digits = []
        v = numerator
        for _ in range(30):
            v, r = divmod(v, 3)
            digits.append(r)
        assert all(d in (0, 2) for d in digits)


def test_cantor_sampler_product_dimensions():
    m = rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)), rd.CantorFactor(1, 2, (1,))))
    pts = rd.sample(m, 50, 2).points
    assert pts.shape == (50, 2)
    assert np.all(pts[:, 1] >= 0.5)  # kept digit 1 in base 2 forces x >= 0.5


def test_empirical_resampling_perturbs_duplicates():
    base = rd.PointCloud([[0.0], [1.0], [2.0]])
    cloud, info = sample_detail(rd.Empirical(base), 50, 4)
    assert cloud.n == 50
    assert info.perturbed > 0  # 50 draws from 3 atoms must collide
    assert np.unique(cloud.points, axis=0).shape[0] == 50
    # perturbations are tiny relative to the spread
    assert np.all(np.abs(cloud.points - np.round(cloud.points)) < 1e-9)


def test_rotating_semicircle_phase_is_rigid_rotation():
    # matched seeds: the phase-t draw is the phase-0 draw rotated, so the
    # pair energies agree term by term (up to rounding in cos/sin, which
    # near-coincident pairs amplify; 1e-10 matches the rigid-motion bound)
    base = rd.sample(rd.RotatingSemicircle(0.0), 400, 5)
    for phase in (0.7, 2.0, 4.5):
        rotated = rd.sample(rd.RotatingSemicircle(phase), 400, 5)
        assert rd.discrete_energy(rotated, 0.5) == pytest.approx(
            rd.discrete_energy(base, 0.5), rel=1e-10
        )


# ------------------------------------------------------------------ oracles


def test_interval_energy_closed_form_and_quadrature():
    m = rd.UniformCube(1)
    assert rd.reference_energy(m, 0.0) == 1.0
    got = rd.reference_energy(m, 0.5)
    assert got == pytest.approx(8.0 / 3.0, rel=1e-12)
    for s in (0.25, 0.5, 0.9):
        oracle, _ = integrate.quad(lambda u: 2.0 * (1.0 - u) * u**-s, 0.0, 1.0)
        assert rd.reference_energy(m, s) == pytest.approx(oracle, rel=1e-9)
    assert rd.reference_energy(m, 1.0) == math.inf
    assert rd.reference_energy(m, 1.5) == math.inf


def square_energy_via_distance_density(s):
    """Independent oracle: integrate r^{-s} against the known distance
    density of two uniform points in the unit square."""

    def density(r):
        if r <= 1.0:
            return 2.0 * r * (r * r - 4.0 * r + math.pi)
        t = math.sqrt(r * r - 1.0)
        return 2.0 * r * (4.0 * t - (r * r + 2.0 - math.pi) - 4.0 * math.atan(t))

    a, _ = integrate.quad(lambda r: r**-s * density(r), 0.0, 1.0)
    b, _ = integrate.quad(lambda r: r**-s * density(r), 1.0, math.sqrt(2.0))
    return a + b


def test_square_energy_matches_distance_density_oracle():
    m = rd.UniformCube(2)
    assert rd.reference_energy(m, 0.0) == 1.0
    for s in (0.5, 1.0, 1.5):
        assert rd.reference_energy(m, s) == pytest.approx(
            square_energy_via_distance_density(s), rel=1e-8
        )
    assert rd.reference_energy(m, 2.0) == math.inf


def test_circle_energy_matches_quadrature_oracle():
    m = rd.UniformCircle()
    assert rd.reference_energy(m, 0.0) == 1.0
    for s in (0.3, 0.5, 0.8):
        oracle, _ = integrate.quad(
            lambda u: (2.0 * math.sin(u)) ** -s / math.pi, 0.0, math.pi
        )
        assert rd.reference_energy(m, s) == pytest.approx(oracle, rel=1e-9)
    assert rd.reference_energy(m, 1.0) == math.inf


def test_square_energy_matches_angular_quadrature():
    # the polar reduction's angular integrand, integrated adaptively
    def angular(theta, s):
        c, v = math.cos(theta), math.sin(theta)
        r = 1.0 / c
        return (
            r ** (2.0 - s) / (2.0 - s)
            - (c + v) * r ** (3.0 - s) / (3.0 - s)
            + c * v * r ** (4.0 - s) / (4.0 - s)
        )

    for s in (0.1, 0.5, 1.0, 1.5, 1.9, 1.99):
        val, _ = integrate.quad(angular, 0.0, math.pi / 4.0, args=(s,), epsabs=0.0, epsrel=1e-13)
        assert rd.reference_energy(rd.UniformCube(2), s) == pytest.approx(8.0 * val, rel=1e-14)


def test_reference_energy_monotone_in_s_for_unit_diameter():
    m = rd.UniformCube(1)
    vals = [rd.reference_energy(m, s) for s in (0.0, 0.2, 0.5, 0.8, 0.95)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # circle rescaled to diameter 1: energies pick up the factor 2^s
    circ = [2.0**s * rd.reference_energy(rd.UniformCircle(), s) for s in (0.0, 0.3, 0.6, 0.9)]
    assert all(b >= a for a, b in zip(circ, circ[1:]))


def test_reference_energy_unsupported_variants():
    with pytest.raises(rd.UnsupportedVariant):
        rd.reference_energy(rd.CantorProduct(((2, 3, (0, 2)),)), 0.5)
    with pytest.raises(rd.UnsupportedVariant):
        rd.reference_energy(rd.UniformCube(3), 0.5)
    with pytest.raises(rd.UnsupportedVariant):
        sobolev_dimension(rd.RotatingSemicircle())


# -------------------------------------------------------------- ball energy


def test_single_ball_self_term_matches_radial_reduction():
    # the same-ball path integrates the doubled-radius radial reduction,
    # whose closed form is sigma_d 2^{d-s} / (omega_d c^s (d-s))
    cloud = rd.PointCloud([[0.0]])
    res = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(0.5, 1.0, 1))
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)
    assert res.cross == 0.0


def test_exact_self_energy_is_smaller_than_reduction():
    # the exact lens-overlap integral for one interval: 2 (2 rho)^{-s} /
    # ((1-s)(2-s)); the doubled-radius reduction overshoots by 1/(2-s)
    exact = rd.ball_self_energy_exact(1, 1.0, 0.5)
    oracle, _ = integrate.quad(lambda u: 2.0 * u**-0.5 * (2.0 - u) / 4.0, 0.0, 2.0)
    assert exact == pytest.approx(oracle, rel=1e-10)
    assert exact == pytest.approx((2.0 / 3.0) * 2.0 * math.sqrt(2.0), rel=1e-10)


def test_self_interaction_constant_closed_form():
    # sigma_d / omega_d = d, so the constant is d 2^{d-s} / (c^s (d-s))
    for d in (1, 2, 3):
        for s, c in ((0.5, 1.0), (0.9, 0.3), (d - 0.01, 4.0)):
            radial, _ = integrate.quad(lambda r: r ** (d - 1.0 - s), 0.0, 2.0, epsabs=0.0, epsrel=1e-12)
            want = d * 2.0 ** (d - s) / (c**s * (d - s))
            got = _self_interaction_constant(d, s, c)
            assert got == pytest.approx(want, rel=1e-14)
            assert got == pytest.approx(d * radial / c**s, rel=1e-10)


def test_ball_constant_is_the_numeric_same_ball_term():
    cases = (
        (rd.PointCloud(np.linspace(0.0, 1.0, 16).reshape(-1, 1)), 0.5, 0.5),
        (rd.lattice(2, 2), 1.2, 0.1),
    )
    for cloud, s, c in cases:
        params = rd.BallMeasureParams(s, c, cloud.n)
        predicted = rd.ball_energy_predicted(cloud, params)
        numeric = rd.ball_energy_numeric(cloud, params)
        assert predicted.constant == numeric.same_ball


def lens_self_energy(radius, s):
    """E|x - y|^{-s} for x, y uniform on a disc, by quadrature of the
    distance density: the lens area of two discs at distance t."""

    def f(t):
        lens = 2.0 * radius**2 * math.acos(t / (2.0 * radius)) - (t / 2.0) * math.sqrt(
            max(4.0 * radius**2 - t * t, 0.0)
        )
        return t ** (-s) * lens * 2.0 * math.pi * t

    val, _ = integrate.quad(f, 0.0, 2.0 * radius, epsabs=0.0, epsrel=1e-12, limit=200)
    return val / (math.pi * radius**2) ** 2


def test_exact_self_energy_disc_matches_lens_integral():
    for s in (0.1, 0.3, 0.5, 1.0, 1.5, 1.9, -1.0):
        assert rd.ball_self_energy_exact(2, 1.0, s) == pytest.approx(
            lens_self_energy(1.0, s), rel=1e-10
        )
    # mean distance of the unit disc, and E|x - y|^2 = 2 E|x|^2 = 1
    assert rd.ball_self_energy_exact(2, 1.0, -1.0) == pytest.approx(128.0 / (45.0 * math.pi), rel=1e-14)
    assert rd.ball_self_energy_exact(2, 1.0, -2.0) == pytest.approx(1.0, rel=1e-14)
    assert rd.ball_self_energy_exact(2, 1.0, 2.0) == math.inf


def test_exact_self_energy_is_homogeneous_of_degree_minus_s():
    for d in (1, 2):
        for s in (0.1, 0.5, 1.5, 1.9):
            if s >= d:
                continue
            unit = rd.ball_self_energy_exact(d, 1.0, s)
            for rho in (1e-3, 0.5, 7.0):
                got = rd.ball_self_energy_exact(d, rho, s)
                assert got == pytest.approx(rho**-s * unit, rel=1e-13), (d, s, rho)


def test_exact_self_energy_disc_against_monte_carlo():
    exact = rd.ball_self_energy_exact(2, 1.0, 0.5)
    rng = np.random.default_rng(0)

    def draw(k):
        v = rng.normal(size=(k, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * np.sqrt(rng.random((k, 1)))

    x, y = draw(400_000), draw(400_000)
    mc = float(np.mean(np.sum((x - y) ** 2, axis=1) ** -0.25))
    assert exact == pytest.approx(mc, rel=5e-3)


def test_two_far_balls_cross_term_asymptote():
    # separation L >> radius: cross term approaches (1/2) L^{-s}
    params = rd.BallMeasureParams(0.5, 1.0, 2)
    sep = 1000.0 * params.radius
    cloud = rd.PointCloud([[0.0], [sep]])
    res = rd.ball_energy_numeric(cloud, params)
    assert res.cross == pytest.approx(0.5 * sep**-0.5, rel=1e-2)


def test_cross_quadrature_matches_interval_antiderivative():
    # independent closed form for two disjoint intervals: iterated exact
    # integration of (y - x)^{-s}
    s = 0.7
    params = rd.BallMeasureParams(s, 2.0, 2)
    rho = params.radius
    sep = 10.0 * rho
    cloud = rd.PointCloud([[0.0], [sep]])

    def anti(t):
        return t ** (2.0 - s) / ((1.0 - s) * (2.0 - s))

    x0, x1 = -rho, rho
    y0, y1 = sep - rho, sep + rho
    exact = (anti(y1 - x0) - anti(y1 - x1) - anti(y0 - x0) + anti(y0 - x1)) / (2 * rho) ** 2
    res = rd.ball_energy_numeric(cloud, params)
    # cross term sums both ordered pairs with weight 1/n^2
    assert res.cross == pytest.approx(2.0 * exact / 4.0, rel=1e-9)


def test_ball_energy_zero_like_exponent_total_mass():
    # four far balls are well under the quadrature budget: the total is the
    # same-ball constant plus the quadrature cross term
    params = rd.BallMeasureParams(0.5, 1.0, 4)
    cloud = rd.PointCloud([[0.0], [10.0], [20.0], [30.0]])
    res = rd.ball_energy_numeric(cloud, params)
    assert res.method == "quadrature"
    assert res.value > 0
    assert res.value == res.same_ball + res.cross


def test_ball_numeric_vs_predicted_gap_small_and_shrinking():
    gaps = []
    for n in (16, 32, 64, 128):
        cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
        params = rd.BallMeasureParams(0.5, 4.0, n)
        numeric = rd.ball_energy_numeric(cloud, params)
        predicted = rd.ball_energy_predicted(cloud, params)
        gaps.append(abs(numeric.value - predicted.value) / predicted.value)
    assert gaps[2] <= 0.02
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_predicted_formula_components():
    n = 64
    cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
    pred = rd.ball_energy_predicted(cloud, rd.BallMeasureParams(0.5, 1.0, n))
    j = rd.discrete_energy(cloud, 0.5)
    assert pred.constant == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert pred.value == pytest.approx((n - 1) / n * j + 2.0 * math.sqrt(2.0), rel=1e-12)
    assert pred.epsilon > 0


def test_predicted_rejects_pole_and_small_n():
    cloud = rd.PointCloud(np.linspace(0.0, 1.0, 64).reshape(-1, 1))
    with pytest.raises(ValueError):
        rd.ball_energy_predicted(cloud, rd.BallMeasureParams(1.0, 1.0, 64))
    small = rd.PointCloud(np.linspace(0.0, 1.0, 3).reshape(-1, 1))
    with pytest.raises(rd.HypothesisViolated):
        rd.ball_energy_predicted(small, rd.BallMeasureParams(0.9, 0.001, 3))


def test_predicted_rejects_overlapping_balls():
    n = 16
    cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
    with pytest.raises(rd.HypothesisViolated):
        rd.ball_energy_predicted(cloud, rd.BallMeasureParams(0.5, 20.0, n))


def test_two_far_discs_cross_term_asymptote():
    # d = 2 product quadrature: two discs far apart approach (1/2) L^{-s}
    params = rd.BallMeasureParams(0.5, 1.0, 2)
    sep = 500.0 * params.radius
    cloud = rd.PointCloud([[0.0, 0.0], [sep, 0.0]])
    res = rd.ball_energy_numeric(cloud, params)
    assert res.method == "quadrature"
    assert res.cross == pytest.approx(0.5 * sep**-0.5, rel=1e-2)


def test_disc_cross_term_against_monte_carlo():
    params = rd.BallMeasureParams(0.5, 1.0, 2)
    rho = params.radius
    sep = 6.0 * rho
    cloud = rd.PointCloud([[0.0, 0.0], [sep, 0.0]])
    res = rd.ball_energy_numeric(cloud, params)
    rng = np.random.default_rng(3)

    def draw(k):
        v = rng.normal(size=(k, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * (rho * np.sqrt(rng.random((k, 1))))

    x = draw(300_000)
    y = draw(300_000) + np.array([sep, 0.0])
    mc = float(np.mean(np.sum((x - y) ** 2, axis=1) ** -0.25))
    assert res.cross == pytest.approx(2.0 * mc / 4.0, rel=3e-3)


def test_ball_numeric_monte_carlo_fallback():
    n = 8
    rng = np.random.default_rng(1)
    cloud = rd.PointCloud(rng.random((n, 3)) * 100.0)
    params = rd.BallMeasureParams(0.5, 1.0, n)
    res = rd.ball_energy_numeric(cloud, params, seed=2)
    assert res.method == "monte-carlo"
    assert res.standard_error is not None and res.standard_error > 0
    # sanity on scale: cross term near the point-pair average
    j = rd.discrete_energy(cloud, 0.5)
    assert res.cross == pytest.approx((n - 1) / n * j, rel=0.05)


def per_pair_interval_rule(points, radius, s):
    """Reference cross sum in d = 1: 24-node Gauss-Legendre per pair of intervals."""
    x, w = np.polynomial.legendre.leggauss(24)
    off = radius * x
    ww = np.outer(w, w) / 4.0
    c = points[:, 0]
    total = 0.0
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            total += float(np.sum(ww * np.abs(c[i] - c[j] + off[:, None] - off[None, :]) ** (-s)))
    return 2.0 * total


def per_pair_disc_rule(points, radius, s):
    """Reference cross sum in d = 2: 8 radial x 16 angular nodes per pair of discs."""
    u, wu = np.polynomial.legendre.leggauss(8)
    r = radius * np.sqrt(0.5 * (u + 1.0))
    t = 2.0 * math.pi * np.arange(16) / 16
    nodes = np.column_stack([np.outer(r, np.cos(t)).ravel(), np.outer(r, np.sin(t)).ravel()])
    pair_w = np.outer(0.5 * wu, np.full(16, 1.0 / 16)).ravel()
    pair_w = np.outer(pair_w, pair_w).ravel()
    total = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            diff = (points[i] + nodes)[:, None, :] - (points[j] + nodes)[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2)).ravel()
            total += 2.0 * float(np.dot(dist ** (-s), pair_w))
    return total


def quadrature_cases():
    line = rd.PointCloud(np.linspace(0.0, 1.0, 50).reshape(-1, 1))
    return ((line, 0.5, 4.0, per_pair_interval_rule), (rd.lattice(2, 2), 1.2, 1.0, per_pair_disc_rule))


def test_cross_quadrature_matches_per_pair_rules():
    for cloud, s, c, oracle in quadrature_cases():
        params = rd.BallMeasureParams(s, c, cloud.n)
        res = rd.ball_energy_numeric(cloud, params)
        want = oracle(cloud.points, params.radius, s) / cloud.n**2
        assert res.method == "quadrature"
        assert res.cross == pytest.approx(want, rel=1e-12)


def test_cross_quadrature_does_not_depend_on_the_strips(monkeypatch):
    # 64-value strips cut through the nodes of one ball, so a same-ball test
    # keyed on strip-local indices would change the value
    want = [
        rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, c, cloud.n)).cross
        for cloud, s, c, _ in quadrature_cases()
    ]
    monkeypatch.setattr(cloud_mod, "_TILE", 64)
    assert len(cloud_mod._row_blocks(50 * 24)) > 50
    for (cloud, s, c, _), ref in zip(quadrature_cases(), want):
        got = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, c, cloud.n)).cross
        assert got == pytest.approx(ref, rel=1e-12)


def test_cross_quadrature_coinciding_nodes_is_inf():
    # nodes at +-0.5 around centers 0 and 1: the two balls share the node 0.5
    got = _cross_quadrature(np.array([[0.0], [1.0]]), np.array([[-0.5], [0.5]]), np.full(2, 0.5), 0.5)
    assert got == math.inf


def test_quadrature_budget_switch_points(monkeypatch):
    # pairs x nodes^2 against 2e8: 1-D (24 nodes) switches between n = 833
    # and 834, 2-D (128 nodes) between n = 156 and 157
    monkeypatch.setattr(measures_mod, "_cross_quadrature", lambda *args: 0.0)
    for d, last in ((1, 833), (2, 156)):
        for n, method in ((last, "quadrature"), (last + 1, "monte-carlo")):
            pts = np.zeros((n, d))
            pts[:, 0] = np.linspace(0.0, 1.0, n)
            cloud = rd.PointCloud(pts)
            res = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(0.5, 1.0, n))
            assert res.method == method, (d, n)


def test_monte_carlo_past_the_budget_matches_point_energy():
    n, s = 834, 0.5
    cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
    res = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, 1.0, n), seed=3)
    assert res.method == "monte-carlo"
    j = rd.discrete_energy(cloud, s)
    assert abs(res.cross - (n - 1) / n * j) <= 4.0 * res.standard_error


def test_ball_params_validation():
    # s = 0 is rejected: the radius scale n^{-1/s} is undefined there, so
    # the total-mass identity I_0 = 1 has no ball-measure realization
    with pytest.raises(ValueError):
        rd.BallMeasureParams(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        rd.BallMeasureParams(0.5, -1.0, 4)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rd.BallMeasureParams(bad, 1.0, 4)
        with pytest.raises(ValueError):
            rd.BallMeasureParams(0.5, bad, 4)
    cloud = rd.PointCloud([[0.0], [1.0]])
    with pytest.raises(ValueError):
        rd.ball_energy_numeric(cloud, rd.BallMeasureParams(0.5, 1.0, 3))


def test_reference_energy_rejects_non_finite_exponent():
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rd.reference_energy(rd.UniformCube(1), s)


def test_ball_numeric_infinite_at_ambient_dimension():
    cloud = rd.PointCloud([[0.0], [1.0]])
    res = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(1.0, 1.0, 2))
    assert res.value == math.inf


# ----------------------------------------------------------- serialization


def test_measure_json_round_trip():
    specimens = [
        rd.UniformCube(2),
        rd.UniformCircle(),
        rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)),), depth=20),
        rd.RotatingSemicircle(1.25),
        rd.Empirical(rd.PointCloud([[0.0, 1.0], [2.0, 3.0]])),
    ]
    for m in specimens:
        doc = rd.measure_to_json(m)
        back = rd.measure_from_json(doc)
        assert rd.measure_to_json(back) == doc
