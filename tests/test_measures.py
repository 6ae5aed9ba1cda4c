import dataclasses
import functools
import inspect
import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, logsumexp
from scipy.spatial.distance import pdist

import rieszdim as rd
import rieszdim.cloud as cloud_mod
import rieszdim.measures as measures_mod
import rieszdim.rng as rng_mod
from rieszdim.balls import (
    _FAR,
    _cross_sum,
    _difference_rule,
    _pizzetti,
    _self_interaction_constant,
)
from rieszdim.measures import sample_detail, sobolev_dimension


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


@pytest.mark.parametrize(
    "seed, rep",
    [(1.5, 0), (1, 2.7), (math.nan, 0), (0, math.inf), ("1", 0), (-1, 0), (2**64, 0), (0, 2**128)],
)
def test_non_integral_or_out_of_range_seed_or_rep_refused(seed, rep):
    # int() used to truncate: seed 1.5 drew seed 1's cloud and rep 2.7 rep 2's
    with pytest.raises(ValueError, match="must be an integer"):
        rd.sample(rd.UniformCube(1), 3, seed, rep)
    with pytest.raises(ValueError, match="must be an integer"):
        rng_mod.stream(seed, rep)


def test_integral_seed_and_rep_of_any_number_type_are_taken():
    want = rd.sample(rd.UniformCube(2), 4, 2, rep=3).points.tobytes()
    for seed, rep in ((2.0, 3.0), (np.uint64(2), np.int8(3)), (np.float64(2), 3)):
        assert rd.sample(rd.UniformCube(2), 4, seed, rep).points.tobytes() == want


def _odd_cantor():
    # 41 points of 25 digits: 1025 bounded 32-bit draws, which leave half a 64-bit word
    return rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)),), depth=25)


def _fresh(draw):
    """``draw()`` with every sampler drawing from a fresh ``rng.stream`` generator."""
    kept = measures_mod._kept
    measures_mod._kept = rng_mod.stream
    try:
        return draw()
    finally:
        measures_mod._kept = kept


def test_kept_generator_draws_what_a_fresh_stream_draws():
    grid = rd.PointCloud(np.linspace(0.0, 1.0, 10)[:, None])  # 41 draws from 10 atoms collide
    measures = [
        rd.UniformCube(2),
        rd.UniformCircle(),
        _odd_cantor(),
        rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)), rd.CantorFactor(3, 5, (0, 2, 4)))),
        rd.RotatingSemicircle(0.7),
        rd.Empirical(grid),
    ]
    # interleaved: every draw follows one of another measure, seed or rep
    cases = [(m, seed, rep) for rep in (0, 1, 2**64, 2**128 - 1) for seed in (0, 2**64 - 1) for m in measures]

    def draw_all():
        return [sample_detail(m, 41, seed, rep) for m, seed, rep in cases]

    want, got = _fresh(draw_all), draw_all()
    assert [(c.points.tobytes(), i) for c, i in got] == [(c.points.tobytes(), i) for c, i in want]
    assert any(i.perturbed for _, i in got)


def test_a_half_used_word_does_not_leak_into_the_next_draw():
    cantor, empirical = _odd_cantor(), rd.Empirical(rd.PointCloud([[0.0], [1.0], [2.0]]))
    draws = [(cantor, 5), (cantor, 6), (empirical, 6), (cantor, 5)]
    want = _fresh(lambda: [rd.sample(m, 41, 3, rep).points.tobytes() for m, rep in draws])
    for (m, rep), w in zip(draws, want):
        assert rd.sample(m, 41, 3, rep).points.tobytes() == w
        if m is cantor:
            assert rng_mod._local.g.bit_generator.state["has_uint32"] == 1


def test_threads_drawing_at_once_get_the_clouds_of_a_serial_run():
    jobs = [(m, rep) for rep in range(6) for m in (rd.UniformCube(3), _odd_cantor(), rd.UniformCircle())]
    count = {rd.UniformCube: 4000, rd.CantorProduct: 41, rd.UniformCircle: 4000}
    want = [rd.sample(m, count[type(m)], 11, rep).points.tobytes() for m, rep in jobs]
    callers, start = 4, threading.Barrier(4)
    results = [None] * callers

    def draw(t):
        order = jobs[t:] + jobs[:t]  # each thread starts elsewhere in the list
        start.wait()
        got = [rd.sample(m, count[type(m)], 11, rep).points.tobytes() for m, rep in order]
        results[t] = got[len(jobs) - t :] + got[: len(jobs) - t]

    threads = [threading.Thread(target=draw, args=(t,)) for t in range(callers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * callers


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


def test_empirical_resampling_of_one_point_uses_the_fallback_scale():
    # one atom spans nothing, so the perturbation scale falls back to 1e-12
    base = rd.PointCloud([[0.5, -2.0]])
    cloud, info = sample_detail(rd.Empirical(base), 8, 3)
    assert cloud.n == 8
    assert info.perturbed >= 7
    offsets = np.abs(cloud.points - base.points).max(axis=1)
    assert (offsets == 0.0).sum() == 1  # the first draw is kept as drawn
    assert offsets.max() <= 64e-12


def test_empirical_resampling_of_a_span_past_the_double_range():
    # the span 2e308 overflows: the scale is 1e-12 of it, taken from the
    # halved spans, with no overflow warning (which the suite turns into an
    # error) and no infinite perturbation
    base = rd.PointCloud([[-1e308], [1e308]])
    cloud, info = sample_detail(rd.Empirical(base), 5, 0)
    assert cloud.n == 5 and info.perturbed >= 3
    offsets = np.abs(np.abs(cloud.points) - 1e308)
    assert offsets.max() <= 64 * 2e296


def test_empirical_resampling_at_the_largest_double():
    # a duplicate of +-M, M the largest double, whose step points outward
    # is reflected inward instead of overflowing to inf
    big = sys.float_info.max
    cloud, info = sample_detail(rd.Empirical(rd.PointCloud([[-big], [big]])), 6, 0)
    assert cloud.n == 6 and info.perturbed >= 4
    assert np.isfinite(cloud.points).all()
    assert np.unique(cloud.points, axis=0).shape[0] == 6
    offsets = big - np.abs(cloud.points)
    assert offsets.min() >= 0 and offsets.max() <= 64 * 2e-12 * big


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


@pytest.mark.parametrize(
    "measure, dim, method",
    [
        (rd.UniformCube(1), 1.0, "closed-form"),
        (rd.UniformCube(2), 2.0, "quadrature"),
        (rd.UniformCircle(), 1.0, "closed-form"),
    ],
)
def test_oracle_dimension_and_method(measure, dim, method):
    assert sobolev_dimension(measure) == dim
    assert rd.reference_energy_method(measure) == method
    assert rd.reference_energy(measure, dim) == math.inf
    assert math.isfinite(rd.reference_energy(measure, 0.99 * dim))


@pytest.mark.parametrize(
    "measure",
    [
        rd.UniformCube(3),
        rd.RotatingSemicircle(),
        rd.CantorProduct(((2, 3, (0, 2)),)),
        rd.Empirical(rd.PointCloud([[0.0], [1.0]])),
        {"variant": "uniform-cube", "dim": 1},  # a measure document is no measure, and unhashable
    ],
)
def test_every_oracle_refuses_a_measure_without_one(measure):
    for call in (sobolev_dimension, rd.reference_energy_method,
                 lambda m: rd.reference_energy(m, 0.5)):
        with pytest.raises(rd.UnsupportedVariant, match="no oracle for"):
            call(measure)
    assert rd.reference_energy(measure, 0.0) == 1.0  # I_0 needs no oracle


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
    # integration of (y - x)^{-s}; 2.2 radii apart is a near pair
    s = 0.7
    params = rd.BallMeasureParams(s, 2.0, 2)
    rho = params.radius

    def anti(t):
        return t ** (2.0 - s) / ((1.0 - s) * (2.0 - s))

    for sep in (2.2 * rho, 10.0 * rho):
        cloud = rd.PointCloud([[0.0], [sep]])
        x0, x1 = -rho, rho
        y0, y1 = sep - rho, sep + rho
        exact = (anti(y1 - x0) - anti(y1 - x1) - anti(y0 - x0) + anti(y0 - x1)) / (2 * rho) ** 2
        res = rd.ball_energy_numeric(cloud, params)
        # cross term sums both ordered pairs with weight 1/n^2
        assert res.cross == pytest.approx(2.0 * exact / 4.0, rel=1e-9), sep / rho


def test_ball_energy_zero_like_exponent_total_mass():
    # the total is the same-ball constant plus the cross term
    params = rd.BallMeasureParams(0.5, 1.0, 4)
    cloud = rd.PointCloud([[0.0], [10.0], [20.0], [30.0]])
    res = rd.ball_energy_numeric(cloud, params)
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
    # two discs far apart approach (1/2) L^{-s}
    params = rd.BallMeasureParams(0.5, 1.0, 2)
    sep = 500.0 * params.radius
    cloud = rd.PointCloud([[0.0, 0.0], [sep, 0.0]])
    res = rd.ball_energy_numeric(cloud, params)
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


@functools.lru_cache
def pizzetti_log_a(d, terms=1500):
    """log a_j, a_j = sum_{k+l=j} b_k b_l, b_k = Gamma(d/2+1) / (4^k k! Gamma(d/2+k+1))."""
    k = np.arange(terms)
    lb = gammaln(d / 2 + 1) - k * math.log(4.0) - gammaln(k + 1) - gammaln(d / 2 + k + 1)
    out = []
    for j in np.array_split(k, -(-terms // 250)):
        i = k[: j[-1] + 1]
        pairs = lb[i] + lb[np.abs(j[:, None] - i)]
        pairs[i > j[:, None]] = -np.inf
        out.append(logsumexp(pairs, axis=1))
    return np.concatenate(out)


def pizzetti_oracle(d, s, u, terms=1500):
    """Cross term of two unit balls at centre distances u > 2: Pizzetti's series in log space.

    sum_j a_j prod_{i<j} (s+2i)(s+2i+2-d) u^{-s-2j}, each term's magnitude
    taken as one exp of its log and its sign from the signed products; it
    converges like (2/u)^{2j} and shares no code with the library.
    """
    u = np.asarray(u, dtype=float)
    j = np.arange(terms)
    f = (s + 2 * j) * (s + 2 * j + 2 - d)
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(f))
    log_p = np.concatenate(([0.0], np.cumsum(log_f[:-1])))
    sign = np.concatenate(([1.0], np.cumprod(np.sign(f[:-1]))))
    log_terms = (pizzetti_log_a(d, terms) + log_p)[:, None] - np.outer(s + 2 * j, np.log(u))
    return (sign[:, None] * np.exp(log_terms)).sum(axis=0)


def oracle_cross_sum(points, rho, s):
    """Sum over ordered pairs of distinct radius-rho balls of their cross term, by the oracle."""
    u, count = np.unique(pdist(points) / rho, return_counts=True)
    return 2.0 * rho**-s * math.fsum(count * pizzetti_oracle(points.shape[1], s, u))


def test_pizzetti_oracle_converges_and_matches_closed_forms():
    # 500 more terms change nothing (the terms fall at least like
    # 0.952^j); d = 1 has the interval closed form, and in d = 3 a ball's
    # mean of the harmonic r^{-1} is its centre value
    for d in (1, 2, 3, 4):
        for s in (0.1 * d, 0.97 * d):
            u = np.array([2.05, 2.2, _FAR])
            np.testing.assert_allclose(
                pizzetti_oracle(d, s, u), pizzetti_oracle(d, s, u, terms=2000), rtol=1e-14
            )
    s, u = 0.7, 2.05

    def anti(t):
        return t ** (2.0 - s) / ((1.0 - s) * (2.0 - s))

    exact = (anti(u + 2.0) - 2.0 * anti(u) + anti(u - 2.0)) / 4.0
    assert pizzetti_oracle(1, s, [u])[0] == pytest.approx(exact, rel=1e-13)
    assert pizzetti_oracle(3, 1.0, [u])[0] == pytest.approx(1.0 / u, rel=1e-15)


def test_difference_rule_matches_the_log_space_series():
    # per pair, for s spanning (0, d): <= 1e-12 from 2.2 radii, <= 1e-7 at
    # 2.05 radii, where the balls almost touch
    u = np.array([2.05, 2.2, 2.5, 4.0, _FAR])
    for d in (1, 2, 3, 4):
        for s in (0.1 * d, 0.5 * d, 0.75 * d, 0.97 * d):
            err = np.abs(_difference_rule(u, d, s) / pizzetti_oracle(d, s, u) - 1.0)
            assert err[0] <= 1e-7, (d, s)
            assert err[1:].max() <= 1e-12, (d, s)


def test_ball_numeric_in_three_dimensions_matches_the_oracle():
    # the 4 x 4 x 4 lattice with 2 rho = 0.9 gap: its 144 nearest pairs are
    # 2.22 radii apart, and 1,164 of its 2,016 pairs are near pairs
    cloud = rd.lattice(3, 2)
    s = 1.5
    rho = 0.45 * cloud.min_gap()
    params = rd.BallMeasureParams(s, rho * cloud.n ** (1.0 / s), cloud.n)
    res = rd.ball_energy_numeric(cloud, params)
    want = oracle_cross_sum(cloud.points, params.radius, s) / cloud.n**2
    assert res.cross == pytest.approx(want, rel=1e-10)


def test_discs_that_almost_touch_match_the_oracle_sum():
    # 2 rho = 0.98 gap at s = 1.5: nearest neighbours are 2.04 radii apart
    for k in (3, 4):
        cloud = rd.lattice(2, k)
        s = 1.5
        rho = 0.49 * cloud.min_gap()
        params = rd.BallMeasureParams(s, rho * cloud.n ** (1.0 / s), cloud.n)
        res = rd.ball_energy_numeric(cloud, params)
        want = oracle_cross_sum(cloud.points, params.radius, s) / cloud.n**2
        assert res.cross == pytest.approx(want, rel=1e-7), k


def quadrature_cases():
    # the discs and the dyadic line have near pairs 2.5 and 2.2 radii apart
    line = rd.PointCloud(np.linspace(0.0, 1.0, 50).reshape(-1, 1))
    return (
        (line, 0.5, 4.0),
        (rd.lattice(1, 6), 0.5, 64 / 2.2),
        (rd.lattice(2, 2), 1.2, 1.0),
    )


def test_cross_quadrature_matches_per_pair_rules():
    for cloud, s, c in quadrature_cases():
        params = rd.BallMeasureParams(s, c, cloud.n)
        res = rd.ball_energy_numeric(cloud, params)
        want = oracle_cross_sum(cloud.points, params.radius, s) / cloud.n**2
        assert res.cross == pytest.approx(want, rel=1e-12)


def test_cross_quadrature_does_not_depend_on_the_strips(monkeypatch):
    # 64-value strips split the fold of the centres into many strips and put
    # each near pair in a chunk of its own; neither may change the value
    want = [
        rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, c, cloud.n)).cross
        for cloud, s, c in quadrature_cases()
    ]
    monkeypatch.setattr(cloud_mod, "_TILE", 64)
    assert len(cloud_mod._fold_blocks(50)) > 10
    for (cloud, s, c), ref in zip(quadrature_cases(), want):
        got = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, c, cloud.n)).cross
        assert got == pytest.approx(ref, rel=1e-12)


def test_overlapping_balls_raise_hypothesis_violated():
    # touching (r = 2 rho) or overlapping balls have no near-pair rule
    for sep in (2.0, 1.5):
        with pytest.raises(rd.HypothesisViolated):
            _cross_sum(np.array([[0.0], [sep]]), 1.0, 0.5)
    cloud = rd.lattice(2, 2)
    params = rd.BallMeasureParams(1.2, 0.6 * cloud.min_gap() * 16 ** (1 / 1.2), 16)
    with pytest.raises(rd.HypothesisViolated):
        rd.ball_energy_numeric(cloud, params)


def test_ball_numeric_is_one_deterministic_rule_in_every_dimension():
    # no size switch and no Monte Carlo: a line of balls 2.5 radii apart
    # matches the oracle in d = 1 .. 4, with no seed to take
    assert [f.name for f in dataclasses.fields(rd.BallEnergyResult)] == ["value", "same_ball", "cross"]
    assert "seed" not in inspect.signature(rd.ball_energy_numeric).parameters
    n, s = 20, 0.5
    for d in (1, 2, 3, 4):
        pts = np.zeros((n, d))
        pts[:, 0] = np.arange(n) * 2.5
        params = rd.BallMeasureParams(s, n ** (1.0 / s), n)
        res = rd.ball_energy_numeric(rd.PointCloud(pts), params)
        want = oracle_cross_sum(pts, params.radius, s) / n**2
        assert res.cross == pytest.approx(want, rel=1e-12), d


def test_cross_sum_of_a_large_line_matches_point_energy():
    # radius 834^-2 against a gap of 1/833: the balls act as their centres
    n, s = 834, 0.5
    cloud = rd.PointCloud(np.linspace(0.0, 1.0, n).reshape(-1, 1))
    res = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, 1.0, n))
    j = rd.discrete_energy(cloud, s)
    assert res.cross == pytest.approx((n - 1) / n * j, rel=1e-6)


def test_far_series_matches_the_difference_rule():
    # at the far threshold and twice it both are exact to rounding
    rho = 0.75
    for d in (1, 2, 3, 4):
        for s in (0.1 * d, 0.5 * d, 0.85 * d, 0.97 * d):
            coeffs = _pizzetti(d, s, rho)
            for r in (_FAR * rho, 2.0 * _FAR * rho):
                series = math.fsum(c * r ** (-s - 2 * j) for j, c in enumerate(coeffs))
                rule = rho**-s * _difference_rule(np.array([r / rho]), d, s)[0]
                assert series == pytest.approx(rule, rel=1e-12), (d, s, r)


def test_cross_sum_is_homogeneous_of_degree_minus_s():
    # scaling by 2^k is exact, so only the final 2^{-ks} moves the value
    for cloud, s, c in ((rd.grid_1d(64), 0.9, 0.5), (rd.lattice(2, 3), 1.2, 1.0)):
        base = rd.ball_energy_numeric(cloud, rd.BallMeasureParams(s, c, cloud.n)).cross
        for k in (-300, 300):
            scaled = rd.PointCloud(np.ldexp(cloud.points, k))
            got = rd.ball_energy_numeric(scaled, rd.BallMeasureParams(s, math.ldexp(c, k), cloud.n))
            assert got.cross == pytest.approx(base * 2.0 ** (-k * s), rel=1e-12)


def test_cross_sum_is_bit_identical_at_any_thread_count():
    # 800 centres make ten fold strips; their 799 nearest neighbours are
    # near pairs. The 256 discs and 512 balls have 930 and 3,696 near pairs;
    # near pairs go 28 to a chunk.
    for cloud, s, c in ((rd.grid_1d(800), 0.9, 0.5), (rd.lattice(2, 4), 1.2, 2.0), (rd.lattice(3, 3), 1.5, 2.0)):
        params = rd.BallMeasureParams(s, c, cloud.n)
        near = sum(int((r < _FAR * params.radius).sum()) for r in cloud_mod._pair_distances(cloud.points))
        assert near > 4 * cloud_mod._TILE // 1152, cloud
        got = {rd.ball_energy_numeric(cloud, params, threads=t) for t in (1, 2, 4)}
        assert len(got) == 1, cloud


def test_cross_sum_of_vanishing_radii_is_the_point_energy():
    # at radius 0 only the point term of the series is taken, whose higher
    # powers of the gap 1e-11 would overflow
    line = rd.PointCloud([[0.0], [1e-11], [0.5], [1.0]])
    assert _cross_sum(line.points, 0.0, 0.001) == pytest.approx(
        12 * rd.discrete_energy(line, 0.001), rel=1e-12
    )
    # the scale 2^-e is bounded so the centres stay finite: 2^1073 is not
    assert _cross_sum(line.points, 5e-324, 0.5) == pytest.approx(
        12 * rd.discrete_energy(line, 0.5), rel=1e-12
    )
    # 2^{-es} = 2^{1100} is past the double range; the value is not
    square = rd.PointCloud(np.ldexp(rd.lattice(2, 2).points, -100))
    want = 16 * 15 * rd.discrete_energy(square, 1.9)
    assert _cross_sum(square.points, 2.0**-579, 1.9) == pytest.approx(want, rel=1e-12)


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
    # s = 0.001 puts the radius c n^(-1/s) at 4^-1000, which underflows to 0
    with pytest.raises(ValueError, match="underflows to 0"):
        rd.BallMeasureParams(0.001, 1.0, 4)
    assert rd.BallMeasureParams(0.01, 1.0, 4).radius == 4.0**-100


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_exact_ball_self_energy_refuses_a_radius_that_is_not_finite_and_positive(radius):
    for d in (1, 2):
        with pytest.raises(ValueError, match="finite and positive"):
            rd.ball_self_energy_exact(d, radius, 0.5)


def test_reference_energy_rejects_non_finite_exponent():
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rd.reference_energy(rd.UniformCube(1), s)


def test_tiny_radius_scale_gives_an_infinite_constant():
    # c^s underflows to 0 at c = 1e-300: the ball constant is past the
    # double range, and the prediction and the integration agree on inf
    cloud = rd.lattice(2, 2)
    params = rd.BallMeasureParams(1.5, 1e-300, cloud.n)
    predicted = rd.ball_energy_predicted(cloud, params)
    numeric = rd.ball_energy_numeric(cloud, params)
    assert predicted.constant == numeric.same_ball == math.inf
    assert predicted.value == numeric.value == math.inf
    assert numeric.cross == pytest.approx((cloud.n - 1) / cloud.n * predicted.point_energy, rel=1e-12)


def test_huge_radius_scale_gives_a_zero_constant():
    # c^s overflows at c = 1e300: the constant takes its limit 0, as the
    # underflow above takes inf, and overlapping balls are still refused
    assert _self_interaction_constant(2, 1.5, 1e300) == 0.0
    one = rd.ball_energy_numeric(rd.PointCloud([[0.5, 0.5]]), rd.BallMeasureParams(1.5, 1e300, 1))
    assert (one.value, one.same_ball, one.cross) == (0.0, 0.0, 0.0)
    with pytest.raises(rd.HypothesisViolated):
        rd.ball_energy_numeric(rd.lattice(2, 2), rd.BallMeasureParams(1.5, 1e300, 16))


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
