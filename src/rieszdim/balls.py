"""Ball measures: radius c*n^{-1/s} balls placed on the points of a cloud.

Their energy decomposes into a self-interaction term (the closed-form
radial reduction over the doubled-radius domain, which is the prediction
constant) plus cross terms, deterministic in every dimension: pairs of
balls at least ``_FAR`` radii apart take Pizzetti's series for ball means,
summed for all its exponents in one pass on the fold of
``energy._fold_sums``, and the nearer pairs take one rule over the
difference of two uniform points (``_difference_rule``), which depends on
the centre distance alone. Everything here is numpy and ``math``; no
adaptive quadrature is needed. Of the commands only ``ballcheck`` imports
this module, so the sampling commands do not build its classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, _pair_distances
from .energy import _RUN, _deal, _fold_sums, _fsum, discrete_energy
from .errors import HypothesisViolated, UnsupportedDimension

__all__ = [
    "BallMeasureParams",
    "BallEnergyResult",
    "BallPrediction",
    "ball_energy_numeric",
    "ball_energy_predicted",
    "ball_self_energy_exact",
    "unit_ball_volume",
    "unit_ball_surface",
]

_FAR = 2.0 ** (1.0 + 53.0 / (2 * _RUN))  # (2 / _FAR)^(2 _RUN) = 2^-53: one ladder run of terms


def unit_ball_volume(d: int) -> float:
    """Volume of the unit d-ball (length 2 in d = 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_ball_surface(d: int) -> float:
    """Surface measure of the unit d-ball boundary (2 points in d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class BallMeasureParams:
    """Ball-measure parameters: exponent s, radius scale c, point count n."""

    s: float
    c: float
    n: int

    def __post_init__(self):
        if not (0 < self.s < math.inf and 0 < self.c < math.inf and self.n >= 1):
            raise ValueError("need finite s > 0, finite c > 0, n >= 1")
        if self.radius == 0.0:
            raise ValueError(f"radius c n^(-1/s) underflows to 0 at c = {self.c!r}, "
                             f"n = {self.n}, s = {self.s!r}")

    @property
    def radius(self) -> float:
        return self.c * self.n ** (-1.0 / self.s)


@dataclass(frozen=True)
class BallEnergyResult:
    """Numerically integrated ball-measure energy."""

    value: float
    same_ball: float
    cross: float


@dataclass(frozen=True)
class BallPrediction:
    """Closed-form ball-measure energy with its hypothesis report."""

    value: float
    point_energy: float
    constant: float
    epsilon: float
    min_gap: float
    required_gap: float


def _self_interaction_constant(d: int, s: float, c: float) -> float:
    """sigma_d 2^{d-s} / (omega_d c^s (d-s)), the closed-form radial reduction.

    This is the n-independent total of the same-ball terms when each
    difference-variable integral is taken over the doubled-radius ball
    (the radial integral of r^{d-1-s} over [0, 2] is 2^{d-s} / (d-s)); the
    exact lens-overlap integral is smaller (see ball_self_energy_exact).
    It is inf once c^s underflows, as it does for c = 1e-300, and its limit
    0 once c^s overflows, as it does for c = 1e300.
    """
    try:
        denominator = unit_ball_volume(d) * c**s * (d - s)
    except OverflowError:
        return 0.0
    return unit_ball_surface(d) * 2.0 ** (d - s) / denominator if denominator else math.inf


def ball_self_energy_exact(d: int, radius: float, s: float) -> float:
    """Exact self-energy of one uniform ball: E|x - y|^{-s}, x, y in B(0, radius).

    Closed forms of the convolution reduction with the true overlap volume.
    For d = 1 this is 2 (2 rho)^{-s} / ((1-s)(2-s)); it differs from the
    doubled-radius reduction by the factor 1/(2-s) in d = 1. For d = 2 it
    is rho^{-s} 2^{3-s} Gamma((3-s)/2) / (sqrt(pi) Gamma(3 - s/2) (2-s)).
    The radius must be finite and positive.
    """
    if not 0 < radius < math.inf:
        raise ValueError("ball radius must be finite and positive")
    if s >= d:
        return math.inf
    if d == 1:
        length = 2.0 * radius
        return 2.0 * length ** (-s) / ((1.0 - s) * (2.0 - s))
    if d == 2:
        return (
            radius ** (-s)
            * 2.0 ** (3.0 - s)
            * math.gamma((3.0 - s) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(3.0 - s / 2.0) * (2.0 - s))
        )
    raise UnsupportedDimension("exact self-energy implemented for d in {1, 2}")


def _difference_rule(u: np.ndarray, d: int, s: float, *, threads: int = 1) -> np.ndarray:
    """Cross terms E|u e + z|^{-s} of two unit balls in R^d at centre distances ``u`` > 2.

    z, the difference of two uniform points of the balls, has the radial
    density proportional to t^{d-1} times the volume of the lens of two unit
    balls t apart; with t = 2 cos(phi) that is cos^{d-1}(phi) sin(phi)
    S_d(phi), S_d = int_0^phi sin^d, analytic on [0, pi/2]: 24 Gauss-Legendre
    nodes in phi. The angle theta of z to the centre line takes 48
    Gauss-Legendre nodes on [0, pi] under the weight sin^{d-2}(theta) (in d =
    1, theta = 0 and pi), so each u costs 1,152 values of ((u + t cos(theta))^2
    + (t sin(theta))^2)^{-s/2}. The u go in chunks of about ``cloud._TILE``
    values, dealt to ``threads`` by ``energy._deal``. A chunk's weighted sums
    are one BLAS product, so a result depends on its own u and its place in
    the chunk (to rounding), never on the workers.
    """
    y, w = np.polynomial.legendre.leggauss(24)
    phi = math.pi / 4.0 * (y + 1.0)
    cos, sin = np.cos(phi), np.sin(phi)
    S = [phi, 1.0 - cos]
    for k in range(2, d + 1):
        S.append((k - 1) / k * S[k - 2] - sin ** (k - 1) * cos / k)
    radial = w * cos ** (d - 1) * sin * S[d]
    if d == 1:
        x, sin_t, angular = np.array([1.0, -1.0]), np.zeros(2), np.ones(2)
    else:
        y, w = np.polynomial.legendre.leggauss(48)
        theta = math.pi / 2.0 * (y + 1.0)
        x, sin_t = np.cos(theta), np.sin(theta)
        angular = w * sin_t ** (d - 2)
    P, Q = np.outer(2.0 * cos, x).ravel(), np.outer(2.0 * cos, sin_t).ravel() ** 2
    W = np.outer(radial / radial.sum(), angular / angular.sum()).ravel()
    rows = max(1, _cloud._TILE // len(W))

    def run(share, out):
        for i in share:
            K = np.add(u[i : i + rows, None], P)
            K *= K
            K += Q
            np.log(K, out=K)
            K *= -0.5 * s
            np.exp(K, out=K)
            np.matmul(K, W, out=out[i : i + rows])

    # a value takes about 6 ns: a log, an exp and its share of the product
    return _deal(run, range(0, len(u), rows), len(u), threads, 6 * len(u) * len(W))


def _pizzetti(d: int, s: float, rho: float) -> list:
    """Coefficients c_j of the cross term sum_j c_j r^{-s-2j}, j < ``_RUN``, of two balls.

    Two uniform radius-rho balls whose centres are r > 2 rho apart: by
    Pizzetti's formula the mean of a function over a ball is
    sum_k b_k rho^{2k} Laplacian^k at the centre, b_k = Gamma(d/2+1) /
    (4^k k! Gamma(d/2+k+1)), and Laplacian^j r^{-s} = prod_{i<j} (s+2i)
    (s+2i+2-d) r^{-s-2j}. So c_j = a_j rho^{2j} prod_{i<j} (s+2i)(s+2i+2-d),
    a_j = sum_{k+l=j} b_k b_l. The terms fall like (2 rho / r)^{2j}.
    """
    b = [1.0]
    for k in range(1, _RUN):
        b.append(b[-1] / (2 * k * (d + 2 * k)))
    out, p = [], 1.0
    for j in range(_RUN):
        a = math.fsum(b[k] * b[j - k] for k in range(j + 1))
        out.append(a * rho ** (2 * j) * p)
        p *= (s + 2 * j) * (s + 2 * j + 2 - d)
    return out


def _cross_sum(points: np.ndarray, rho: float, s: float, *, threads: int = 1) -> float:
    """Sum over ordered pairs of distinct radius-rho balls of E|x-y|^{-s}.

    Near pairs, with centre distance r < ``_FAR`` rho, take
    :func:`_difference_rule` at r / rho; the walk that finds them also finds
    the smallest centre distance. The centres are then scaled exactly by a
    power of two 2^-e that puts it in [1/2, 1), so no r^{-s-2j} overflows;
    e is bounded so that the scaled centres stay below 2^1000. Far pairs
    take the series of :func:`_pizzetti`: one pass of ``energy._fold_sums``
    over the exponents s, s + 2, ..., which form one ladder run. The sum is
    scaled back by 2^{-es} once, in two steps, so that only a result past
    the double range is inf. Every pair sum is exact (``math.fsum``), so
    the result is bit-identical at any ``threads``. Raises
    HypothesisViolated when balls touch or overlap (r <= 2 rho).
    """
    d = points.shape[1]
    near, low = [], math.inf
    for r in _pair_distances(points):
        near.append(r[r < _FAR * rho])
        low = min(low, float(r.min()))
    r = np.concatenate(near)
    if r.size and r.min() <= 2.0 * rho:
        raise HypothesisViolated(f"balls overlap: two centres are {r.min() / rho:.6g} radii apart")
    e = max(math.frexp(low)[1], math.frexp(float(np.abs(points).max()))[1] - 1000)
    q = np.ldexp(points, -e)
    rho_q = math.ldexp(rho, -e)
    far = _FAR * rho_q
    # a term whose coefficient underflows (rho = 0 keeps only j = 0) is left out
    terms = [(s + 2 * j, c) for j, c in enumerate(_pizzetti(d, s, rho_q)) if c]
    F = _fold_sums(q, [t for t, _ in terms], threads=threads, weight=lambda r: (r >= far) * 1.0)
    sums = [c * _fsum(row) for (_, c), row in zip(terms, F)]
    if r.size:
        sums.append(rho_q**-s * _fsum(_difference_rule(r / rho, d, s, threads=threads)))
    k = math.floor(-e * s)
    with np.errstate(over="ignore"):
        return float(np.ldexp(2.0 * _fsum(np.array(sums)) * 2.0 ** (-e * s - k), k))


def ball_energy_numeric(
    cloud: PointCloud, params: BallMeasureParams, *, threads: int = 1
) -> BallEnergyResult:
    """Energy of the ball measure on a cloud, by numerical integration.

    Same-ball terms use the radially symmetric reduction over the
    doubled-radius difference ball (the construction behind the closed-form
    constant). The distinct-ball terms are deterministic in every
    dimension (:func:`_cross_sum`: a far-field series plus the difference
    rule on near pairs), bit-identical at any ``threads``. Overlapping
    balls raise HypothesisViolated.
    """
    d = cloud.dim
    s = params.s
    n = cloud.n
    if params.n != n:
        raise ValueError("params.n must equal the cloud size")
    if s >= d:
        return BallEnergyResult(math.inf, math.inf, 0.0)
    same = _self_interaction_constant(d, s, params.c)
    cross = _cross_sum(cloud.points, params.radius, s, threads=threads) / (n * n) if n > 1 else 0.0
    return BallEnergyResult(same + cross, same, cross)


def ball_energy_predicted(
    cloud: PointCloud, params: BallMeasureParams, *, threads: int = 1
) -> BallPrediction:
    """Closed-form ball-measure energy: ((n-1)/n) J_s plus the ball constant.

    Requires 0 < s < d, n > 2^{s+1}, and separation: the smallest pairwise
    gap must exceed 2 c n^{-1/s} strictly, which yields the largest
    admissible epsilon with gap > 2 c n^{-1/s + eps}.
    """
    d = cloud.dim
    s = params.s
    n = cloud.n
    if params.n != n:
        raise ValueError("params.n must equal the cloud size")
    if not 0 < s < d:
        raise ValueError("prediction needs 0 < s < d (constant has a pole at s = d)")
    if n <= 2.0 ** (s + 1.0):
        raise HypothesisViolated(f"need n > 2^(s+1) = {2.0 ** (s + 1.0):.3f}, got {n}")
    gap = cloud.min_gap()
    required = 2.0 * params.c * n ** (-1.0 / s)
    if gap <= required:
        raise HypothesisViolated(
            f"min pairwise gap {gap:.6g} must exceed 2 c n^(-1/s) = {required:.6g}"
        )
    epsilon = math.log(gap / required) / math.log(n)
    j = discrete_energy(cloud, s, threads=threads)
    constant = _self_interaction_constant(d, s, params.c)
    return BallPrediction(
        value=(n - 1) / n * j + constant,
        point_energy=j,
        constant=constant,
        epsilon=epsilon,
        min_gap=gap,
        required_gap=required,
    )
