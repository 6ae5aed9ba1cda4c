"""Reference measures: samplers, oracle energies, and ball-measure energies.

Every variant is a probability measure with a seeded, counter-split sampler.
Oracles exist for the unit interval, the unit square, and the unit circle;
the interval is closed form, the square reduces to a smooth 1-D polar
integral after the u = x - y substitution (16-node Gauss-Legendre), and the
circle has a Gamma closed form. Ball measures place radius c*n^{-1/s} balls
on a cloud; their energy decomposes into a self-interaction term (the
closed-form radial reduction over the doubled-radius domain, which is the
prediction constant) plus cross terms, deterministic in every dimension:
pairs of balls at least ``_FAR`` radii apart take Pizzetti's series for
ball means, summed for all its exponents in one pass on the fold of
``energy._fold_sums``, and the nearer pairs take one rule over the
difference of two uniform points (``_difference_rule``), which depends on
the centre distance alone. Everything here is numpy and ``math``; no
adaptive quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, _pair_distances
from .energy import _RUN, _check_exponents, _deal, _fold_sums, _fsum, discrete_energy
from .errors import (
    DuplicatePoints,
    HypothesisViolated,
    UnsupportedDimension,
    UnsupportedVariant,
)
from .rng import stream

if TYPE_CHECKING:
    from .generators import CantorFactor

__all__ = [
    "UniformCube",
    "UniformCircle",
    "CantorProduct",
    "RotatingSemicircle",
    "Empirical",
    "MeasureSpec",
    "DrawInfo",
    "sample",
    "sample_detail",
    "reference_energy",
    "sobolev_dimension",
    "BallMeasureParams",
    "BallEnergyResult",
    "BallPrediction",
    "ball_energy_numeric",
    "ball_energy_predicted",
    "ball_self_energy_exact",
    "unit_ball_volume",
    "unit_ball_surface",
    "measure_to_json",
    "measure_from_json",
]

_FAR = 2.0 ** (1.0 + 53.0 / (2 * _RUN))  # (2 / _FAR)^(2 _RUN) = 2^-53: one ladder run of terms


@dataclass(frozen=True)
class UniformCube:
    """Uniform probability measure on [0, 1]^dim."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class UniformCircle:
    """Uniform probability measure on the unit circle in R^2."""


@dataclass(frozen=True)
class CantorProduct:
    """Product of infinite-level Cantor measures, one factor per coordinate.

    Sampling draws uniformly random kept digits per factor, truncated at
    ``depth`` base-n digits (auto depth keeps the integer numerator exact
    in double precision).
    """

    factors: tuple
    depth: Optional[int] = None

    def __post_init__(self):
        from .generators import _factor_tuple  # loaded only for Cantor measures

        object.__setattr__(self, "factors", _factor_tuple(self.factors))
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be >= 1")

    def factor_depth(self, factor: CantorFactor) -> int:
        if self.depth is not None:
            return self.depth
        return min(30, int(52 / math.log2(factor.n)))


@dataclass(frozen=True)
class RotatingSemicircle:
    """Half uniform circle mass plus half a semicircle centered at ``phase``.

    Samples are the phase-0 draw rotated rigidly by ``phase``, so matched
    seeds give congruent clouds for every phase.
    """

    phase: float = 0.0


@dataclass(frozen=True)
class Empirical:
    """Resampling (with replacement) of a fixed finite cloud.

    Repeated draws are perturbed by 1e-12 of the bounding-box diagonal so
    the result is a valid distinct-point cloud; the perturbation count is
    reported in the draw info.
    """

    cloud: PointCloud


MeasureSpec = Union[UniformCube, UniformCircle, CantorProduct, RotatingSemicircle, Empirical]


@dataclass(frozen=True)
class DrawInfo:
    """Bookkeeping for one sampling call."""

    perturbed: int = 0


def sample_detail(measure: MeasureSpec, count: int, seed: int, rep: int = 0):
    """Draw ``count`` IID points; returns (cloud, DrawInfo).

    Deterministic given (measure, count, seed, rep); replicates use
    disjoint counter-jumped streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    g = stream(seed, rep)
    if isinstance(measure, UniformCube):
        return PointCloud(g.random((count, measure.dim))), DrawInfo()
    if isinstance(measure, UniformCircle):
        theta = 2.0 * math.pi * g.random(count)
        return PointCloud(np.column_stack([np.cos(theta), np.sin(theta)])), DrawInfo()
    if isinstance(measure, CantorProduct):
        cols = []
        for f in measure.factors:
            depth = measure.factor_depth(f)
            digits = np.asarray(f.kept, dtype=np.int64)[g.integers(0, f.m, (count, depth))]
            powers = f.n ** np.arange(depth - 1, -1, -1, dtype=np.int64)
            cols.append(digits @ powers / float(f.n) ** depth)
        return PointCloud(np.column_stack(cols)), DrawInfo()
    if isinstance(measure, RotatingSemicircle):
        on_circle = g.random(count) < 0.5
        a = g.random(count)
        base = np.where(on_circle, 2.0 * math.pi * a, math.pi * a - math.pi / 2.0)
        theta = measure.phase + base
        return PointCloud(np.column_stack([np.cos(theta), np.sin(theta)])), DrawInfo()
    if isinstance(measure, Empirical):
        base = measure.cloud.points
        idx = g.integers(0, base.shape[0], count)
        pts = base[idx].copy()
        span = base.max(axis=0) - base.min(axis=0)
        scale = 1e-12 * float(np.linalg.norm(span))
        if scale == 0.0:
            scale = 1e-12
        perturbed = 0
        for _ in range(64):
            _, first = np.unique(pts, axis=0, return_index=True)
            dup_mask = np.ones(count, dtype=bool)
            dup_mask[first] = False
            k = int(dup_mask.sum())
            if k == 0:
                break
            pts[dup_mask] += scale * (2.0 * g.random((k, pts.shape[1])) - 1.0)
            perturbed += k
        else:
            raise DuplicatePoints("failed to separate resampled duplicates")
        return PointCloud(pts), DrawInfo(perturbed=perturbed)
    raise UnsupportedVariant(f"no sampler for {type(measure).__name__}")


def sample(measure: MeasureSpec, count: int, seed: int, rep: int = 0) -> PointCloud:
    """Draw ``count`` IID points from the measure (see ``sample_detail``)."""
    return sample_detail(measure, count, seed, rep)[0]


def sobolev_dimension(measure: MeasureSpec) -> float:
    """Supremum of s with finite energy, for variants with an oracle."""
    if isinstance(measure, UniformCube):
        if measure.dim in (1, 2):
            return float(measure.dim)
        raise UnsupportedVariant("oracle covers dim 1 and 2 only")
    if isinstance(measure, UniformCircle):
        return 1.0
    raise UnsupportedVariant(f"no oracle for {type(measure).__name__}")


def reference_energy_method(measure: MeasureSpec) -> str:
    """How the oracle is evaluated: closed-form or quadrature."""
    if isinstance(measure, UniformCube) and measure.dim == 1:
        return "closed-form"
    if isinstance(measure, UniformCube) and measure.dim == 2:
        return "quadrature"
    if isinstance(measure, UniformCircle):
        return "closed-form"
    raise UnsupportedVariant(f"no energy oracle for {type(measure).__name__}")


def _square_energy(s: float) -> float:
    """Energy of the unit square via the difference-variable reduction.

    After u = x - y the energy is the integral of |u|^{-s} against the
    product triangle density; in polar coordinates the radial integral is a
    polynomial moment with an exact antiderivative, leaving one angular
    integral on [0, pi/4]. Its integrand is analytic there, so 16-node
    Gauss-Legendre is exact to rounding for every 0 < s < 2.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    half = math.pi / 8.0
    theta = half * (x + 1.0)
    c = np.cos(theta)
    v = np.sin(theta)
    r = 1.0 / c
    angular = (
        r ** (2.0 - s) / (2.0 - s)
        - (c + v) * r ** (3.0 - s) / (3.0 - s)
        + c * v * r ** (4.0 - s) / (4.0 - s)
    )
    return 8.0 * half * float(np.dot(w, angular))


def reference_energy(measure: MeasureSpec, s: float) -> float:
    """Oracle energy I_s for the supported variants.

    Returns math.inf once s reaches the variant's Sobolev dimension. I_0 is
    exactly 1 for every probability measure.
    """
    _check_exponents([s])
    if s == 0.0:
        return 1.0
    if isinstance(measure, UniformCube) and measure.dim == 1:
        if s >= 1.0:
            return math.inf
        return 2.0 / ((1.0 - s) * (2.0 - s))
    if isinstance(measure, UniformCube) and measure.dim == 2:
        if s >= 2.0:
            return math.inf
        return _square_energy(s)
    if isinstance(measure, UniformCircle):
        if s >= 1.0:
            return math.inf
        return (
            2.0 ** (-s)
            * math.gamma((1.0 - s) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(1.0 - s / 2.0))
        )
    raise UnsupportedVariant(f"no energy oracle for {type(measure).__name__}")


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
    """
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


def measure_to_json(measure: MeasureSpec) -> dict:
    """Serializable dict form of a measure (variant tag plus parameters)."""
    if isinstance(measure, UniformCube):
        return {"variant": "uniform-cube", "dim": measure.dim}
    if isinstance(measure, UniformCircle):
        return {"variant": "uniform-circle"}
    if isinstance(measure, CantorProduct):
        return {
            "variant": "cantor-product",
            "factors": [
                {"m": f.m, "n": f.n, "kept": list(f.kept)} for f in measure.factors
            ],
            "depth": measure.depth,
        }
    if isinstance(measure, RotatingSemicircle):
        return {"variant": "rotating-semicircle", "phase": measure.phase}
    if isinstance(measure, Empirical):
        return {"variant": "empirical", "points": measure.cloud.points.tolist()}
    raise UnsupportedVariant(f"cannot serialize {type(measure).__name__}")


def measure_from_json(doc: dict) -> MeasureSpec:
    """Inverse of :func:`measure_to_json`."""
    tag = doc.get("variant")
    if tag == "uniform-cube":
        return UniformCube(dim=int(doc.get("dim", 1)))
    if tag == "uniform-circle":
        return UniformCircle()
    if tag == "cantor-product":
        from .generators import _factor_from_json

        factors = tuple(_factor_from_json(f) for f in doc["factors"])
        depth = doc.get("depth")
        return CantorProduct(factors, None if depth is None else int(depth))
    if tag == "rotating-semicircle":
        return RotatingSemicircle(phase=float(doc.get("phase", 0.0)))
    if tag == "empirical":
        return Empirical(PointCloud(np.array(doc["points"], dtype=float)))
    raise UnsupportedVariant(f"unknown measure variant {tag!r}")
