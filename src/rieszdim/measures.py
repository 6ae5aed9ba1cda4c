"""Reference measures: samplers, oracle energies, and ball-measure energies.

Every variant is a probability measure with a seeded, counter-split sampler.
Oracles exist for the unit interval, the unit square, and the unit circle;
the interval is closed form, the square reduces to a smooth 1-D polar
integral after the u = x - y substitution (16-node Gauss-Legendre), and the
circle has a Gamma closed form. Ball measures place radius c*n^{-1/s} balls
on a cloud; their energy decomposes into a self-interaction term (the
closed-form radial reduction over the doubled-radius domain, which is the
prediction constant) plus cross terms. In d = 1 and 2 the cross terms are
deterministic at every size: pairs of balls at least ``_FAR`` radii apart
take Pizzetti's series for ball means, summed for all its exponents in one
pass on the fold of ``energy._fold_sums``, and the nearer pairs take one
product rule per ball (``_ball_rule``). In d >= 3 a seeded Monte Carlo
estimate runs instead. Everything here is numpy and ``math``; no adaptive
quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import cloud as _cloud
from .cloud import PointCloud, _distances, _fold_blocks, _pair_distances, _tile
from .energy import _RUN, _check_exponents, _fold_sums, _fsum, discrete_energy
from .errors import (
    DuplicatePoints,
    HypothesisViolated,
    UnsupportedDimension,
    UnsupportedVariant,
)
from .generators import CantorFactor, _factor_from_json, _factor_tuple
from .rng import stream

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

_MC_SAMPLES = 200_000  # ball pairs drawn by Monte Carlo (d >= 3)
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
    method: str
    standard_error: Optional[float] = None


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
    """
    return unit_ball_surface(d) * 2.0 ** (d - s) / (unit_ball_volume(d) * c**s * (d - s))


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


def _ball_rule(d: int, radius: float):
    """Product-rule nodes (m, d) and weights (m,) of a uniform unit-mass ball.

    d = 1: 24-node Gauss-Legendre on [-radius, radius]. d = 2: 8 radial
    Gauss-Legendre nodes in r^2 times 16 equal angles. d >= 3 has no rule
    (Monte Carlo runs there).
    """
    if d == 1:
        x, w = np.polynomial.legendre.leggauss(24)
        return radius * x[:, None], w / 2.0
    if d == 2:
        u, wu = np.polynomial.legendre.leggauss(8)
        r = radius * np.sqrt(0.5 * (u + 1.0))
        t = 2.0 * math.pi * np.arange(16) / 16
        nodes = np.stack([np.outer(r, np.cos(t)), np.outer(r, np.sin(t))], axis=-1)
        return nodes.reshape(-1, 2), np.repeat(wu / 32.0, 16)
    raise UnsupportedDimension("the ball product rule covers d in {1, 2}")


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
    """Sum over ordered pairs of distinct radius-rho balls of E|x-y|^{-s}, d = 1 or 2.

    The centres are scaled exactly by a power of two 2^-e that puts the
    radius in [1/2, 1), so no r^{-s-2j} of a far pair overflows; e is
    bounded so that the scaled centres stay below 2^1000 when rho is tiny
    or 0. The sum is scaled back by 2^{-es} once, in two steps, so that
    only a result past the double range is inf. Far pairs, with centre
    distance r >= ``_FAR`` rho, take the series of :func:`_pizzetti`: one
    pass of ``energy._fold_sums`` over the exponents s, s + 2, ..., which
    form one ladder run. Near pairs, found on the same fold strips, take
    the product rule of :func:`_ball_rule`: in chunks of about
    ``cloud._TILE`` values, each pair's centre difference against the node
    offsets n_b - n_a, its kernel values dotted with the weights w_a w_b.
    Coinciding nodes of overlapping balls give inf.
    """
    n, d = points.shape
    e = max(math.frexp(rho)[1], math.frexp(float(np.abs(points).max()))[1] - 1000)
    q = np.ldexp(points, -e)
    rho_q = math.ldexp(rho, -e)
    far = _FAR * rho_q
    # a term whose coefficient underflows (rho = 0 keeps only j = 0) is left out
    terms = [(s + 2 * j, c) for j, c in enumerate(_pizzetti(d, s, rho_q)) if c]
    F = _fold_sums(q, [t for t, _ in terms], threads=threads, weight=lambda r: (r >= far) * 1.0)
    sums = [np.array([c * _fsum(row) for (_, c), row in zip(terms, F)])]
    near = []
    for (d0, _, _), r in zip(_fold_blocks(n), _pair_distances(q)):
        k = np.flatnonzero(r < far)
        j = k % n
        near.append(q[j] - q[(j + d0 + k // n) % n])
    diffs = np.concatenate(near)
    nodes, w = _ball_rule(d, rho_q)
    offsets = (nodes[None, :, :] - nodes[:, None, :]).reshape(-1, d)
    ww = np.outer(w, w).ravel()
    rows = max(1, _cloud._TILE // len(ww))
    with np.errstate(over="ignore"):
        for i in range(0, len(diffs), rows):
            a = diffs[i : i + rows]
            try:
                L = _distances(_tile(a, offsets), a, offsets, log=True)
            except DuplicatePoints:
                return math.inf
            L *= -0.5 * s
            sums.append(np.exp(L, out=L) @ ww)
        k = math.floor(-e * s)
        return float(np.ldexp(2.0 * _fsum(np.concatenate(sums)) * 2.0 ** (-e * s - k), k))


def ball_energy_numeric(
    cloud: PointCloud, params: BallMeasureParams, *, seed: int = 0, threads: int = 1
) -> BallEnergyResult:
    """Energy of the ball measure on a cloud, by numerical integration.

    Same-ball terms use the radially symmetric reduction over the
    doubled-radius difference ball (the construction behind the closed-form
    constant). In d = 1 and 2 the distinct-ball terms are deterministic
    (:func:`_cross_sum`: a far-field series plus the product rule of
    :func:`_ball_rule` on near pairs), bit-identical at any ``threads``. In
    d >= 3 they are a seeded Monte Carlo estimate (``seed``) with a
    reported standard error.
    """
    d = cloud.dim
    s = params.s
    if params.n != cloud.n:
        raise ValueError("params.n must equal the cloud size")
    if s >= d:
        return BallEnergyResult(math.inf, math.inf, 0.0, "analytic")
    rho = params.radius
    same = _self_interaction_constant(d, s, params.c)
    n = cloud.n
    if n == 1:
        return BallEnergyResult(same, same, 0.0, "quadrature")
    if d >= 3:
        g = stream(seed)
        i = g.integers(0, n, _MC_SAMPLES)
        shift = g.integers(1, n, _MC_SAMPLES)
        j = (i + shift) % n  # distinct ball indices, uniform over ordered pairs
        x = cloud.points[i] + _uniform_in_ball(g, d, rho, _MC_SAMPLES)
        y = cloud.points[j] + _uniform_in_ball(g, d, rho, _MC_SAMPLES)
        vals = np.sum((x - y) ** 2, axis=1) ** (-s / 2.0)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(_MC_SAMPLES))
        cross = (n - 1) / n * mean
        return BallEnergyResult(same + cross, same, cross, "monte-carlo", (n - 1) / n * se)
    cross = _cross_sum(cloud.points, rho, s, threads=threads) / (n * n)
    return BallEnergyResult(same + cross, same, cross, "quadrature")


def _uniform_in_ball(g: np.random.Generator, d: int, radius: float, count: int) -> np.ndarray:
    if d == 1:
        return radius * (2.0 * g.random((count, 1)) - 1.0)
    v = g.normal(size=(count, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * g.random(count) ** (1.0 / d)
    return v * r[:, None]


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
        factors = tuple(_factor_from_json(f) for f in doc["factors"])
        depth = doc.get("depth")
        return CantorProduct(factors, None if depth is None else int(depth))
    if tag == "rotating-semicircle":
        return RotatingSemicircle(phase=float(doc.get("phase", 0.0)))
    if tag == "empirical":
        return Empirical(PointCloud(np.array(doc["points"], dtype=float)))
    raise UnsupportedVariant(f"unknown measure variant {tag!r}")
