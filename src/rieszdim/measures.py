"""Reference measures: samplers, oracle energies, and ball-measure energies.

Every variant is a probability measure with a seeded, counter-split sampler.
Oracles exist for the unit interval, the unit square, and the unit circle;
the interval is closed form, the square reduces to a smooth 1-D polar
integral after the u = x - y substitution (16-node Gauss-Legendre), and the
circle has a Gamma closed form. Ball measures place radius c*n^{-1/s} balls
on a cloud; their energy decomposes into a self-interaction term (the
closed-form radial reduction over the doubled-radius domain, which is the
prediction constant) plus cross terms integrated by product quadrature.
Everything here is numpy and ``math``; no adaptive quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud
from .energy import discrete_energy
from .errors import (
    DuplicatePoints,
    HypothesisViolated,
    UnsupportedDimension,
    UnsupportedVariant,
)
from .generators import CantorFactor
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
        factors = tuple(
            f if isinstance(f, CantorFactor) else CantorFactor(*f)
            for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("at least one factor required")
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
    x, w = _gauss_nodes(16)
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
    if s < 0:
        raise ValueError("exponent s must be nonnegative")
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
        if self.s <= 0 or self.c <= 0 or self.n < 1:
            raise ValueError("need s > 0, c > 0, n >= 1")

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


def _gauss_nodes(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


def _cross_quadrature_1d(points: np.ndarray, radius: float, s: float, nodes: int = 24) -> float:
    """Sum over ordered distinct pairs of E|x-y|^{-s}, x, y uniform per interval.

    Gauss-Legendre product rule per pair; accuracy degrades only as balls
    approach contact, which the separation hypothesis keeps away. Pairs are
    processed in chunks to bound memory.
    """
    x, w = _gauss_nodes(nodes)
    off = radius * x
    ww = np.outer(w, w) / 4.0
    centers = points[:, 0]
    n = centers.size
    diff = centers[:, None] - centers[None, :]
    iu = np.triu_indices(n, k=1)
    seps = diff[iu]
    delta = (off[:, None] - off[None, :])[None, :, :]
    total = 0.0
    chunk = 4096
    for i0 in range(0, seps.size, chunk):
        block = seps[i0 : i0 + chunk]
        vals = np.abs(block[:, None, None] + delta) ** (-s)
        per_pair = np.tensordot(vals, ww, axes=([1, 2], [0, 1]))
        total += float(per_pair.sum())
    return 2.0 * total


def _disc_nodes(radius: float, n_r: int = 8, n_t: int = 16):
    """Quadrature nodes and weights for the uniform unit-mass disc."""
    u, wu = _gauss_nodes(n_r)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    r = radius * np.sqrt(u)
    t = 2.0 * math.pi * np.arange(n_t) / n_t
    wt = np.full(n_t, 1.0 / n_t)
    xs = np.outer(r, np.cos(t)).ravel()
    ys = np.outer(r, np.sin(t)).ravel()
    w = np.outer(wu, wt).ravel()
    return np.column_stack([xs, ys]), w


def _cross_quadrature_2d(points: np.ndarray, radius: float, s: float) -> float:
    nodes, w = _disc_nodes(radius)
    n = points.shape[0]
    total = 0.0
    pair_w = np.outer(w, w).ravel()
    for i in range(n):
        for j in range(i + 1, n):
            a = points[i] + nodes
            b = points[j] + nodes
            d = a[:, None, :] - b[None, :, :]
            r = np.sqrt(np.sum(d * d, axis=2)).ravel()
            total += 2.0 * float(np.dot(r ** (-s), pair_w))
    return total


def ball_energy_numeric(
    cloud: PointCloud,
    params: BallMeasureParams,
    *,
    method: str = "auto",
    budget: int = 200_000_000,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> BallEnergyResult:
    """Energy of the ball measure on a cloud, by numerical integration.

    Same-ball terms use the radially symmetric reduction over the
    doubled-radius difference ball (the construction behind the closed-form
    constant); distinct-ball terms use product quadrature per pair, or a
    seeded Monte Carlo fallback with a reported standard error when the
    quadrature budget is exceeded or the dimension is 3 or higher.
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
    pairs = n * (n - 1) // 2
    cost = pairs * (24**2 if d == 1 else (8 * 16) ** 2)
    use_mc = method == "monte-carlo" or d >= 3 or (method == "auto" and cost > budget)
    if n == 1:
        return BallEnergyResult(same, same, 0.0, "quadrature")
    if use_mc:
        g = stream(seed)
        i = g.integers(0, n, mc_samples)
        shift = g.integers(1, n, mc_samples)
        j = (i + shift) % n  # distinct ball indices, uniform over ordered pairs
        x = cloud.points[i] + _uniform_in_ball(g, d, rho, mc_samples)
        y = cloud.points[j] + _uniform_in_ball(g, d, rho, mc_samples)
        vals = np.sum((x - y) ** 2, axis=1) ** (-s / 2.0)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(mc_samples))
        cross = (n - 1) / n * mean
        return BallEnergyResult(same + cross, same, cross, "monte-carlo", (n - 1) / n * se)
    if d == 1:
        raw = _cross_quadrature_1d(cloud.points, rho, s)
    else:
        raw = _cross_quadrature_2d(cloud.points, rho, s)
    cross = raw / (n * n)
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


_MEASURE_TAGS = {
    "uniform-cube": UniformCube,
    "uniform-circle": UniformCircle,
    "cantor-product": CantorProduct,
    "rotating-semicircle": RotatingSemicircle,
    "empirical": Empirical,
}


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
        factors = tuple(
            CantorFactor(int(f["m"]), int(f["n"]), tuple(f.get("kept") or ()))
            for f in doc["factors"]
        )
        depth = doc.get("depth")
        return CantorProduct(factors, None if depth is None else int(depth))
    if tag == "rotating-semicircle":
        return RotatingSemicircle(phase=float(doc.get("phase", 0.0)))
    if tag == "empirical":
        return Empirical(PointCloud(np.array(doc["points"], dtype=float)))
    raise UnsupportedVariant(f"unknown measure variant {tag!r}")
