"""Reference measures: samplers and oracle energies.

Every variant is a probability measure with a seeded, counter-split sampler.
Oracles exist for the unit interval, the unit square, and the unit circle;
the interval is closed form, the square reduces to a smooth 1-D polar
integral after the u = x - y substitution (16-node Gauss-Legendre), and the
circle has a Gamma closed form. The ball measures of criterion 4 live in
``balls``, which of the commands only ``ballcheck`` imports; their public
names are still served from here on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .cloud import PointCloud
from .errors import DuplicatePoints, UnsupportedVariant, _check_exponents
from .rng import _kept

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
    "measure_to_json",
    "measure_from_json",
]
# public names that moved to ``balls``, still importable from here
_BALL_NAMES = (
    "BallEnergyResult",
    "BallMeasureParams",
    "BallPrediction",
    "ball_energy_numeric",
    "ball_energy_predicted",
    "ball_self_energy_exact",
    "unit_ball_surface",
    "unit_ball_volume",
)


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
    disjoint counter-jumped streams. The draw comes from this thread's kept
    generator (``rng._kept``), reset to the state ``rng.stream(seed, rep)``
    starts in, so it equals a draw from that stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    g = _kept(seed, rep)
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


def __getattr__(name):
    """A name of ``_BALL_NAMES``, served from ``balls`` (PEP 562), which it imports on first use."""
    if name not in _BALL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import balls

    return getattr(balls, name)
