"""Distance sets, dot-product sets, and distinct-distance growth reports.

The distance set of a cloud collects its distinct pairwise Euclidean
distances (zero excluded); the dot-product set collects x . y over all
ordered pairs including x with itself. Deduplication is exact on integer
coordinates of bounded span (squared distances compared as integers) and
grid-quantized otherwise, because floating comparison of algebraically equal
distances is unreliable. Growth reports compare the distinct-distance count
against n^{1/s0} for conjectured and best-known thresholds s0; the
comparisons are observational, never asserted, since the underlying claims
are asymptotic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud, _pair_distances, _pair_tiles
from .errors import TooFewPoints

__all__ = [
    "ValueSet",
    "ErdosReport",
    "distance_set",
    "dot_product_set",
    "erdos_report",
    "default_erdos_exponents",
]

@dataclass(frozen=True)
class ValueSet:
    """Sorted distinct values with the dedup resolution that produced them."""

    kind: str
    values: np.ndarray
    quantization: Union[float, str]
    count: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(np.diff(v) <= 0):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", v)
        if self.count != v.size:
            raise ValueError("count must equal the number of values")

    def to_json(self, *, max_values: int = 100_000) -> dict:
        doc = {
            "kind": self.kind,
            "count": self.count,
            "quantization": self.quantization,
        }
        if self.count <= max_values:
            doc["values"] = self.values.tolist()
        return doc


# Exact mode needs every squared distance to be an integer at most 2^51:
# such integers convert to float exactly and have distinct square roots.
_EXACT_D2_MAX = 2**51


def _exact_mode_fits(pts: np.ndarray) -> bool:
    """Integer coordinates whose squared distances stay within _EXACT_D2_MAX.

    The bound sums the squared coordinate spans, so it tightens with the
    dimension. Under it every difference, square and sum of coordinates is
    an integer computed exactly in float arithmetic.
    """
    if not np.all(pts == np.rint(pts)):
        return False
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.sum(span * span)) <= _EXACT_D2_MAX


def _min_per_key(values: np.ndarray, step: float) -> np.ndarray:
    """Per grid key ``rint(v / step)``, the smallest value, in key order.

    Keys are monotone in the values, so after sorting the values the first
    value of each run of equal keys is that key's minimum.
    """
    v = np.sort(values)
    keys = np.rint(v / step).astype(np.int64)
    return v[np.r_[True, keys[1:] != keys[:-1]]]


def _dedup_tiles(tiles, step: float) -> np.ndarray:
    """``_min_per_key`` over all tiles: per tile, then once over the merge."""
    return _min_per_key(np.concatenate([_min_per_key(t, step) for t in tiles]), step)


def distance_set(cloud: PointCloud, quantization="auto") -> ValueSet:
    """Distinct pairwise distances of a cloud (unordered pairs, zero excluded).

    ``quantization`` is "auto" (exact integer mode when every coordinate is
    an integer and every squared distance is at most 2^51, else a relative
    1e-9 grid), "exact" to force integer mode, or an absolute grid step.
    Quantized values are the smallest distance per grid key, so equal inputs
    never split, values further apart than twice the step never merge, and
    the result does not depend on the tiling.
    """
    if cloud.n < 2:
        raise TooFewPoints("distance set needs at least 2 points")
    pts = cloud.points
    if quantization in ("auto", "exact") and _exact_mode_fits(pts):
        values = np.sqrt(_dedup_tiles(_pair_tiles(pts), 1.0))
        return ValueSet("distance", values, "exact", values.size)
    if quantization == "exact":
        raise ValueError(
            "exact mode requires integer coordinates whose squared "
            "distances are at most 2^51"
        )
    if quantization == "auto":
        step = 1e-9 * cloud.diameter()
    else:
        step = float(quantization)
    if step <= 0:
        raise ValueError("quantization step must be positive")
    values = _dedup_tiles(_pair_distances(pts), step)
    return ValueSet("distance", values, step, values.size)


def dot_product_set(cloud: PointCloud, quantization: Optional[float] = None) -> ValueSet:
    """Distinct dot products over all ordered pairs, including x with itself.

    Default quantization is a relative 1e-9 grid on the largest squared
    norm. Since x . y == y . x, the pairs i <= j give the whole set.
    """
    pts = cloud.points
    if quantization is None:
        scale = float(np.max(np.sum(pts * pts, axis=1)))
        step = 1e-9 * (scale if scale > 0 else 1.0)
    else:
        step = float(quantization)
    if step <= 0:
        raise ValueError("quantization step must be positive")
    values = _dedup_tiles(_pair_tiles(pts, dot=True), step)
    return ValueSet("dot-product", values, step, values.size)


def default_erdos_exponents(d: int) -> list:
    """Distance-threshold exponents: conjectured d/2, plus best known bounds."""
    out = [d / 2.0]
    if d == 2:
        out.append(5.0 / 4.0)
    if d >= 3:
        out.append(d / 2.0 + 0.25 - 1.0 / (8.0 * d + 4.0))
    return out


@dataclass(frozen=True)
class ErdosReport:
    """Observed distinct-distance counts against n^{1/s0} per threshold."""

    n: int
    dim: int
    count: int
    quantization: Union[float, str]
    rows: tuple

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "count": self.count,
            "quantization": self.quantization,
            "rows": [dict(r) for r in self.rows],
        }


def erdos_report(cloud: PointCloud, exponents=None, *, quantization="auto") -> ErdosReport:
    """Ratio of the distinct-distance count to n^{1/s0} for each threshold s0.

    Observational: asymptotic growth claims admit no finite pass/fail.
    """
    values = distance_set(cloud, quantization)
    if exponents is None:
        exponents = default_erdos_exponents(cloud.dim)
    n = cloud.n
    rows = []
    for s0 in exponents:
        s0 = float(s0)
        expo = 1.0 / s0
        rows.append(
            {
                "s0": s0,
                "exponent": expo,
                "bound": n**expo,
                "ratio": values.count / n**expo,
            }
        )
    return ErdosReport(
        n=n,
        dim=cloud.dim,
        count=values.count,
        quantization=values.quantization,
        rows=tuple(rows),
    )
