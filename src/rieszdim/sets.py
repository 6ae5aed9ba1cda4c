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

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import cloud as _cloud
from .cloud import _SUBNORMAL_MIN, PointCloud, _half_spans, _pair_distances, _pair_tiles
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
        if not (v[1:] > v[:-1]).all():  # a bool temporary only; NaN fails
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
    half = _half_spans(pts)
    # a span past the bound fails it; tested first, the others square without overflow
    return (
        bool(np.all(half <= _EXACT_D2_MAX / 2))
        and 4.0 * float(np.sum(half * half)) <= _EXACT_D2_MAX
    )


# Grid keys rint(v / step) of 2^53 or more are beyond float resolution: past
# it consecutive floats v / step are more than one key apart.
_KEY_MAX = 2.0**53


def _check_step(step: float, bound: float) -> None:
    """Refuse a step that is not finite and positive, or whose keys reach 2^53 below ``bound``."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"quantization step must be finite and positive, got {step!r}")
    if not bound / step < _KEY_MAX:
        raise ValueError(
            f"quantization step {step!r} is finer than values up to {bound:.6g} "
            "resolve: grid keys would reach 2^53"
        )


def _keep_first_per_key(v: np.ndarray, step: float, last=None) -> np.ndarray:
    """The values of sorted ``v`` that start a run of equal keys ``rint(v / step)``.

    A first key equal to ``last``, the key before ``v``, continues that run.
    ``rint`` values are integers, so comparing them as floats compares the
    keys without an integer cast.
    """
    keys = v / step
    np.rint(keys, out=keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = last is None or keys[0] != last
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return v[first]


def _compact(buf: np.ndarray, p: int, step: float) -> int:
    """Compact ``buf[:p]`` in place to its smallest value per grid key; returns their count.

    Keys ``rint(v / step)`` are monotone in the values, so once the prefix
    is sorted in place the first value of each run of equal keys is that
    key's minimum. The prefix is walked in chunks of about ``cloud._TILE``
    values, so no temporary outgrows a chunk. A chunk's first key is
    compared with the previous chunk's last, so runs of equal keys may
    cross chunk edges. Kept values move down to the write position, which
    never passes the chunk being read.
    """
    buf[:p].sort()
    chunk = _cloud._TILE
    w = 0
    last = None
    for c0 in range(0, p, chunk):
        v = buf[c0 : min(c0 + chunk, p)]
        kept = _keep_first_per_key(v, step, last)
        last = np.rint(v[-1] / step)
        buf[w : w + kept.size] = kept
        w += kept.size
    return w


def _dedup_tiles(tiles, pairs: int, step: float) -> np.ndarray:
    """Smallest value per grid key over all tiles, merged in one buffer compacted in place.

    Each tile is appended raw to the merge buffer, which starts at four
    strips of ``cloud._TILE`` values, so :func:`_compact` is the only pass
    that sorts and keys values. When the next tile, of t values, does not
    fit, the buffer is compacted in place to p values. When that leaves it
    more than half full, it grows to 16 (p + t), never past ``pairs``, the
    number of values of all tiles. So on a cloud whose values barely repeat
    the first growth reaches ``pairs`` as soon as p is a sixteenth of it
    (on 1500 generic planar points the first compaction keeps 99K of 1.12M
    values), and the buffer is sorted twice, not once per growth. No key is
    ever kept twice, so p never exceeds the answer: the buffer holds at
    most max(4 ``cloud._TILE``, 16 (answer + t)) values, t the largest
    tile (at most 3/2 ``cloud._TILE`` values, or one fold row where a row
    is wider, see ``cloud._fold_blocks``), and never more than ``pairs``. The values do not depend on when
    compaction runs: a key's minimum is the same over any split. The
    buffer grows and shrinks by ``ndarray.resize``, a realloc, which remaps
    a large block instead of holding two copies of it.
    """
    buf = np.empty(min(4 * _cloud._TILE, pairs))
    p = 0
    for tile in tiles:
        if p + tile.size > buf.size:
            p = _compact(buf, p, step)
            if 2 * (p + tile.size) > buf.size:
                buf.resize(min(16 * (p + tile.size), pairs), refcheck=False)
        buf[p : p + tile.size] = tile
        p += tile.size
    p = _compact(buf, p, step)
    buf.resize(p, refcheck=False)
    return buf


def distance_set(cloud: PointCloud, quantization="auto") -> ValueSet:
    """Distinct pairwise distances of a cloud (unordered pairs, zero excluded).

    ``quantization`` is "auto" (exact integer mode when every coordinate is
    an integer and every squared distance is at most 2^51, else a relative
    1e-9 grid, at least the subnormal step 2^-1074, on which every distinct
    double keeps its own key), "exact" to force integer mode, or an
    absolute grid step.
    Quantized values are the smallest distance per grid key, so equal inputs
    never split, values further apart than twice the step never merge, and
    the result does not depend on the tiling. The auto step comes from
    :meth:`PointCloud.diameter`, which walks only the few points that can
    reach the diameter, so the distances are collected in the one walk over
    every pair, merged by :func:`_dedup_tiles`. A step that is not finite
    and positive, or so fine that the grid keys of distances up to the
    bounding-box diagonal reach 2^53, raises ValueError before any pair is
    computed.
    """
    if cloud.n < 2:
        raise TooFewPoints("distance set needs at least 2 points")
    pts = cloud.points
    pairs = cloud.n * (cloud.n - 1) // 2
    if quantization in ("auto", "exact") and _exact_mode_fits(pts):
        values = _dedup_tiles(_pair_tiles(pts), pairs, 1.0)
        np.sqrt(values, out=values)
        return ValueSet("distance", values, "exact", values.size)
    if quantization == "exact":
        raise ValueError(
            "exact mode requires integer coordinates whose squared "
            "distances are at most 2^51"
        )
    if quantization == "auto":
        step = max(1e-9 * cloud.diameter(), _SUBNORMAL_MIN)  # 1e-9 x a subnormal may be 0
    else:
        step = float(quantization)
    _check_step(step, 2.0 * math.hypot(*_half_spans(pts)))  # inf past the largest double
    values = _dedup_tiles(_pair_distances(pts), pairs, step)
    return ValueSet("distance", values, step, values.size)


def dot_product_set(cloud: PointCloud, quantization: Optional[float] = None) -> ValueSet:
    """Distinct dot products over all ordered pairs, including x with itself.

    Default quantization is a relative 1e-9 grid on the largest squared
    norm, at least the subnormal step 2^-1074. Since x . y == y . x, the
    pairs i <= j give the whole set. A step that is not finite and
    positive, or so fine that the grid keys of dot products up to the
    largest squared norm reach 2^53, raises ValueError before any pair is
    computed.
    """
    pts = cloud.points
    with np.errstate(over="ignore"):
        scale = float(np.max(np.sum(pts * pts, axis=1)))
    if quantization is None:
        step = max(1e-9 * (scale if scale > 0 else 1.0), _SUBNORMAL_MIN)
    else:
        step = float(quantization)
    _check_step(step, scale)
    pairs = cloud.n * (cloud.n + 1) // 2
    values = _dedup_tiles(_pair_tiles(pts, dot=True), pairs, step)
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


def erdos_report(cloud: PointCloud, exponents=None) -> ErdosReport:
    """Ratio of the distinct-distance count to n^{1/s0} for each threshold s0.

    The count is ``distance_set``'s in its "auto" mode. Observational:
    asymptotic growth claims admit no finite pass/fail.
    """
    if exponents is None:
        exponents = default_erdos_exponents(cloud.dim)
    exponents = [float(s0) for s0 in exponents]
    if not all(0 < s0 < math.inf for s0 in exponents):
        raise ValueError("thresholds s0 must be finite and positive")
    values = distance_set(cloud)
    n = cloud.n
    rows = []
    for s0 in exponents:
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
