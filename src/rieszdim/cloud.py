"""Point clouds: ordered finite sets of distinct points with CSV persistence.

Order is significant. A cloud doubles as a generating sequence: ``prefix(k)``
returns the first k points, so nested prefixes P_2, P_3, ... of one cloud are
the sets whose energies the profile and estimator modules track.

Pair passes build their values in tiles (``_tile``) of about ``_TILE``
values, from coordinate-major operands, on one of two schedules. The fold
(``_fold``, ``_fold_blocks``) pairs point j with point (j + δ) mod n in row
δ, so rows 1 .. n/2 hold each unordered pair once in dense strips; every
pass that needs no prefix order walks it (``min_gap``, the pair iterators
behind the dedup paths, energy totals, and the ball cross terms).
``diameter`` walks it over a few candidate points and then over the points
that a bounding-box test cannot rule out, and returns the full walk's
maximum to the bit. The test prunes well in low dimension only: of 1500
uniform points (two seeds) it keeps 5-9 at d = 2 and 9-40 at d = 3, but
146-373 at d = 6, 863-1483 at d = 7 and 1418-1452 at d = 8. The prefix
row strips (``_row_blocks``) take rows [k0, k1) against the columns [0, k1)
and serve prefix profiles only.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import threading

import numpy as np

from .errors import DimensionMismatch, DuplicatePoints, TooFewPoints

__all__ = ["PointCloud", "read_csv", "write_csv"]

_TILE = 1 << 15  # values per row strip, so its buffers stay in cache
_NORMAL_MIN = np.finfo(float).tiny  # squares below it have lost bits to underflow
_SUBNORMAL_MIN = 2.0**-1074  # the subnormal step
# diameter(): diagonal candidates up to this dimension (2^(d-1) of them), and
# the relative margin of its corner test, far above the few-ulp rounding of
# a distance or a corner distance in any dimension below 2^30
_DIAGONAL_DIM_MAX = 6
_CORNER_MARGIN = 2.0**-20
_workspace = threading.local()


class PointCloud:
    """Immutable ordered set of n distinct points in R^d.

    Coordinates must be finite and points pairwise distinct under exact
    floating-point equality. The backing array is read-only, so clouds are
    safe to share across threads.
    """

    __slots__ = ("_points",)

    def __init__(self, points, *, _validate: bool = True):
        arr = np.array(points, dtype=float, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("points must be a non-empty n x d array")
        if _validate:
            if not np.all(np.isfinite(arr)):
                raise ValueError("coordinates must be finite (no NaN/inf)")
            rows = arr[np.lexsort(arr.T)]  # equal points (-0.0 == 0.0) end up adjacent
            if (rows[1:] == rows[:-1]).all(axis=1).any():
                raise DuplicatePoints(
                    f"cloud of {arr.shape[0]} points contains coinciding points"
                )
        arr.setflags(write=False)
        self._points = arr

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, d) coordinate array."""
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointCloud(n={self.n}, dim={self.dim})"

    def prefix(self, k: int) -> "PointCloud":
        """First k points, in order. Distinctness is inherited, not rechecked."""
        if not 1 <= k <= self.n:
            raise TooFewPoints(f"prefix size {k} outside [1, {self.n}]")
        return PointCloud(self._points[:k], _validate=False)

    def diameter(self) -> float:
        """Largest pairwise distance (0 for a single point).

        Bit-identical to the largest value of a full :func:`_pair_distances`
        walk, though it walks only the points that can be in the longest
        pair. Its lower bound ``lo`` is the exact pair maximum over a few
        candidates: the extreme points along each coordinate and, for d <=
        ``_DIAGONAL_DIM_MAX``, along each sign-pattern diagonal. A point is
        in no pair longer than its distance to the far corner of the
        bounding box, so it is dropped when that distance is below ``lo`` by
        more than the rounding margin ``_CORNER_MARGIN`` plus one subnormal
        step (a rebuilt distance may round up by half of one). The corner
        distances take the offsets from the low corner, from halved
        coordinates where a span may overflow, scaled by an exact power of
        two into [0, 1], so they neither overflow nor underflow. The maximum
        over the remaining points is returned; when none is dropped, that is
        the full walk. There is no size threshold. The corner test drops
        most points in low dimension only: of 1500 uniform points (two
        seeds) the second walk keeps 5-9 at d = 2 and 9-40 at d = 3, but
        146-373 at d = 6, 863-1483 at d = 7 (5708-7941 of 8000) and
        1418-1452 at d = 8.
        """
        pts = self._points
        if len(pts) < 2:
            return 0.0
        h = 0.5 if _half_spans(pts).max() > 2.0**1022 else 1.0  # spans past 2^1023 may overflow
        off = pts * h - pts.min(axis=0) * h
        k = math.frexp(float(off.max()))[1]  # every offset is below 2^k
        u = np.ldexp(off, -k)
        proj = np.einsum("nd,dm->nm", u, _directions(self.dim))  # no BLAS: its buffers cost RSS
        cand = np.zeros(len(pts), dtype=bool)
        cand[proj.argmin(axis=0)] = cand[proj.argmax(axis=0)] = True
        lo = max(float(r.max()) for r in _pair_distances(pts[cand]))
        if lo == math.inf:
            return lo
        corner2 = np.square(np.maximum(u, u.max(axis=0) - u)).sum(axis=1)
        cut = math.ldexp(lo * h, -k) * (1.0 - _CORNER_MARGIN) - math.ldexp(_SUBNORMAL_MIN, -k)
        far = corner2 >= max(cut, 0.0) ** 2
        return max(float(r.max()) for r in _pair_distances(pts if far.all() else pts[far]))

    def min_gap(self) -> float:
        """Smallest pairwise distance (positive: the points are distinct)."""
        if self.n < 2:
            raise TooFewPoints("min_gap needs at least 2 points")
        return min(float(r.min()) for r in _pair_distances(self._points))


def _half_spans(pts: np.ndarray) -> np.ndarray:
    """Half the coordinate spans, from the halved extremes: finite for any finite cloud."""
    return pts.max(axis=0) / 2.0 - pts.min(axis=0) / 2.0


def _directions(d: int) -> np.ndarray:
    """(d, m) unit axes, then for d <= _DIAGONAL_DIM_MAX the 2^(d-1) sign-pattern diagonals."""
    axes = np.eye(d)
    if d > _DIAGONAL_DIM_MAX:
        return axes
    signs = [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=d - 1)]
    return np.hstack((axes, np.array(signs).T))


def _strip_buffers(size: int):
    """This thread's three flat strip buffers, each holding at least ``size`` values.

    They are allocated once per thread (at least ``_TILE`` values) and grown
    only when a strip needs more, so a strip never page-faults fresh memory.
    """
    bufs = getattr(_workspace, "bufs", None)
    if bufs is None or bufs[0].size < size:
        size = max(size, _TILE)
        bufs = _workspace.bufs = (np.empty(size), np.empty(size), np.empty(size))
    return bufs


def _tile(a: np.ndarray, b: np.ndarray, *, dot: bool = False) -> np.ndarray:
    """Squared distances (or dot products) of the pairs of a tile, rows of a against b.

    Both operands are coordinate-major: ``b`` is (d, cols) and ``a`` is (d,
    rows, 1), each row taken against every column of b, or (d, rows, cols),
    entry [:, i, j] taken against b[:, j] (a fold strip). Built one
    coordinate at a time in coordinate order, as ``op(a[k], b[k])``, with no
    (d, rows, cols) temporary. A squared difference is never -0.0, so the
    first coordinate's squares are written straight into the tile; dot
    products start from +0.0, so a zero product is never -0.0. The tile is a
    view of buffer 0 of this thread's strip workspace and its per-coordinate
    temporary is buffer 1: the result is valid until the thread's next
    ``_tile`` call, and buffers 1 and 2 are free for the caller until then.
    """
    op = np.multiply if dot else np.subtract
    shape = (a.shape[1], b.shape[1])
    size = shape[0] * shape[1]
    buf, tmp, _ = _strip_buffers(size)
    tile = buf[:size].reshape(shape)
    if dot:
        tile.fill(0.0)
    for k in range(len(b)):
        t = tile if k == 0 and not dot else tmp[:size].reshape(shape)
        op(a[k], b[k], out=t)
        if not dot:
            t *= t
        if t is not tile:
            tile += t
    return tile


def _row_blocks(n: int) -> list:
    """Row strips [k0, k1) whose rows times k1 columns hold about _TILE values."""
    out = []
    k0 = 0
    while k0 < n:
        rows = (math.isqrt(k0 * k0 + 4 * _TILE) - k0) // 2
        k1 = min(n, k0 + max(1, rows))
        out.append((k0, k1))
        k0 = k1
    return out


def _fold(pts: np.ndarray) -> np.ndarray:
    """The fold of ``pts``: a zero-copy (d, n // 2 + 1, n) view, entry [:, δ, j] = pts[(j + δ) % n].

    Row δ is the window [δ, δ + n) of the coordinate-major cloud extended
    cyclically, so against ``pts.T`` it holds the pairs {j, (j + δ) mod n}.
    """
    n, d = pts.shape
    cols = np.ascontiguousarray(pts.T)
    ext = np.concatenate((cols, cols[:, : n // 2]), axis=1)
    span, step = ext.strides
    fold = np.ndarray((d, n // 2 + 1, n), ext.dtype, ext, 0, (span, step, step))
    fold.flags.writeable = False  # its rows overlap
    return fold


def _fold_blocks(n: int, first: int = 1) -> list:
    """Strips ``(δ0, δ1, size)`` of the fold rows first .. n // 2, about _TILE values each.

    Rows 1 to ceil(n/2) - 1 take all n columns. For even n, row n/2 meets
    each of its pairs twice, so only its first n/2 columns count. Every
    unordered pair is thus in exactly one row, and a strip's pairs are the
    first ``size`` values of its (δ1 - δ0) x n tile in C order. Row 0, the
    self-pairs, starts the fold when ``first`` is 0.
    """
    last = n // 2 + 1
    rows = last - first
    if rows <= 0:
        return []
    strips = -(-rows * n // _TILE)  # ceil(rows * n / _TILE)
    step = -(-rows // strips)
    out = []
    for d0 in range(first, last, step):
        d1 = min(d0 + step, last)
        cut = n // 2 if d1 == last and n % 2 == 0 else 0
        out.append((d0, d1, (d1 - d0) * n - cut))
    return out


def _pair_tiles(pts: np.ndarray, *, dot: bool = False):
    """Yield the values of the unordered pairs of ``pts``, one fold strip at a time.

    Values are squared distances or, with ``dot``, dot products; dot
    products also cover the self-pairs. Each strip of :func:`_fold_blocks`
    yields a fresh array of its values. Every value is built one coordinate
    at a time in coordinate order, so it does not depend on the strips.
    """
    fold, cols = _fold(pts), np.ascontiguousarray(pts.T)
    for d0, d1, size in _fold_blocks(pts.shape[0], first=0 if dot else 1):
        yield _tile(fold[:, d0:d1], cols, dot=dot).ravel()[:size].copy()


def _scaled_differences(a: np.ndarray, b: np.ndarray):
    """Column-wise ``(top, q)`` with |a - b| = top * sqrt(q), for (d, m) operands.

    ``top`` is the largest magnitude of a difference and ``q`` the sum of
    the squared differences rescaled by it, so 1 <= q <= d: neither
    underflows nor overflows, whatever the scale of the distance. ``top``
    is 0 only where the points coincide. A column whose difference
    overflows takes the difference of its halved coordinates and 4q
    instead, so 4 <= q <= 4d there; every other column keeps its bits.
    """
    with np.errstate(over="ignore"):
        diff = a - b
    wide = ~np.isfinite(diff).all(axis=0)
    diff[:, wide] = a[:, wide] / 2.0 - b[:, wide] / 2.0
    top = np.abs(diff).max(axis=0)
    scale = np.where(top > 0.0, top, 1.0)
    q = np.square(diff / scale).sum(axis=0)
    q[wide] *= 4.0
    return top, q


def _distances(d2, a, b, *, log=False):
    """Distances (with ``log``, log d2) from the squared distances ``d2 = _tile(a, b)``, in place.

    A square in the normal range keeps its bits: the distance is sqrt(d2).
    A square below the smallest normal double has lost bits to underflow
    (it is 0 for distances below about 1.5e-162), and one equal to inf has
    overflowed (distances above about 1.3e154). Those pairs are rebuilt from
    :func:`_scaled_differences`, as top * sqrt(q) or 2 log(top) + log(q); a
    distance past the largest double is inf. Raises DuplicatePoints where
    top is 0.
    """
    root = np.log if log else np.sqrt
    if d2.min() >= _NORMAL_MIN and d2.max() < math.inf:
        return root(d2, out=d2)
    lost = i, j = np.nonzero((d2 < _NORMAL_MIN) | (d2 == math.inf))
    a = np.broadcast_to(a, a.shape[:1] + d2.shape)
    # numpy lays these gathers out pair-major, so each q sums one contiguous run of d values
    top, q = _scaled_differences(a[:, i, j], b[:, j])
    if not top.all():
        raise DuplicatePoints("coinciding points encountered in a pair pass")
    d2[lost] = 1.0  # in range: the pass below takes no log of 0
    root(d2, out=d2)
    with np.errstate(over="ignore"):
        d2[lost] = 2.0 * np.log(top) + np.log(q) if log else top * np.sqrt(q)
    return d2


def _pair_distances(pts: np.ndarray):
    """Yield the distances of the unordered pairs of ``pts``, strip by strip.

    The same strips and order as :func:`_pair_tiles`, each value as
    :func:`_distances` gives it.
    """
    fold, cols = _fold(pts), np.ascontiguousarray(pts.T)
    for d0, d1, size in _fold_blocks(pts.shape[0]):
        a = fold[:, d0:d1]
        with np.errstate(over="ignore"):  # an overflowing square is rebuilt
            d2 = _tile(a, cols)
        yield _distances(d2, a, cols).ravel()[:size].copy()


def write_csv(cloud: PointCloud, path) -> None:
    """Write a cloud as UTF-8 CSV, one point per row, 17 significant digits.

    The first line is the dimension header ``# dim=<d>``; with 17 digits the
    round trip through text is bit-exact.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dumps_csv(cloud))


def dumps_csv(cloud: PointCloud) -> str:
    """CSV text of a cloud (same format as :func:`write_csv`)."""
    buf = io.StringIO()
    buf.write(f"# dim={cloud.dim}\n")
    np.savetxt(buf, cloud.points, delimiter=",", fmt="%.17g")
    return buf.getvalue()


def read_csv(path) -> PointCloud:
    """Read a point cloud CSV.

    Accepts an optional leading ``# dim=<d>`` header; other ``#`` lines are
    ignored. Every row must have the same number of numeric columns, and the
    header dimension, when present, must match.
    """
    declared = None
    if isinstance(path, (str, os.PathLike)):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = path.read()
    has_data = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("dim="):
                declared = int(body[4:].strip())
            continue
        has_data = True
        break
    if not has_data:
        raise ValueError("point CSV contains no data rows")
    try:
        arr = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed point CSV: {exc}") from exc
    if arr.size == 0:
        raise ValueError("point CSV contains no data rows")
    if declared is not None and arr.shape[1] != declared:
        raise DimensionMismatch(
            f"header says dim={declared} but rows have {arr.shape[1]} columns"
        )
    return PointCloud(arr)
