"""Point clouds: ordered finite sets of distinct points with CSV persistence.

Order is significant. A cloud doubles as a generating sequence: ``prefix(k)``
returns the first k points, so nested prefixes P_2, P_3, ... of one cloud are
the sets whose energies the profile and estimator modules track.

Every pair pass is one walk (``_walk``): strips of about ``_TILE`` values,
planned from one coordinate-major copy of the cloud, whose tiles
(``_tile``) are built in three buffers that the walk owns, so concurrent
passes share nothing. A walk has one of four schedules. The fold (``_fold``,
``_fold_blocks``) pairs point j with point (j + δ) mod n in row δ, so rows
1 .. n/2 hold each unordered pair once in dense strips of 1/2 to 3/2
``_TILE`` values, planned once per n (a cloud of up to 314 points is one
strip); every pass that needs no prefix order walks it (``min_gap``, the
pair iterators behind the dedup paths, energy totals, and the ball cross
terms), and dot products walk it from row 0. ``diameter`` walks it over the
points that a triangle-inequality bound about the bounding-box centre
cannot rule out, and returns the full walk's maximum to the bit. Of 1500
uniform points (two seeds) it keeps 2-4 at d = 2, 11-17 at d = 3, 29-80 at
d = 6, 55-182 at d = 7 and 233-304 at d = 8. The prefix row strips
(``_row_blocks``) take rows [k0, k1) against the columns [0, k1) and serve
prefix profiles only. One point against the cloud, in column chunks of at
most ``_TILE``, serves the diameter's lower bound and the discrete
potential.
"""

from __future__ import annotations

import functools
import io
import math
import os

import numpy as np

from .errors import DimensionMismatch, DuplicatePoints, TooFewPoints

__all__ = ["PointCloud", "read_csv", "write_csv"]

_TILE = 1 << 15  # values per row strip, so its buffers stay in cache
_NORMAL_MIN = np.finfo(float).tiny  # squares below it have lost bits to underflow
_SUBNORMAL_MIN = 2.0**-1074  # the subnormal step
# the relative margin of diameter()'s centre bound, far above the few-ulp
# rounding of a distance or a centre distance in any dimension below 2^30
_BOUND_MARGIN = 2.0**-20


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
        pair. For the centre c of the bounding box and R the largest
        distance of a point from c, a point x is in no pair longer than
        |x - c| + R. The lower bound ``lo`` is the largest distance from the
        point farthest from c to the other points, one row that
        :func:`_tile` and :func:`_distances` build as the fold builds its
        values, so it is one of the full walk's values to the bit. A
        point is dropped when its bound is below ``lo`` by more than the
        rounding margin ``_BOUND_MARGIN`` plus one subnormal step (a rebuilt
        distance may round up by half of one), and the maximum over the
        remaining points is returned; when none is dropped, that is the
        full walk. The centre distances take the offsets from the low
        corner, from halved coordinates where a span may overflow, scaled by
        an exact power of two into [0, 1], so they neither overflow nor
        underflow. There is no size threshold. Of 1500 uniform points (two
        seeds) the walk keeps 2-4 at d = 2, 11-17 at d = 3, 29-80 at d = 6,
        55-182 at d = 7 (204 of 8000) and 233-304 at d = 8, and of 3000
        Gaussian points in d = 10, 142.
        """
        pts = self._points
        if len(pts) < 2:
            return 0.0
        h = 0.5 if _half_spans(pts).max() > 2.0**1022 else 1.0  # spans past 2^1023 may overflow
        off = pts * h - pts.min(axis=0) * h
        k = math.frexp(float(off.max()))[1]  # every offset is below 2^k
        u = np.ldexp(off, -k)
        r = np.sqrt(np.square(u - u.max(axis=0) / 2.0).sum(axis=1))  # distances to the centre
        f = int(r.argmax())
        strips, bufs = _walk(np.delete(pts, f, axis=0), "point", pts[f])
        with np.errstate(over="ignore"):  # an overflowing square is rebuilt
            lo = max(float(_distances(_tile(a, b, bufs=bufs), a, b).max()) for a, b, *_ in strips)
        if lo == math.inf:
            return lo
        cut = math.ldexp(lo * h, -k) * (1.0 - _BOUND_MARGIN) - math.ldexp(_SUBNORMAL_MIN, -k)
        far = r + r[f] >= cut
        return max(float(d.max()) for d in _pair_distances(pts if far.all() else pts[far]))

    def min_gap(self) -> float:
        """Smallest pairwise distance (positive: the points are distinct)."""
        if self.n < 2:
            raise TooFewPoints("min_gap needs at least 2 points")
        return min(float(r.min()) for r in _pair_distances(self._points))


def _half_spans(pts: np.ndarray) -> np.ndarray:
    """Half the coordinate spans, from the halved extremes: finite for any finite cloud."""
    return pts.max(axis=0) / 2.0 - pts.min(axis=0) / 2.0


def _buffers(size: int) -> tuple:
    """Three fresh flat strip buffers of ``size`` values: the tile, the kernel and the step factor.

    Buffer k starts 64 k bytes past a 4 KiB boundary: the three never share
    an address modulo 4 KiB (no 4K aliasing between them), and their cache
    placement is the same in every process. They are views into one
    allocation, each in its own span of ``size`` + 512 values. Three
    allocations of their own would be freed as three blocks that glibc's
    malloc, whose trim threshold is twice the largest block it has
    unmapped, hands back to the system together, so each walk would map
    its buffers afresh: 146 page faults and +58% time per
    ``discrete_energy_multi`` call on 300 points (2-core x86-64 VM), where
    one block is reused from the heap.
    """
    span = size + 512  # 512 values fill a 4 KiB page
    raw = np.empty(3 * span)
    addr = raw.ctypes.data
    starts = [k * span + (64 * k - addr - 8 * k * span) % 4096 // 8 for k in range(3)]
    return tuple(raw[start : start + size] for start in starts)


def _tile(a: np.ndarray, b: np.ndarray, *, dot: bool = False, bufs=None) -> np.ndarray:
    """Squared distances (or dot products) of the pairs of a tile, rows of a against b.

    Both operands are coordinate-major: ``b`` is (d, cols) and ``a`` is (d,
    rows, 1), each row taken against every column of b, or (d, rows, cols),
    entry [:, i, j] taken against b[:, j] (a fold strip). Built one
    coordinate at a time in coordinate order, as ``op(a[k], b[k])``, with no
    (d, rows, cols) temporary. A squared difference is never -0.0, so the
    first coordinate's squares are written straight into the tile; dot
    products start from +0.0, so a zero product is never -0.0. The tile is a
    view of buffer 0 of ``bufs``, a walk's buffers (fresh ones when None), and
    its per-coordinate temporary is buffer 1: the result is valid until the
    next ``_tile`` call on them, and buffers 1 and 2 are free until then.
    """
    op = np.multiply if dot else np.subtract
    shape = (a.shape[1], b.shape[1])
    size = shape[0] * shape[1]
    buf, tmp, _ = bufs or _buffers(size)
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


def _fold(pts: np.ndarray) -> tuple:
    """The fold of ``pts`` and its columns: a zero-copy (d, n // 2 + 1, n) view and ``pts.T``.

    Entry [:, δ, j] of the fold is pts[(j + δ) % n]: row δ is the window
    [δ, δ + n) of the coordinate-major cloud extended cyclically, so against
    the columns, one C-contiguous (d, n) copy of ``pts.T``, it holds the
    pairs {j, (j + δ) mod n}. The columns are the tile operand ``b`` of
    every fold strip.
    """
    n, d = pts.shape
    cols = np.ascontiguousarray(pts.T)
    ext = np.concatenate((cols, cols[:, : n // 2]), axis=1)
    span, step = ext.strides
    fold = np.ndarray((d, n // 2 + 1, n), ext.dtype, ext, 0, (span, step, step))
    fold.flags.writeable = False  # its rows overlap
    return fold, cols


def _fold_blocks(n: int, first: int = 1) -> tuple:
    """Strips ``(δ0, δ1, size)`` of the fold rows first .. n // 2, about _TILE values each.

    Rows 1 to ceil(n/2) - 1 take all n columns. For even n, row n/2 meets
    each of its pairs twice, so only its first n/2 columns count. Every
    unordered pair is thus in exactly one row, and a strip's pairs are the
    first ``size`` values of its (δ1 - δ0) x n tile in C order. Row 0, the
    self-pairs, starts the fold when ``first`` is 0. The strip count is the
    value count over _TILE, rounded to the nearest integer (at least 1 and
    at most the row count), and the rows are split as evenly as whole rows
    allow, so a strip holds between 1/2 and 3/2 _TILE values, give or take
    a row: a 300-point fold is one strip of 44,850 values. The plan is made
    once per (n, first, _TILE).
    """
    return _fold_plan(n, first, _TILE)


@functools.lru_cache
def _fold_plan(n: int, first: int, tile: int) -> tuple:
    """:func:`_fold_blocks` for strips of about ``tile`` values."""
    last = n // 2 + 1
    rows = last - first
    if rows <= 0:
        return ()
    cut = n // 2 if n % 2 == 0 else 0  # the uncounted half of the last row
    strips = min(rows, max(1, (2 * (rows * n - cut) + tile) // (2 * tile)))
    bounds = [first + k * rows // strips for k in range(strips + 1)]
    return tuple(
        (d0, d1, (d1 - d0) * n - (cut if d1 == last else 0)) for d0, d1 in zip(bounds, bounds[1:])
    )


@functools.lru_cache
def _corner(rows: int, cols: int):
    """The read-only corner mask of a strip, True where a value is skipped, made once per shape.

    ~tri(rows, cols, k=-1): True on and above the diagonal. For rows = cols
    that is the pairs j >= k of a prefix strip's diagonal block; for one row
    it is all True, the second half of the last fold row of an even cloud.
    None when cols is 0: a strip whose every value is a pair.
    """
    if not cols:
        return None
    mask = ~np.tri(rows, cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _walk(pts: np.ndarray, schedule: str, x=None, bufs=None) -> tuple:
    """One pair pass over the (n, d) ``pts``: its strips and the three buffers they share.

    ``schedule`` is "fold" (the fold rows 1 .. n // 2 of :func:`_fold_blocks`:
    every unordered pair once), "dot" (the fold rows 0 .. n // 2: the
    self-pairs too), "prefix" (the row strips of :func:`_row_blocks`: rows
    [k0, k1) against the columns [0, k1)) or "point" (the point ``x``, (d,),
    against every point, in column chunks of at most ``_TILE``). Each strip
    is ``(a, b, r0, r1, corner, size)``, planned from one coordinate-major
    copy of ``pts``: the operands of its tile ``_tile(a, b)``, the entries
    [r0, r1) of the pass's output that it fills (the fold rows counted from
    the first, the prefix rows, or the columns of x's row), the
    :func:`_corner` mask laid on the tile's bottom-right corner, True where
    a value is skipped, and how many of the tile's values in C order hold
    its pairs (a prefix strip's corner lies within them). The buffers are
    :func:`_buffers` at the size of the widest tile, made per walk, so
    concurrent walks share nothing; ``bufs`` hands on those of an earlier
    walk of the same plan instead.
    """
    n = pts.shape[0]
    if schedule in ("fold", "dot"):
        first = 0 if schedule == "dot" else 1
        fold, cols = _fold(pts)
        strips = [
            (fold[:, d0:d1], cols, d0 - first, d1 - first, _corner(1, (d1 - d0) * n - size), size)
            for d0, d1, size in _fold_blocks(n, first)
        ]
    else:
        cols = np.ascontiguousarray(pts.T)
        if schedule == "prefix":
            strips = [
                (cols[:, k0:k1, None], cols[:, :k1], k0, k1, _corner(k1 - k0, k1 - k0), (k1 - k0) * k1)
                for k0, k1 in _row_blocks(n)
            ]
        else:
            a = x[:, None, None]
            ends = [(j, min(n, j + _TILE)) for j in range(0, n, _TILE)]
            strips = [(a, cols[:, j0:j1], j0, j1, None, j1 - j0) for j0, j1 in ends]
    if bufs is None:
        bufs = _buffers(max((a.shape[1] * b.shape[1] for a, b, *_ in strips), default=0))
    return strips, bufs


def _pair_tiles(pts: np.ndarray, *, dot: bool = False):
    """Yield the values of the unordered pairs of ``pts``, one fold strip at a time.

    Values are squared distances or, with ``dot``, dot products; dot
    products also cover the self-pairs. Each strip of the walk yields a
    fresh array of its values. Every value is built one coordinate at a
    time in coordinate order, so it does not depend on the strips.
    """
    strips, bufs = _walk(pts, "dot" if dot else "fold")
    for a, b, _, _, _, size in strips:
        yield _tile(a, b, dot=dot, bufs=bufs).ravel()[:size].copy()


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
    strips, bufs = _walk(pts, "fold")
    for a, b, _, _, _, size in strips:
        with np.errstate(over="ignore"):  # an overflowing square is rebuilt
            d2 = _tile(a, b, bufs=bufs)
        yield _distances(d2, a, b).ravel()[:size].copy()


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
