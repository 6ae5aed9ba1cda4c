"""Point clouds: ordered finite sets of distinct points with CSV persistence.

Order is significant. A cloud doubles as a generating sequence: ``prefix(k)``
returns the first k points, so nested prefixes P_2, P_3, ... of one cloud are
the sets whose energies the profile and estimator modules track.
"""

from __future__ import annotations

import io
import math
import os
import threading

import numpy as np

from .errors import DimensionMismatch, DuplicatePoints, TooFewPoints

__all__ = ["PointCloud", "read_csv", "write_csv"]

_TILE = 1 << 15  # values per row strip, so its buffers stay in cache
_NORMAL_MIN = np.finfo(float).tiny  # squares below it have lost bits to underflow
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
        """Largest pairwise distance (0 for a single point)."""
        return max((float(r.max()) for r in _pair_distances(self._points)), default=0.0)

    def min_gap(self) -> float:
        """Smallest pairwise distance (positive: the points are distinct)."""
        if self.n < 2:
            raise TooFewPoints("min_gap needs at least 2 points")
        return min(float(r.min()) for r in _pair_distances(self._points))


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
    """Squared distances (or dot products) of every row of a with every row of b.

    Built one coordinate at a time in coordinate order, starting from +0.0,
    with no (len(a), len(b), d) temporary. The tile is a view of buffer 0 of
    this thread's strip workspace and its per-coordinate temporary is
    buffer 1: the result is valid until the thread's next ``_tile`` call,
    and buffers 1 and 2 are free for the caller until then.
    """
    op = np.multiply if dot else np.subtract
    shape = (len(a), len(b))
    size = shape[0] * shape[1]
    buf, tmp, _ = _strip_buffers(size)
    tile = buf[:size].reshape(shape)
    t = tmp[:size].reshape(shape)
    tile.fill(0.0)
    for k in range(a.shape[1]):
        op.outer(a[:, k], b[:, k], out=t)
        if not dot:
            t *= t
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


def _pair_tiles(pts: np.ndarray, *, dot: bool = False):
    """Yield the values of the pairs j < k of ``pts``, one row strip at a time.

    Values are squared distances or, with ``dot``, dot products; dot
    products also cover the self-pairs j == k. Each strip of
    :func:`_row_blocks` yields its values row by row. Every value is built
    one coordinate at a time in coordinate order, starting from +0.0, so it
    does not depend on the strips and a zero is never -0.0.
    """
    for k0, k1 in _row_blocks(pts.shape[0]):
        tile = _tile(pts[k0:k1], pts[:k1], dot=dot)
        values = tile[np.tri(k1 - k0, k1, k0 - (not dot), dtype=bool)]
        if values.size:  # a strip holding only row 0 has no pair j < k
            yield values


def _scaled_differences(a: np.ndarray, b: np.ndarray):
    """Row-wise ``(top, q)`` with |a - b| = top * sqrt(q).

    ``top`` is the largest magnitude of a difference and ``q`` the sum of
    the squared differences rescaled by it, so 1 <= q <= d: neither
    underflows nor overflows, whatever the scale of the distance. ``top``
    is 0 only where the points coincide. A row whose difference overflows
    takes the difference of its halved coordinates and 4q instead, so
    4 <= q <= 4d there; every other row keeps its bits.
    """
    with np.errstate(over="ignore"):
        diff = a - b
    wide = ~np.isfinite(diff).all(axis=1)
    diff[wide] = a[wide] / 2.0 - b[wide] / 2.0
    top = np.abs(diff).max(axis=1)
    scale = np.where(top > 0.0, top, 1.0)
    q = np.square(diff / scale[:, None]).sum(axis=1)
    q[wide] *= 4.0
    return top, q


def _distances(d2, a, b, mask=None, *, log=False):
    """Distances (with ``log``, log d2) from the squared distances of ``_tile(a, b)``, in place.

    ``d2`` is that tile, or its values ``tile[mask]``. A square in the
    normal range keeps its bits: the distance is sqrt(d2). A square below
    the smallest normal double has lost bits to underflow (it is 0 for
    distances below about 1.5e-162), and one equal to inf has overflowed
    (distances above about 1.3e154). Those pairs are rebuilt from
    :func:`_scaled_differences`, as top * sqrt(q) or 2 log(top) + log(q);
    a distance past the largest double is inf. Raises DuplicatePoints where
    top is 0.
    """
    root = np.log if log else np.sqrt
    if d2.min() >= _NORMAL_MIN and d2.max() < math.inf:
        return root(d2, out=d2)
    lost = np.nonzero((d2 < _NORMAL_MIN) | (d2 == math.inf))
    rows, cols = lost if mask is None else (ix[lost] for ix in np.nonzero(mask))
    top, q = _scaled_differences(a[rows], b[cols])
    if not top.all():
        raise DuplicatePoints("coinciding points encountered in a pair pass")
    d2[lost] = 1.0  # in range: the pass below takes no log of 0
    root(d2, out=d2)
    with np.errstate(over="ignore"):
        d2[lost] = 2.0 * np.log(top) + np.log(q) if log else top * np.sqrt(q)
    return d2


def _pair_distances(pts: np.ndarray):
    """Yield the distances of the pairs j < k of ``pts``, strip by strip.

    The same strips and order as :func:`_pair_tiles`, each value as
    :func:`_distances` gives it.
    """
    for k0, k1 in _row_blocks(pts.shape[0]):
        a, b = pts[k0:k1], pts[:k1]
        mask = np.tri(k1 - k0, k1, k0 - 1, dtype=bool)
        with np.errstate(over="ignore"):  # an overflowing square is rebuilt
            d2 = _tile(a, b)[mask]
        if d2.size:  # a strip holding only row 0 has no pair j < k
            yield _distances(d2, a, b, mask)


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
