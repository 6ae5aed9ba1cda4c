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
        """Largest pairwise distance (exact, strip by strip)."""
        best = 0.0
        for d2 in _pair_tiles(self._points):
            best = max(best, float(d2.max()))
        return float(np.sqrt(best))

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
    """Row-wise ``(top, q)`` with |a - b| = top * sqrt(q), for tiny distances.

    ``top`` is the largest magnitude of a difference and ``q`` the sum of
    the squared differences rescaled by it, so a distance whose square
    underflows is still recovered, down to the subnormal range: log d2 is
    2 log(top) + log(q) to rounding. ``top`` is 0 only where the points
    coincide.
    """
    diff = a - b
    top = np.abs(diff).max(axis=1)
    scale = np.where(top > 0.0, top, 1.0)
    return top, np.square(diff / scale[:, None]).sum(axis=1)


def _pair_distances(pts: np.ndarray):
    """Yield the distances of the pairs j < k of ``pts``, strip by strip.

    The same strips and order as :func:`_pair_tiles`, square-rooted. A
    distance below about 1.5e-162 squares to 0; only on a strip holding
    such a 0 are those pairs recomputed by :func:`_scaled_differences`.
    """
    for k0, k1 in _row_blocks(pts.shape[0]):
        mask = np.tri(k1 - k0, k1, k0 - 1, dtype=bool)
        r = np.sqrt(_tile(pts[k0:k1], pts[:k1])[mask])
        if not r.all():
            rows, cols = np.nonzero(mask)
            zero = r == 0.0
            top, q = _scaled_differences(pts[k0 + rows[zero]], pts[cols[zero]])
            r[zero] = top * np.sqrt(q)
        if r.size:
            yield r


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
