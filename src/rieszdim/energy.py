"""Discrete Riesz energies, potentials, and the truncated pair kernel.

The discrete s-energy of an n-point set P is

    J_s(P) = (1/(n(n-1))) * sum_{x != y in P} |x - y|^{-s}

with Euclidean distance, summed over ordered pairs (equivalently twice the
unordered-pair sum). Every energy here is arithmetic on kernel sums over
strips of pairs, taken for all exponents at once by one strip kernel
(``_strip_sums``) on one of two schedules:

* Totals (``discrete_energy``, ``discrete_energy_multi``,
  ``truncated_energy``, and so every replicate loop and
  ``profile_from_family``) walk the fold of ``cloud._fold_blocks``: row δ
  pairs point j with point (j + δ) mod n, so rows 1 .. n/2 hold every
  unordered pair once, in dense strips with no masked upper triangle. Each
  fold row is summed on its own and a total is the ``math.fsum`` of those
  sums, so it is bit-identical at any thread count and any strip size.
* Prefix profiles (``energy_profile``, hence ``slln_path``) need the row
  sums R_s[k] = sum_{j<k} |x_k - x_j|^{-s} in prefix order. They walk the
  row strips of ``cloud._row_blocks`` against all earlier points, skipping
  the pairs j >= k of each strip's diagonal block; prefix totals are one
  compensated running sum over R.

In a strip, squared distances are accumulated one coordinate at a time and
log d2 is taken once by ``cloud._distances``, which rebuilds a square that
underflowed or overflowed. The kernels climb an exponent ladder: the
exponent list is split once per call into runs of equal ascending steps h
(equal to a few ulp), at most ``_RUN`` long. The first exponent of a run,
its anchor, takes a direct exp(-s/2 * log d2), masked or weighted once;
each later one is the previous kernel times the step factor
exp(-h/2 * log d2), taken once per run and strip. An evenly spaced grid of
S exponents thus costs about S/8 exp passes per strip instead of S. s = 0
is an exact count. A ladder value rounds differently from the direct exp,
by about as much as the direct exp's own error (a few 1e-15 relative where
s/2 * |log d2| is large); it stays within 3e-14 of an extended-precision
oracle over a 600-exponent grid.
Strip bounds do not depend on the thread count and each strip writes only
its own rows, so every result is bit-identical at any thread count. A sum
that overflows is inf, never nan.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .cloud import (
    PointCloud,
    _distances,
    _fold,
    _fold_blocks,
    _row_blocks,
    _strip_buffers,
    _tile,
)
from .errors import DimensionMismatch, DuplicatePoints, TooFewPoints

__all__ = [
    "EnergyProfile",
    "discrete_energy",
    "discrete_energy_multi",
    "energy_profile",
    "profile_from_family",
    "riesz_potential_discrete",
    "truncated_energy",
]

_RUN = 16  # exponents per ladder run: a direct exp re-anchors at least this often
_pool = None
_pool_size = 0
_pool_lock = threading.Lock()
_triangles = (np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool, grown to at least ``threads`` workers."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < threads:
            # a replaced pool finishes its work; its idle threads exit once
            # it is garbage collected
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="rieszdim")
            _pool_size = threads
        return _pool


def _deal(run, items, threads: int) -> None:
    """Call ``run`` on the round-robin shares ``items[t::w]`` of w workers.

    w is ``threads`` clamped to [1, len(items)] (below 1 runs serially).
    The calling thread takes share 0 and the shared pool the rest, so a
    ``run`` must never submit to the pool and wait on it. The first error
    raised by any share is re-raised once every share has finished.
    """
    workers = max(1, min(threads, len(items)))
    pool = _shared_pool(workers - 1) if workers > 1 else None
    futures = [pool.submit(run, items[t::workers]) for t in range(1, workers)]
    try:
        run(items[::workers])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _triangle(rows: int):
    """Strict lower triangle of a rows x rows block: (float 1/0 mask, its bool complement).

    Sliced from one cached pair, rebuilt only when ``rows`` outgrows it (two
    threads rebuilding at once each store a complete pair).
    """
    global _triangles
    lower, upper = _triangles
    if lower.shape[0] < rows:
        lower = np.tri(rows, k=-1)
        upper = lower == 0.0
        _triangles = (lower, upper)
    return lower[:rows, :rows], upper[:rows, :rows]


def _ladder(exps) -> list:
    """Split an exponent list into ladder runs ``(s, h, rows)``.

    Row ``rows[0]`` is the anchor, at exponent s; each later row m of the
    run is the row before times r^-h, so it realizes the exponent s + m h.
    h is the mean step of the run, so steps that differ by a few ulp (as on
    a rounded decimal grid) still share one step factor. A run grows while
    its step ascends (h > 0, so an inf kernel never meets a zero factor),
    it holds at most ``_RUN`` rows, and every realized exponent stays within
    2 ulp of its listed one. s = 0, the exact count, never starts a run; a
    run of two would cost as many exp passes as two anchors, so it is not
    formed.
    """
    runs, i = [], 0
    while i < len(exps):
        s, j, h = exps[i], i + 1, 0.0
        for e in range(i + 2, min(len(exps), i + _RUN)):
            step = (exps[e] - s) / (e - i)
            if not (s != 0.0 and step > 0.0 and all(
                abs(s + m * step - exps[i + m]) <= 2.0 * math.ulp(exps[i + m])
                for m in range(1, e - i + 1)
            )):
                break
            j, h = e + 1, step
        runs.append((s, h, range(i, j)))
        i = j
    return runs


def _strip_sums(a, b, runs, weight, out, corner) -> None:
    """Write the kernel sums of the rows of the strip ``_tile(a, b)`` to ``out`` (S x rows).

    ``corner`` is None when every value of the strip is a pair. Otherwise it
    is a pair (float 1/0 mask, its bool complement) laid on the strip's
    bottom-right corner, whose values under mask 0 are skipped: the pairs
    j >= k of a prefix strip's diagonal block, or the second half of the
    last fold row of an even cloud.
    """
    d2 = _tile(a, b)
    if corner is not None:
        keep, skip = corner
        at = np.s_[-keep.shape[0] :, -keep.shape[1] :]
        np.copyto(d2[at], 1.0, where=skip)  # skipped: log 1 is 0
    w = None
    if weight is not None:
        w = weight(_distances(d2.copy(), a, b))
        if corner is not None:
            w[at] *= keep
    L = _distances(d2, a, b, log=True)
    if w is not None:
        L[w == 0.0] = 0.0  # a zero weight must not meet an infinite kernel
    # buffers 1 and 2 are free once the tile is built: the kernel and the step factor
    K, E = (buf[: L.size].reshape(L.shape) for buf in _strip_buffers(L.size)[1:])
    for s, h, rows in runs:
        if s == 0.0:
            if w is not None:
                w.sum(axis=1, out=out[rows[0]])
            else:
                out[rows[0]] = L.shape[1]
                if corner is not None:
                    out[rows[0], at[0]] -= skip.sum(axis=1)
            continue
        np.multiply(L, -0.5 * s, out=K)
        np.exp(K, out=K)
        if w is not None:
            K *= w
        elif corner is not None:
            K[at] *= keep
        K.sum(axis=1, out=out[rows[0]])
        if len(rows) > 1:
            # a skipped or zero-weight pair has L = 0, so E = 1 keeps its 0
            np.multiply(L, -0.5 * h, out=E)
            np.exp(E, out=E)
            for i in rows[1:]:
                K *= E
                K.sum(axis=1, out=out[i])


def _sums(strips, width, exps, threads, weight):
    """out[:, r0:r1] = :func:`_strip_sums` of each strip ``(a, b, r0, r1, corner)``; out is S x width."""
    runs = _ladder([float(s) for s in exps])
    out = np.zeros((len(exps), width))

    def run(share):
        with np.errstate(over="ignore"):
            for a, b, r0, r1, corner in share:
                _strip_sums(a, b, runs, weight, out[:, r0:r1], corner)

    _deal(run, strips, threads)
    return out


def _row_sums(pts, exps, *, threads=1, weight=None):
    """R[i, k] = sum_{j<k} weight(r) * r^{-exps[i]}, r = |x_k - x_j|, shape (S, n).

    Walks the prefix strips of ``cloud._row_blocks``. Raises DuplicatePoints
    on a zero distance. ``weight`` optionally maps distances to
    multiplicative pair weights (the truncated kernel).
    """
    strips = [
        (pts[k0:k1], pts[:k1], k0, k1, _triangle(k1 - k0))
        for k0, k1 in _row_blocks(pts.shape[0])
    ]
    return _sums(strips, pts.shape[0], exps, threads, weight)


def _fold_sums(pts, exps, *, threads=1, weight=None):
    """F[i, δ - 1] = sum over fold row δ of weight(r) * r^{-exps[i]}, shape (S, n // 2).

    Walks the fold strips of ``cloud._fold_blocks``, so every unordered pair
    is summed once, in no prefix order: fsum(F[i]) is the pair total. Each
    fold row is summed on its own, so F does not depend on the strips.
    """
    n = pts.shape[0]
    fold = _fold(pts)
    strips = []
    for d0, d1, size in _fold_blocks(n):
        cut = (d1 - d0) * n - size  # the second half of the last row of an even cloud
        corner = (np.zeros((1, cut)), np.ones((1, cut), dtype=bool)) if cut else None
        strips.append((fold[d0:d1], pts, d0 - 1, d1 - 1, corner))
    return _sums(strips, n // 2, exps, threads, weight)


def _check_exponents(exps) -> None:
    """Refuse an exponent that is negative, infinite or NaN."""
    if not all(0 <= s < math.inf for s in exps):
        raise ValueError("exponents must be finite and nonnegative")


def _fsum(values) -> float:
    """Exact sum of nonnegative terms; inf once it overflows."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return math.inf


def _running_totals(r: np.ndarray) -> np.ndarray:
    """Compensated (Neumaier) running sums of a 1-D array r >= 0.

    ``cumsum`` adds in index order, so the rounding error of every step is
    recovered afterwards from its operands; an inf total stays inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tot = np.cumsum(r)
        prev = np.zeros_like(tot)
        prev[1:] = tot[:-1]
        err = np.where(prev >= r, (prev - tot) + r, (r - tot) + prev)
        return np.where(np.isinf(tot), tot, tot + np.cumsum(err))


def discrete_energy(cloud: PointCloud, s: float, *, threads: int = 1) -> float:
    """Discrete s-energy J_s of a cloud.

    Requires n >= 2 distinct points and s >= 0; J_0 is exactly 1 for any
    valid cloud.
    """
    if cloud.n < 2:
        raise TooFewPoints("discrete energy needs at least 2 points")
    _check_exponents([s])
    n = cloud.n
    F = _fold_sums(cloud.points, [s], threads=threads)
    return _fsum(F[0]) / (n * (n - 1) // 2)


def discrete_energy_multi(cloud: PointCloud, s_list, *, threads: int = 1) -> np.ndarray:
    """J_s for several exponents with a single distance pass.

    Each value is fsum(R_s) / (n(n-1)/2), the mean over unordered pairs; a
    sum that overflows gives inf.
    """
    if cloud.n < 2:
        raise TooFewPoints("discrete energy needs at least 2 points")
    _check_exponents(s_list)
    n = cloud.n
    F = _fold_sums(cloud.points, s_list, threads=threads)
    return np.array([_fsum(row) / (n * (n - 1) // 2) for row in F])


@dataclass(frozen=True)
class EnergyProfile:
    """J_s(P_n) over an exponent grid and a prefix-size grid.

    ``values[i, j]`` is the energy of the n_grid[j]-point set at exponent
    s_grid[i]. Entries are nonnegative; for clouds of diameter <= 1 each
    column is nondecreasing in s.
    """

    s_grid: tuple
    n_grid: tuple
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.s_grid), len(self.n_grid)):
            raise ValueError("values shape must be (len(s_grid), len(n_grid))")
        if np.any(v < 0):
            raise ValueError("energies must be nonnegative")
        object.__setattr__(self, "values", v)

    def row(self, s: float) -> np.ndarray:
        i = self.s_grid.index(s)
        return self.values[i]


def _check_grids(s_grid, n_grid):
    s_grid = [float(s) for s in s_grid]
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("s_grid must be strictly ascending")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    _check_exponents(s_grid)
    if n_grid and n_grid[0] < 2:
        raise TooFewPoints("prefix sizes must be at least 2")
    return s_grid, n_grid


def energy_profile(
    cloud: PointCloud, s_grid, n_grid, *, threads: int = 1
) -> EnergyProfile:
    """Energy profile over prefixes of one cloud.

    Equivalent to calling :func:`discrete_energy` on every prefix, but one
    distance pass serves all prefixes and exponents: the prefix pair sums
    are compensated running totals of the row sums R. The incremental path
    agrees with the direct one to summation tolerance.
    """
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    if not n_grid:
        raise ValueError("n_grid must be non-empty")
    if n_grid[-1] > cloud.n:
        raise TooFewPoints(
            f"largest prefix {n_grid[-1]} exceeds cloud size {cloud.n}"
        )
    R = _row_sums(cloud.points[: n_grid[-1]], s_grid, threads=threads)
    m = np.array(n_grid)
    values = np.array([_running_totals(row)[m - 1] for row in R]) / (m * (m - 1) // 2)
    return EnergyProfile(tuple(s_grid), tuple(n_grid), values)


def profile_from_family(clouds, s_grid, *, threads: int = 1) -> EnergyProfile:
    """Energy profile across an explicit family of clouds (one per column).

    For constructions like the 1-D grids {m/(n+1)}, whose members are not
    prefixes of a common sequence, the profile column at n is the energy of
    the whole n-point member.
    """
    n_grid = [c.n for c in clouds]
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    values = np.empty((len(s_grid), len(clouds)))
    for j, cloud in enumerate(clouds):
        values[:, j] = discrete_energy_multi(cloud, s_grid, threads=threads)
    return EnergyProfile(tuple(s_grid), tuple(n_grid), values)


def riesz_potential_discrete(cloud: PointCloud, x, s: float) -> float:
    """Riesz potential (1/n) * sum_i |x - x_i|^{-s} of the counting measure.

    Returns math.inf when x coincides with a cloud point and s > 0.
    """
    _check_exponents([s])
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != cloud.dim:
        raise DimensionMismatch(
            f"point has dim {x.shape[0]}, cloud has dim {cloud.dim}"
        )
    if s == 0.0:
        return 1.0
    with np.errstate(over="ignore"):
        try:
            L = _distances(_tile(x[None, :], cloud.points), x[None, :], cloud.points, log=True)
        except DuplicatePoints:
            return math.inf
        return _fsum(np.exp(-0.5 * s * L[0])) / cloud.n


def _cutoff(u: np.ndarray) -> np.ndarray:
    """Radial bump: 1 for u <= 1, 0 for u >= 2, cubic smoothstep between."""
    t = np.clip(u - 1.0, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def truncated_energy(
    cloud: PointCloud, s: float, radius: float, *, threads: int = 1
) -> float:
    """Truncated energy of the normalized counting measure.

    Averages the kernel (1 - phi(|x-y|/radius)) * |x-y|^{-s} over all n^2
    ordered pairs including the diagonal; phi is 1 near 0 so diagonal terms
    vanish and the singularity is removed. Once radius < min gap / 2 the
    cutoff is fully open and the value equals ((n-1)/n) * J_s exactly.
    """
    if cloud.n < 2:
        raise TooFewPoints("truncated energy needs at least 2 points")
    _check_exponents([s])
    if not 0 < radius < math.inf:
        raise ValueError("cutoff radius must be finite and positive")
    n = cloud.n

    def weight(r):
        return 1.0 - _cutoff(r / radius)

    F = _fold_sums(cloud.points, [s], threads=threads, weight=weight)
    return _fsum(F[0]) / (n * n / 2)
