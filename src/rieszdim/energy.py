"""Discrete Riesz energies, potentials, and the truncated pair kernel.

The discrete s-energy of an n-point set P is

    J_s(P) = (1/(n(n-1))) * sum_{x != y in P} |x - y|^{-s}

with Euclidean distance, summed over ordered pairs (equivalently twice the
unordered-pair sum). Every energy here is arithmetic on kernel sums over
the strips of one ``cloud._walk``, taken for all exponents at once by one
strip kernel (``_strip_sums``) in the walk's buffers, on one of two
schedules:

* Totals (``discrete_energy``, ``discrete_energy_multi``,
  ``truncated_energy``, and so every replicate loop and
  ``profile_from_family``) walk the fold of ``cloud._fold_blocks``: row δ
  pairs point j with point (j + δ) mod n, so rows 1 .. n/2 hold every
  unordered pair once, in dense strips with no masked upper triangle. Each
  fold row is summed on its own and a total is the ``math.fsum`` of those
  sums, so it is bit-identical at any thread count and any strip size.
  ``_fold_energies`` sums a sequence of clouds (a chunk of replicate
  draws, a family's members) on one plan, set up once per call, and one
  set of strip buffers per cloud size; ``discrete_energy_multi`` is its
  one-cloud call.
* Prefix profiles (``energy_profile``, hence ``slln_path``) need the row
  sums R_s[k] = sum_{j<k} |x_k - x_j|^{-s} in prefix order. They walk the
  row strips of ``cloud._row_blocks`` against all earlier points, skipping
  the pairs j >= k of each strip's diagonal block; prefix totals are one
  compensated running sum over R.

The whole members of the product families (1-D grids, dyadic lattices,
Cantor levels) walk no pairs: ``rieszdim.families`` sums their difference
counts in closed form. ``EnergyProfile`` and ``grid_1d_profile`` live
there and are served from here too.

In a strip, squared distances are accumulated one coordinate at a time and
log d2 is taken once by ``cloud._distances``, which rebuilds a square that
underflowed or overflowed. The kernels climb an exponent ladder: the
exponent list is split, once per distinct list (the plan is cached), into
runs of equal ascending steps h (equal to a few ulp), at most ``_RUN``
long. The first exponent of a run, its anchor, takes a direct
exp(-s/2 * log d2), masked or weighted once; each later one is the
previous kernel times the step factor exp(-h/2 * log d2), taken once per
strip for each step h (runs of one step share it). An exponent within 2
ulp of the step of a run of several rows is that step factor, masked or
weighted once as an anchor is: the run's own anchor (``dim``'s default
0.1, 0.2, ...) and a lone exponent anywhere in the list (0.2 before 0.3,
0.5, 0.7), which is planned just before the run, so the factor holds its
step when the row is summed. An evenly spaced grid of S exponents thus
costs about S/16 + 1 exp passes per strip instead of S, one fewer when it
starts at its step, and (0.2, 0.3, 0.5, 0.7) costs two. At s = 0 every
kernel value is exp(0) = 1, so its sums are exact counts. A ladder value
rounds differently from the direct exp, by about as much as the direct
exp's own error (a few 1e-15 relative where s/2 * |log d2| is large); it
stays within 3e-14 of an extended-precision oracle over a 600-exponent
grid. Each kernel row is summed by one ``einsum`` reduction of that row
alone.
Strips are dealt to forked worker processes by ``_deal`` (passes too
small to pay for a fork run inline), each of which sums its share in its
own copy of the walk's buffers. Strip bounds do not depend on the worker
count and each strip writes only its own rows, so every result is
bit-identical at any thread count. A sum that overflows is inf, never nan.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle

import numpy as np

from .cloud import PointCloud, _buffers, _corner, _distances, _tile, _walk
from .errors import DimensionMismatch, DuplicatePoints, TooFewPoints, _check_exponents
from .families import EnergyProfile, _check_grids, _fsum
from .families import grid_1d_profile  # noqa: F401 (also served from here)

__all__ = [
    "discrete_energy",
    "discrete_energy_multi",
    "energy_profile",
    "profile_from_family",
    "riesz_potential_discrete",
    "truncated_energy",
]

_RUN = 16  # exponents per ladder run: a direct exp re-anchors at least this often
# The estimated time of a pass on one core, in ns, below which it runs
# inline: a fork and reap costs about 2.4 ms, so from 10 ms on a second
# worker saves about twice what it costs.
_FORK_WORK = 10_000_000
_forked = False  # set in a forked worker, which never forks again


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _deal(run, items, shape, threads: int, work: int) -> np.ndarray:
    """A zeroed array ``out`` of ``shape`` after ``run(share, out)`` on the shares ``items[t::w]``.

    w is ``threads`` clamped to [1, len(items)] and to the CPUs this process
    may use (below 1 runs serially). A pass whose ``work``, its estimated
    time on one core in ns, is below ``_FORK_WORK`` runs inline, as does
    every pass without ``os.fork`` or inside a worker. Otherwise the caller
    takes share 0, and shares 1 .. w-1 run in children forked for this
    pass, which write into ``out`` in anonymous shared memory, report an
    error over a pipe and leave through ``os._exit`` (so they never flush
    inherited stdio buffers or run ``atexit`` handlers). Each share must
    write only its own entries of ``out``. Every child is reaped before
    this returns or raises: the first error, the caller's own before the
    children's, is re-raised, a child killed by a signal surfaces as
    ChildProcessError, and on an error in the caller (KeyboardInterrupt
    included) the children are killed first.
    """
    workers = 1
    if threads > 1 and work >= _FORK_WORK and not _forked and hasattr(os, "fork"):
        workers = max(1, min(threads, len(items), _cpu_count()))
    if workers == 1:
        out = np.zeros(shape)
        run(items, out)
        return out
    size = int(np.prod(shape))
    out = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)
    pending, pipes = [], []  # (pid, read end) of each child not yet reaped; every read end
    try:
        for t in range(1, workers):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(run, items[t::workers], out, w)
            finally:
                os.close(w)  # before the next fork, so only its own child holds it
            pending.append((pid, r))
        run(items[::workers], out)
        errors = []
        while pending:
            errors.append(_reap(*pending[0]))
            del pending[0]
    finally:
        if pending:  # the caller's share or a reap raised: kill and reap the rest
            import signal

            for pid, _ in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped just before the error
        for r in pipes:
            os.close(r)
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def _worker(run, share, out, pipe: int) -> None:
    """Run one share in a forked child and leave through ``os._exit``; never returns."""
    global _forked
    _forked = True
    code = 0
    try:
        run(share, out)
    except BaseException as exc:
        code = 1
        try:
            data = pickle.dumps(exc)
            pickle.loads(data)
        except Exception:  # any error that does not survive the round trip
            data = pickle.dumps(f"{type(exc).__name__}: {exc}")
        with open(pipe, "wb", closefd=False) as f:
            f.write(data)
    finally:
        os._exit(code)


def _reap(pid: int, pipe: int):
    """Wait for a worker child: the error it reported or died of, else None."""
    with open(pipe, "rb", closefd=False) as f:
        data = f.read()  # to end of file, so a child never blocks on a full pipe
    _, status = os.waitpid(pid, 0)
    if data:
        exc = pickle.loads(data)  # written by this program's own child
        return exc if isinstance(exc, BaseException) else ChildProcessError(exc)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return ChildProcessError(f"worker {pid} was killed by signal {-code}")
    if code:
        return ChildProcessError(f"worker {pid} exited with status {code} and no error")
    return None


def _realizes(s: float, h: float, rows, exps: tuple) -> bool:
    """Whether row m of ``rows``, at exponent s + m h, is within 2 ulp of its listed exponent."""
    return all(abs(s + m * h - exps[i]) <= 2.0 * math.ulp(exps[i]) for m, i in enumerate(rows))


@functools.lru_cache
def _ladder(exps: tuple) -> tuple:
    """Plan an exponent tuple as ladder runs ``(s, h, rows)``, in kernel order, once per tuple.

    Row ``rows[0]`` is the anchor, at exponent s; each later row m of the
    run is the row before times r^-h, so it realizes the exponent s + m h.
    h is the mean step of the run, so steps that differ by a few ulp (as on
    a rounded decimal grid) still share one step factor. A run grows while
    its step ascends (h > 0, so an inf kernel never meets a zero factor),
    it holds at most ``_RUN`` rows, and every realized exponent stays within
    2 ulp of its listed one. s = 0 never starts a run; a run of two would
    cost as many exp passes as two anchors, so it is not formed; a lone
    exponent is a run of one, with h = 0.

    An exponent within 2 ulp of the step h of a run of several rows takes
    s = h, so the kernel copies it from the step factor: the run's own
    anchor (if every row stays within 2 ulp from there), and a lone
    exponent, which becomes the run (h, h, row) just before the first run
    of step h, which then reuses the factor.
    """
    runs, i = [], 0
    while i < len(exps):
        s, j, h = exps[i], i + 1, 0.0
        for e in range(i + 2, min(len(exps), i + _RUN)):
            step = (exps[e] - s) / (e - i)
            if not (s != 0.0 and step > 0.0 and _realizes(s, step, range(i, e + 1), exps)):
                break
            j, h = e + 1, step
        if h and _realizes(h, h, range(i, j), exps):
            s = h
        runs.append((s, h, range(i, j)))
        i = j
    lone = {h: [] for _, h, rows in runs if h}  # each step and the lone rows it serves
    plan = []
    for s, h, rows in runs:
        step = None if h else next((g for g in lone if _realizes(g, 0.0, rows, exps)), None)
        if step is not None:
            lone[step].append((step, step, rows))
        else:
            plan.append((s, h, rows))
    return tuple(x for run in plan for x in (*lone.pop(run[1], ()), run))


def _strip_sums(a, b, runs, weight, out, corner, bufs=None) -> None:
    """Write the kernel sums of the rows of the strip ``_tile(a, b)`` to ``out`` (S x rows).

    ``bufs`` are the walk's buffers (fresh ones when None): the tile, then
    the kernel and the step factor.

    ``corner`` is None when every value of the strip is a pair. Otherwise it
    is a bool mask laid on the strip's bottom-right corner, True where a
    value is skipped: the pairs j >= k of a prefix strip's diagonal block,
    or the second half of the last fold row of an even cloud. A row sum is
    one ``einsum`` reduction of its row, whose bits depend on that row alone
    (a BLAS product with a ones vector groups rows by fours, so its bits
    would depend on the strip). A run whose step h equals the one before
    reuses its step factor, and an anchor s equal to the step whose factor
    E holds copies its first kernel from E instead of taking a second,
    identical exp. Every L is finite (a skipped or zero-weight value has
    L = 0), so at s = 0 the kernel is exactly 1 and the sums are the exact
    pair counts or weight sums.
    """
    bufs = bufs or _buffers(a.shape[1] * b.shape[1])
    d2 = _tile(a, b, bufs=bufs)
    if corner is not None:
        at = np.s_[-corner.shape[0] :, -corner.shape[1] :]
        np.copyto(d2[at], 1.0, where=corner)  # skipped: log 1 is 0
    w = None
    if weight is not None:
        w = weight(_distances(d2.copy(), a, b))
        if corner is not None:
            np.copyto(w[at], 0.0, where=corner)
    L = _distances(d2, a, b, log=True)
    if w is not None:
        L[w == 0.0] = 0.0  # a zero weight must not meet an infinite kernel
    # buffers 1 and 2 are free once the tile is built: the kernel and the step factor
    K, E = (buf[: L.size].reshape(L.shape) for buf in bufs[1:])
    step = None  # the h whose step factor E holds
    for s, h, rows in runs:
        if h and h != step:
            # a skipped or zero-weight pair has L = 0, so E = 1 keeps its 0
            np.multiply(L, -0.5 * h, out=E)
            np.exp(E, out=E)
            step = h
        if s == step:  # E holds the anchor's kernel (dim's default grid starts at its step)
            np.copyto(K, E)
        else:
            np.multiply(L, -0.5 * s, out=K)
            np.exp(K, out=K)
        if w is not None:
            K *= w
        elif corner is not None:
            np.copyto(K[at], 0.0, where=corner)
        np.einsum("ij->i", K, out=out[rows[0]])
        for i in rows[1:]:
            K *= E
            np.einsum("ij->i", K, out=out[i])


def _sum_strips(strips, bufs, runs, weight, out) -> np.ndarray:
    """out[:, r0:r1] = :func:`_strip_sums` of each strip of a walk, on its buffers; returns out."""
    for a, b, r0, r1, corner, _ in strips:
        _strip_sums(a, b, runs, weight, out[:, r0:r1], corner, bufs)
    return out


def _sums(walk, width, exps, threads, weight):
    """:func:`_sum_strips` of a walk ``(strips, bufs)`` into a zeroed S x ``width`` array.

    The strips are dealt to ``threads`` workers by :func:`_deal`; a forked
    worker sums its share on its own copy of the walk's buffers. A pair
    costs about 1 ns per exponent plus 8 ns for its tile, log and first exp.
    """
    strips, bufs = walk
    runs = _ladder(tuple(float(s) for s in exps))

    def run(share, out):
        with np.errstate(over="ignore"):
            _sum_strips(share, bufs, runs, weight, out)

    work = sum((r1 - r0) * b.shape[1] for _, b, r0, r1, _, _ in strips) * (len(exps) + 8)
    return _deal(run, strips, (len(exps), width), threads, work)


def _row_sums(pts, exps, *, threads=1):
    """R[i, k] = sum_{j<k} r^{-exps[i]}, r = |x_k - x_j|, shape (S, n).

    Walks the prefix strips of ``cloud._row_blocks``. Raises DuplicatePoints
    on a zero distance.
    """
    return _sums(_walk(pts, "prefix"), pts.shape[0], exps, threads, None)


def _fold_sums(pts, exps, *, threads=1, weight=None):
    """F[i, δ - 1] = sum over fold row δ of weight(r) * r^{-exps[i]}, shape (S, n // 2).

    Walks the fold strips of ``cloud._fold_blocks``, so every unordered pair
    is summed once, in no prefix order: fsum(F[i]) is the pair total. Each
    fold row is summed on its own, so F does not depend on the strips.
    """
    return _sums(_walk(pts, "fold"), pts.shape[0] // 2, exps, threads, weight)


def _fold_energies(clouds, s_list, *, threads: int = 1) -> np.ndarray:
    """J_s of each cloud of ``clouds`` for each exponent, shape (S, len(clouds)), on one plan.

    The ladder runs and the error state are set up once per call, and the
    strip buffers and one (S, n // 2) row-sum buffer once per cloud size:
    each cloud's fold walk takes over the buffers of the walk before it.
    Each cloud sums its fold strips (dealt to ``threads`` workers by
    :func:`_sums` when threads > 1), and each J_s is the fsum of its fold-row
    sums over the n(n-1)/2 pairs: the bits of that cloud alone.
    """
    if any(cloud.n < 2 for cloud in clouds):
        raise TooFewPoints("discrete energy needs at least 2 points")
    _check_exponents(s_list)
    runs = _ladder(tuple(float(s) for s in s_list))
    out = np.empty((len(s_list), len(clouds)))
    n = bufs = None
    with np.errstate(over="ignore"):
        for j, cloud in enumerate(clouds):
            if cloud.n != n:
                n, bufs = cloud.n, None
                buf = np.empty((len(s_list), n // 2))
            walk = _walk(cloud.points, "fold", bufs=bufs)
            strips, bufs = walk
            if threads > 1:
                F = _sums(walk, n // 2, s_list, threads, None)
            else:
                F = _sum_strips(strips, bufs, runs, None, buf)
            out[:, j] = [_fsum(row) / (n * (n - 1) // 2) for row in F]
    return out


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
    valid cloud. The one-exponent case of :func:`discrete_energy_multi`.
    """
    return float(discrete_energy_multi(cloud, [s], threads=threads)[0])


def discrete_energy_multi(cloud: PointCloud, s_list, *, threads: int = 1) -> np.ndarray:
    """J_s for several exponents with a single distance pass.

    Each value is fsum(R_s) / (n(n-1)/2), the mean over unordered pairs; a
    sum that overflows gives inf.
    """
    return _fold_energies([cloud], s_list, threads=threads)[:, 0]


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

    For constructions whose members are not prefixes of a common sequence,
    the profile column at n is the energy of the whole n-point member. The
    1-D grids, the dyadic lattices and the Cantor levels have a closed form
    in :mod:`rieszdim.families`.
    """
    n_grid = [c.n for c in clouds]
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    values = _fold_energies(clouds, s_grid, threads=threads)
    return EnergyProfile(tuple(s_grid), tuple(n_grid), values)


def riesz_potential_discrete(cloud: PointCloud, x, s: float) -> float:
    """Riesz potential (1/n) * sum_i |x - x_i|^{-s} of the counting measure.

    Returns math.inf when x coincides with a cloud point and s > 0. A
    non-finite x is refused with ValueError, as a cloud refuses one.
    """
    _check_exponents([s])
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != cloud.dim:
        raise DimensionMismatch(
            f"point has dim {x.shape[0]}, cloud has dim {cloud.dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite (no NaN/inf)")
    if s == 0.0:
        return 1.0
    strips, bufs = _walk(cloud.points, "point", x)
    with np.errstate(over="ignore"):
        try:
            kernels = [np.exp(-0.5 * s * _distances(_tile(a, b, bufs=bufs), a, b, log=True)[0])
                       for a, b, *_ in strips]
        except DuplicatePoints:
            return math.inf
        return _fsum(np.concatenate(kernels)) / cloud.n


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
