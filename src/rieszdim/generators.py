"""Deterministic point sequence constructions.

Generators return ordered clouds whose prefixes are meaningful sets: grid
and lattice orderings interleave so every prefix is spatially spread, Cantor
products stream points level by level, and the constructive energy-target
builder realizes any positive target sequence along a subsequence of
prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import CantorFactor, CantorSpec, _level_sizes, spread_kept  # noqa: F401 (served here too)
from .cloud import PointCloud
from .energy import discrete_energy, riesz_potential_discrete
from .errors import DEFAULT_MAX_POINTS, SizeCapExceeded, TargetUnreachable

__all__ = [
    "CantorFactor",
    "CantorSpec",
    "EnergyTargetSpec",
    "DEFAULT_MAX_POINTS",
    "grid_1d",
    "lattice",
    "cantor_points",
    "cantor_prefix_sizes",
    "cantor_dimension",
    "semicircle_phase_points",
    "semicircle_phase_points_detail",
    "energy_sequence_points",
    "spread_kept",
]

# Kronecker rotation constants for the circle fillings: golden ratio
# conjugate for the full circle, sqrt(2)-1 for the semicircle stream.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQ2 = math.sqrt(2.0) - 1.0

_MAX_BISECTIONS = 80  # bisection steps toward an energy target


def grid_1d(n: int) -> PointCloud:
    """The 1-D grid {m/(n+1) : m = 1..n}, ascending."""
    if n < 2:
        raise ValueError("grid_1d needs n >= 2")
    return PointCloud((np.arange(1, n + 1) / (n + 1)).reshape(-1, 1))


def _bit_reverse(values: np.ndarray, bits: int) -> np.ndarray:
    out = np.zeros_like(values)
    for t in range(bits):
        out |= ((values >> t) & 1) << (bits - 1 - t)
    return out


def lattice(d: int, k: int, *, max_points: int = DEFAULT_MAX_POINTS) -> PointCloud:
    """Dyadic lattice {(i_1..i_d)/2^k : 0 <= i_j < 2^k} with spread prefixes.

    Points are ordered by interleaved bit-reversal (van der Corput per axis),
    so the prefix of size 2^{jd} is exactly the level-j lattice for every
    j <= k. For k = 1 this coincides with lexicographic order.
    """
    if d < 1 or k < 1:
        raise ValueError("lattice needs d >= 1 and k >= 1")
    total = 1 << (k * d)
    if total > max_points:
        raise SizeCapExceeded(f"lattice would hold {total} > {max_points} points")
    p = np.arange(total, dtype=np.int64)
    coords = np.empty((total, d))
    for axis in range(d):
        q = np.zeros(total, dtype=np.int64)
        for t in range(k):
            q |= ((p >> (t * d + (d - 1 - axis))) & 1) << t
        coords[:, axis] = _bit_reverse(q, k) / float(1 << k)
    return PointCloud(coords, _validate=False)


def _factor_levels(factor: CantorFactor, level: int):
    """Endpoint integer sets (denominator n^j) for every level j <= level."""
    lefts = [0]
    sets = []
    kept = factor.kept
    n = factor.n
    for _ in range(level):
        lefts = [left * n + c for left in lefts for c in kept]
        endpoints = set()
        for left in lefts:
            endpoints.add(left)
            endpoints.add(left + 1)
        sets.append(endpoints)
    return sets


def _factor_sequence(factor: CantorFactor, level: int):
    """Level-``level`` endpoints as (value, first_level) sorted by level then value.

    A forward walk: level j adds, in sorted order, the final endpoints it
    holds first (a level-j endpoint e is the final endpoint e n^(level-j)).
    """
    sets = _factor_levels(factor, level)
    denom = factor.n**level
    entries, left = [], sets[-1]
    for j, endpoints in enumerate(sets, 1):
        new = left & {e * factor.n ** (level - j) for e in endpoints}
        left = left - new
        entries += [(e / denom, j) for e in sorted(new)]
    return entries


def cantor_points(spec: CantorSpec, *, max_points: int = DEFAULT_MAX_POINTS) -> PointCloud:
    """Endpoint set of the level-k product Cantor construction.

    Per factor, the same ``kept`` sub-intervals survive at every level; the
    output holds all endpoints of the surviving level-k intervals, deduped
    exactly on integers over the denominator n^k before a single float
    conversion. Points stream in order of the level at which they first
    appear (lexicographic within a level), so when kept contains 0 and n-1
    the prefix at each level boundary is exactly the level-j endpoint set.
    """
    seqs = [_factor_sequence(f, spec.level) for f in spec.factors]
    total = 1
    for seq in seqs:
        total *= len(seq)
        if total > max_points:
            raise SizeCapExceeded(
                f"cantor product would hold more than {max_points} points"
            )
    values = [np.array([v for v, _ in seq]) for seq in seqs]
    levels = [np.array([lv for _, lv in seq]) for seq in seqs]
    grids = np.meshgrid(*values, indexing="ij")
    lvls = np.meshgrid(*levels, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    level = np.stack([g.ravel() for g in lvls], axis=1).max(axis=1)
    order = np.lexsort(tuple(coords[:, i] for i in range(coords.shape[1] - 1, -1, -1)) + (level,))
    return PointCloud(coords[order], _validate=False)


def cantor_prefix_sizes(spec: CantorSpec) -> list:
    """Product sizes at each level boundary (prefix sizes of cantor_points)."""
    return _level_sizes(spec)


def cantor_dimension(spec: CantorSpec) -> float:
    """Hausdorff dimension of the limit product: sum of ln(m)/ln(n)."""
    return float(sum(math.log(f.m) / math.log(f.n) for f in spec.factors))


def _in_arc(theta: float, lo: float, width: float) -> bool:
    return (theta - lo) % (2.0 * math.pi) < width


def _harmonic(p: int) -> float:
    return sum(1.0 / j for j in range(1, p + 1))


def semicircle_phase_points_detail(num_phases: int, points_per_phase: int):
    """Phased circle construction; returns (cloud, phase boundary indices).

    Alternates one point from a uniform filling of the whole circle with one
    from a uniform filling of a semicircle whose center sits at the partial
    harmonic sum H_p. During phase p >= 1 any point destined for the wedge
    the semicircle leaves behind is rotated by pi into the wedge it gains.
    A phase ends when its point budget is spent or when, checked after every
    pair, the empirical mass of the gained wedge stops approaching its
    target.
    """
    if num_phases < 1:
        raise ValueError("need at least one phase")
    if points_per_phase < 2 or points_per_phase % 2:
        raise ValueError("points_per_phase must be even and >= 2")
    angles = []
    boundaries = []
    seen = set()

    def place(theta: float) -> None:
        # The circle and semicircle fillings can land on the same point
        # (both start at angle 0); nudge deterministically until distinct.
        pt = (math.cos(theta), math.sin(theta))
        while pt in seen:
            theta += 2.0**-30
            pt = (math.cos(theta), math.sin(theta))
        seen.add(pt)
        angles.append(theta)

    kx = ky = 0
    in_a2 = 0
    for p in range(num_phases):
        h_prev = _harmonic(p - 1) if p >= 1 else 0.0
        h_cur = _harmonic(p)
        width = h_cur - h_prev if p >= 1 else 0.0
        a1_lo = h_prev - math.pi / 2.0
        a2_lo = h_prev + math.pi / 2.0
        target = 3.0 * width / (4.0 * math.pi)
        best_err = math.inf
        if p >= 1:
            in_a2 = sum(1 for t in angles if _in_arc(t, a2_lo, width))
        for _ in range(points_per_phase // 2):
            tx = 2.0 * math.pi * ((kx * _PHI) % 1.0)
            kx += 1
            psi = ((ky * _SQ2 + 0.5) % 1.0) - 0.5
            ky += 1
            ty = h_prev + math.pi * psi
            if p >= 1:
                if _in_arc(tx, a1_lo, width):
                    tx += math.pi
                if _in_arc(ty, a1_lo, width):
                    ty += math.pi
            place(tx)
            place(ty)
            if p >= 1:
                in_a2 += int(_in_arc(tx, a2_lo, width)) + int(_in_arc(ty, a2_lo, width))
                err = abs(in_a2 / len(angles) - target)
                # One pair can move the mass by 2/len(angles) either way;
                # only a worsening beyond that quantum counts as "no longer
                # getting closer".
                if err - best_err > 2.0 / len(angles):
                    break
                best_err = min(best_err, err)
        boundaries.append(len(angles))
    theta = np.array(angles)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return PointCloud(pts), boundaries


def semicircle_phase_points(num_phases: int, points_per_phase: int) -> PointCloud:
    """Phased circle construction (see the detail variant for boundaries)."""
    return semicircle_phase_points_detail(num_phases, points_per_phase)[0]


@dataclass(frozen=True)
class EnergyTargetSpec:
    """Positive energy targets e_k to realize along prefixes, at exponent s."""

    s: float
    targets: tuple
    tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(float(e) for e in self.targets))
        if not 0 < self.s < math.inf:
            raise ValueError("exponent s must be finite and positive")
        if not self.targets or not all(0 < e < math.inf for e in self.targets):
            raise ValueError("targets must be finite and positive")
        if not 0 < self.tolerance <= 1e-3:
            raise ValueError("tolerance must lie in (0, 1e-3]")


def _target_spec_from_json(doc: dict) -> EnergyTargetSpec:
    """A spec from its JSON form ``{"s": s, "targets": [...], "tolerance": t}``; tolerance may be omitted."""
    tolerance = doc.get("tolerance")
    return EnergyTargetSpec(float(doc["s"]), doc["targets"],
                            EnergyTargetSpec.tolerance if tolerance is None else float(tolerance))


def _direction(d: int, index: int) -> np.ndarray:
    if d == 1:
        return np.array([1.0])
    angle = 2.0 * math.pi * ((index * _PHI) % 1.0)
    u = np.zeros(d)
    u[0] = math.cos(angle)
    u[1] = math.sin(angle)
    return u


def energy_sequence_points(
    spec: EnergyTargetSpec, d: int, *, max_points: int = DEFAULT_MAX_POINTS
):
    """Build a sequence whose prefix energies hit the given targets.

    Inductive construction: x_1 at the origin, x_2 at distance e_1^{-1/s}.
    A point x appended to n points gives J' = ((n-1) J + 2 U) / (n+1), U the
    cloud's potential at x, so J' = e where U = ((n+1) e - (n-1) J) / 2. For
    each later target e, far points are appended while that U is not
    positive (even the far limit ((n-1)/(n+1)) J stays at or above e); then
    one slide point is placed where U takes it. Both are placed from
    closed-form bounds on U, and each candidate is scored in O(n), so N
    points cost O(N^2) kernels. One full energy is taken per target, at its
    checkpoint, for the tolerance check and the recorded J. A point that
    would pass ``max_points`` raises SizeCapExceeded before it is placed,
    and one whose place leaves the double range raises TargetUnreachable.
    Returns (cloud, checkpoints) where checkpoints list (prefix size, J).
    """
    if d < 1:
        raise ValueError("ambient dimension must be >= 1")
    if spec.s > d:
        raise ValueError("exponent must satisfy 0 < s <= d")

    def check_cap(count):
        if count > max_points:
            raise SizeCapExceeded(f"energy sequence would hold more than {max_points} points")

    s = spec.s
    tol = spec.tolerance
    check_cap(2)
    gap = _offset(spec.targets[0], s, f"first target {spec.targets[0]!r}: the gap e_1^(-1/s)")
    cloud = PointCloud([np.zeros(d), gap * _direction(d, 0)], _validate=False)
    cur = discrete_energy(cloud, s)
    checkpoints = [(2, cur)]
    dir_index = 1
    for e_next in spec.targets[1:]:
        # Decay loop: append far points while the potential a new point
        # needs is not positive, that is while even the far limit cannot
        # drop below the target.
        while (need := ((cloud.n + 1) * e_next - (cloud.n - 1) * cur) / 2.0) <= 0.0:
            check_cap(cloud.n + 1)
            x, cur = _far_point(cloud, cur, s, dir_index)
            cloud = _append(cloud, x)
            dir_index += 1
        check_cap(cloud.n + 1)
        cloud = _append(cloud, _slide_point(cloud, cur, s, need, e_next, dir_index, tol))
        dir_index += 1
        cur = discrete_energy(cloud, s)
        if abs(cur - e_next) > tol * e_next:
            raise TargetUnreachable(
                f"achieved J={cur!r} misses target {e_next!r} beyond tolerance"
            )
        checkpoints.append((cloud.n, cur))
    return PointCloud(cloud.points), checkpoints


def _append(cloud, x) -> PointCloud:
    return PointCloud(np.vstack((cloud.points, x)), _validate=False)


def _energy_with(cloud, cur, s, candidate) -> float:
    """J of ``cloud`` plus one candidate point, given J(cloud) = cur, in O(n).

    J_{n+1} = (n(n-1) J_n + 2n U) / ((n+1) n), with U the cloud's potential
    at the candidate.
    """
    n = cloud.n
    return ((n - 1) * cur + 2.0 * riesz_potential_discrete(cloud, candidate, s)) / (n + 1)


def _offset(potential: float, s: float, what: str) -> float:
    """The distance r with r^-s = ``potential``; TargetUnreachable unless 0 < r < inf."""
    try:
        r = potential ** (-1.0 / s)
    except (OverflowError, ZeroDivisionError):  # r overflows, or the potential is 0
        r = math.inf
    if not 0.0 < r < math.inf:
        raise TargetUnreachable(f"{what} leaves the double range")
    return r


def _past(t0: float, r: float, what: str) -> float:
    """A finite t at least r past t0: t0 + r, or the next double when r vanishes against t0."""
    t = max(t0 + r, math.nextafter(t0, math.inf))
    if t == math.inf:
        raise TargetUnreachable(f"{what} leaves the double range")
    return t


def _extent(cloud) -> float:
    """The largest norm in the cloud; inf when it overflows."""
    with np.errstate(over="ignore"):
        return float(np.max(np.linalg.norm(cloud.points, axis=1)))


def _far_point(cloud, cur, s, dir_index):
    """A point whose J is within 1e-9 of the far limit ((n-1)/(n+1)) J, and that J.

    That needs a potential U <= 5e-10 (n-1) J. No point lies past the
    extent E, so U <= (t - E)^-s at t = E + (5e-10 (n-1) J)^(-1/s).
    """
    u = _direction(cloud.dim, dir_index)
    t = _past(_extent(cloud), _offset(5e-10 * (cloud.n - 1) * cur, s, "far point"), "far point")
    return t * u, _energy_with(cloud, cur, s, t * u)


def _slide_point(cloud, cur, s, need, target, dir_index, tol):
    """A point x = t u where the potential is ``need`` > 0, so that J hits ``target``.

    The ray starts at t0: the origin in general position; in d = 1 the
    outermost point of the side whose outermost point is nearer the origin,
    where doubles are dense. The point at t0 gives U >= (t - t0)^-s / n, and
    U <= (t - E)^-s (E the extent; t0 in d = 1), so U > need at t0 + (2 n
    need)^(-1/s) and U < need where the upper bound is need / 2. Bisection
    on log(t - t0) finds a crossing; the checkpoint's energy judges it.
    """
    if cloud.dim == 1:
        right, left = float(cloud.points.max()), -float(cloud.points.min())
        u = np.array([1.0 if right < left else -1.0])
        t0 = extent = min(right, left)
    else:
        u = _direction(cloud.dim, dir_index)
        t0, extent = 0.0, _extent(cloud)
    lo = _offset(2.0 * cloud.n * need, s, "slide point")
    if t0 + lo == t0:
        raise TargetUnreachable("slide point falls within one double of its nearest point")
    hi = _past(extent, _offset(need / 2.0, s, "slide point"), "slide point") - t0
    lo, hi = math.log(lo), math.log(hi)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        x = (t0 + math.exp(mid)) * u
        val = _energy_with(cloud, cur, s, x)
        if abs(val - target) <= 0.25 * tol * target:
            break
        if val > target:
            lo = mid
        else:
            hi = mid
    return x
