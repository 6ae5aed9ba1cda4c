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

from .cloud import PointCloud
from .energy import discrete_energy, riesz_potential_discrete
from .errors import SizeCapExceeded, TargetUnreachable

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

DEFAULT_MAX_POINTS = 100_000

# Kronecker rotation constants for the circle fillings: golden ratio
# conjugate for the full circle, sqrt(2)-1 for the semicircle stream.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQ2 = math.sqrt(2.0) - 1.0


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


@dataclass(frozen=True)
class CantorFactor:
    """One coordinate factor: keep ``kept`` of n sub-intervals, m = len(kept)."""

    m: int
    n: int
    kept: tuple = ()

    def __post_init__(self):
        kept = tuple(int(i) for i in self.kept) if self.kept else spread_kept(self.m, self.n)
        object.__setattr__(self, "kept", kept)
        if not 0 < self.m < self.n:
            raise ValueError("factor needs 0 < m < n")
        if len(kept) != self.m:
            raise ValueError("kept must list exactly m interval indices")
        if any(b <= a for a, b in zip(kept, kept[1:])):
            raise ValueError("kept indices must be strictly increasing")
        if kept[0] < 0 or kept[-1] >= self.n:
            raise ValueError("kept indices must lie in [0, n)")


def spread_kept(m: int, n: int) -> tuple:
    """Evenly spread kept indices including both ends (middle-thirds style)."""
    if m == 1:
        return (0,)
    return tuple(round(i * (n - 1) / (m - 1)) for i in range(m))


@dataclass(frozen=True)
class CantorSpec:
    """Product Cantor construction: one factor per coordinate, common level."""

    factors: tuple
    level: int

    def __post_init__(self):
        factors = tuple(
            f if isinstance(f, CantorFactor) else CantorFactor(*f)
            for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("at least one factor required")
        if self.level < 1:
            raise ValueError("level must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.factors)


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
    """Level-``level`` endpoints as (value, first_level) sorted by level then value."""
    sets = _factor_levels(factor, level)
    n = factor.n
    denom = n**level
    entries = []
    for e in sorted(sets[-1]):
        first = level
        for j in range(1, level):
            scale = n ** (level - j)
            if e % scale == 0 and (e // scale) in sets[j - 1]:
                first = j
                break
        entries.append((e / denom, first))
    entries.sort(key=lambda t: (t[1], t[0]))
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
    counts = []
    for f in spec.factors:
        counts.append([len(s) for s in _factor_levels(f, spec.level)])
    sizes = []
    for j in range(spec.level):
        size = 1
        for c in counts:
            size *= c[j]
        sizes.append(size)
    return sizes


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
        if self.s <= 0:
            raise ValueError("exponent s must be positive")
        if not self.targets or any(e <= 0 for e in self.targets):
            raise ValueError("targets must be positive")
        if not 0 < self.tolerance <= 1e-3:
            raise ValueError("tolerance must lie in (0, 1e-3]")


def _direction(d: int, index: int) -> np.ndarray:
    if d == 1:
        return np.array([1.0])
    angle = 2.0 * math.pi * ((index * _PHI) % 1.0)
    u = np.zeros(d)
    u[0] = math.cos(angle)
    u[1] = math.sin(angle)
    return u


def energy_sequence_points(
    spec: EnergyTargetSpec,
    d: int,
    *,
    max_doublings: int = 60,
    max_bisections: int = 80,
):
    """Build a sequence whose prefix energies hit the given targets.

    Inductive construction: x_1 at the origin, x_2 at distance e_1^{-1/s}.
    For each later target, far points are appended while even the far-point
    limit ((n-1)/(n+1)) J stays at or above the target; then one point is
    placed on a fresh segment toward x_1 and located by bracketing plus
    bisection, using the intermediate value of J along the segment. Each
    candidate is scored in O(n) from the current J and its potential; each
    appended point takes one full energy. Returns (cloud, checkpoints) where
    checkpoints list (prefix size, achieved J).
    """
    if d < 1:
        raise ValueError("ambient dimension must be >= 1")
    if spec.s > d:
        raise ValueError("exponent must satisfy 0 < s <= d")
    s = spec.s
    tol = spec.tolerance
    pts = [np.zeros(d)]
    pts.append(pts[0] + spec.targets[0] ** (-1.0 / s) * _direction(d, 0))
    cur = _energy(pts, s)
    checkpoints = [(2, cur)]
    dir_index = 1
    for e_next in spec.targets[1:]:
        n = len(pts)
        # Decay loop: append far points while even the far limit cannot
        # drop below the target.
        while (n - 1) / (n + 1) * cur >= e_next:
            pts.append(_far_point(pts, cur, s, dir_index, max_doublings))
            dir_index += 1
            n = len(pts)
            cur = _energy(pts, s)
        pts.append(_slide_point(pts, cur, s, e_next, dir_index, tol, max_doublings, max_bisections))
        dir_index += 1
        cur = _energy(pts, s)
        if abs(cur - e_next) > tol * e_next:
            raise TargetUnreachable(
                f"achieved J={cur!r} misses target {e_next!r} beyond tolerance"
            )
        checkpoints.append((len(pts), cur))
    return PointCloud(np.array(pts)), checkpoints


def _energy(pts, s) -> float:
    return discrete_energy(PointCloud(np.array(pts), _validate=False), s)


def _extent(pts) -> float:
    arr = np.array(pts)
    return float(np.max(np.linalg.norm(arr, axis=1))) if len(pts) else 0.0


def _energy_with(cloud, cur, s, candidate) -> float:
    """J of ``cloud`` plus one candidate point, given J(cloud) = cur, in O(n).

    J_{n+1} = (n(n-1) J_n + 2n U) / ((n+1) n), with U the cloud's potential
    at the candidate.
    """
    n = cloud.n
    return ((n - 1) * cur + 2.0 * riesz_potential_discrete(cloud, candidate, s)) / (n + 1)


def _far_point(pts, cur, s, dir_index, max_doublings) -> np.ndarray:
    """A point far enough that it barely perturbs J beyond the drop factor."""
    d = pts[0].shape[0]
    u = _direction(d, dir_index)
    n = len(pts)
    limit = (n - 1) / (n + 1) * cur
    cloud = PointCloud(np.array(pts), _validate=False)
    t = _extent(pts) + 1.0
    for _ in range(max_doublings):
        cand = t * u
        val = _energy_with(cloud, cur, s, cand)
        if val - limit <= 1e-9 * limit:
            return cand
        t *= 2.0
    raise TargetUnreachable("far-point search exhausted its doubling budget")


def _slide_point(pts, cur, s, target, dir_index, tol, max_doublings, max_bisections):
    """Place a point on a ray toward x_1 so that J equals ``target``.

    J is continuous on the open segment between the nearest obstruction and
    infinity, tends to the far limit (< target) outward and to infinity
    inward, so a bracket always exists.
    """
    d = pts[0].shape[0]
    u = _direction(d, dir_index)
    cloud = PointCloud(np.array(pts), _validate=False)
    # Innermost approachable parameter along the ray: origin in general
    # position, or just outside the outermost collinear point in d = 1.
    t_min = 0.0
    if d == 1:
        on_ray = [float(p @ u) for p in pts if float(p @ u) > 0]
        t_min = max(on_ray) if on_ray else 0.0
    t_hi = _extent(pts) + 1.0
    for _ in range(max_doublings):
        if _energy_with(cloud, cur, s, t_hi * u) < target:
            break
        t_hi *= 2.0
    else:
        raise TargetUnreachable("outward bracket search exhausted doublings")
    t_lo = t_min + (t_hi - t_min) / 2.0
    for _ in range(200):
        if _energy_with(cloud, cur, s, t_lo * u) > target:
            break
        t_lo = t_min + (t_lo - t_min) / 2.0
    else:
        raise TargetUnreachable("inward bracket search failed to exceed target")
    best = None
    for _ in range(max_bisections):
        t_mid = 0.5 * (t_lo + t_hi)
        val = _energy_with(cloud, cur, s, t_mid * u)
        if abs(val - target) <= 0.25 * tol * target:
            best = t_mid
            break
        if val > target:
            t_lo = t_mid
        else:
            t_hi = t_mid
    if best is None:
        best = 0.5 * (t_lo + t_hi)
        if abs(_energy_with(cloud, cur, s, best * u) - target) > tol * target:
            raise TargetUnreachable(
                "bisection exhausted its iteration budget before the tolerance"
            )
    return best * u
