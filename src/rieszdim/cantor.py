"""Cantor product constructions: their specs, level sizes and closed-form profile.

A factor keeps m of n equal sub-intervals at every level; a product spec
takes one factor per coordinate and a common level. ``generators`` builds
the points of a construction; this module counts its levels and, when every
factor keeps both end intervals, sums the energy of each whole level in
closed form through the engine of ``rieszdim.families``. It loads neither
the point clouds nor the pair engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import EnergyProfile, _check_grids, _check_terms, _profile, _weights

__all__ = ["CantorFactor", "CantorSpec", "cantor_profile", "spread_kept"]


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

    @property
    def keeps_ends(self) -> bool:
        """Whether both end intervals are kept, so every level's endpoints hold the last level's."""
        return self.kept[0] == 0 and self.kept[-1] == self.n - 1


def _factor_tuple(factors) -> tuple:
    """``factors`` as a non-empty tuple of CantorFactor; other entries are (m, n[, kept])."""
    factors = tuple(f if isinstance(f, CantorFactor) else CantorFactor(*f) for f in factors)
    if not factors:
        raise ValueError("at least one factor required")
    return factors


def _factor_from_json(doc: dict) -> CantorFactor:
    """A factor from its JSON form ``{"m": m, "n": n, "kept": [...]}``; kept is optional."""
    return CantorFactor(int(doc["m"]), int(doc["n"]), tuple(doc.get("kept") or ()))


def _spec_from_json(doc: dict) -> CantorSpec:
    """A spec from its JSON form ``{"factors": [factor, ...], "level": k}``, each factor as above."""
    return CantorSpec(tuple(_factor_from_json(f) for f in doc["factors"]), int(doc["level"]))


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
        object.__setattr__(self, "factors", _factor_tuple(self.factors))
        if self.level < 1:
            raise ValueError("level must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.factors)


def _endpoint_sizes(factor, level: int) -> list:
    """|E_j| for j = 1 .. level: the level-j endpoints of a Cantor factor (any ``kept``).

    |E_j| = 2 m^j - a_j, a_j the pairs of adjacent level-j intervals, each
    sharing one endpoint: one per pair of consecutive kept indices in each
    of the m^(j-1) parents, and, when both end intervals are kept, one
    across each adjacent pair of parents.
    """
    inner = sum(1 for c in factor.kept if c + 1 in factor.kept)
    sizes, a = [], 0
    for j in range(1, level + 1):
        a = inner * factor.m ** (j - 1) + (a if factor.keeps_ends else 0)
        sizes.append(2 * factor.m**j - a)
    return sizes


def _level_sizes(spec) -> list:
    """The point counts of levels 1 .. spec.level of a Cantor product construction."""
    per_factor = (_endpoint_sizes(f, spec.level) for f in spec.factors)
    return [math.prod(level) for level in zip(*per_factor)]


def _dense(counts: np.ndarray, denom: int):
    """Factor with difference counts ``counts[k]`` over ``denom``; the zero counts are no terms."""
    k = np.flatnonzero(counts)
    x, w = k / denom, _weights(k, counts[k])
    return len(k), lambda i: (x[i], w[i])


def _cantor_counts(factor, level: int):
    """Yield c_j[k], k = 0 .. n^j, for j = 1 .. level: the difference counts of the level-j endpoints E_j.

    Needs both end intervals kept. E_j is the union of the copies
    c n^(j-1) + E_(j-1) over the kept indices c (E_0 = {0, 1}), and two
    copies share one point, (c + 1) n^(j-1), exactly when c and c + 1 are
    both kept. Counted with multiplicity (X), the copies differ as E_(j-1)
    spread by the kept indices' own differences q:
    c_X(k) = sum_q c_Q(q) c_(j-1)(|k - q n^(j-1)|). With Y the shared
    points, 1_E = 1_X - 1_Y gives c_E = c_X - c_EY - c_YE - c_Y, c_EY(k)
    counting e - y = k. Level j costs O(n^j) per distinct q, and the
    corrections O(|E_j| m); never the |E_j|^2 pairs.
    """
    n, kept = factor.n, np.array(factor.kept)
    qs, cq = np.unique(np.subtract.outer(kept, kept), return_counts=True)
    shared = kept[np.isin(kept + 1, kept)] + 1
    e, c = np.array([0, 1]), np.array([2, 1])
    for j in range(1, level + 1):
        w = n ** (j - 1)  # E_(j-1) spans [0, w]
        full = np.concatenate((c[:0:-1], c))  # c_(j-1) over [-w, w]
        c = np.zeros(n * w + 1, dtype=np.int64)
        for q, count in zip(qs.tolist(), cq.tolist()):
            lo = (q - 1) * w  # where full[0] lands
            a, b = max(lo, 0), min(lo + 2 * w, n * w)
            if a <= b:
                c[a : b + 1] += count * full[a - lo : b - lo + 1]
        e = np.unique(np.add.outer(kept * w, e))
        y = shared * w
        yy = np.subtract.outer(y, y).ravel()
        c -= np.bincount(np.abs(np.subtract.outer(e, y)).ravel(), minlength=c.size)
        c -= np.bincount(yy[yy >= 0], minlength=c.size)
        c[0] -= y.size  # e = y is in both c_EY and c_YE
        yield c


def cantor_profile(spec, s_grid, n_grid, *, max_terms=None) -> EnergyProfile:
    """Energy profile of the levels of a Cantor product construction, in closed form.

    ``spec`` is a :class:`CantorSpec` whose every factor keeps both end
    intervals (ValueError otherwise), so that the prefix of
    ``generators.cantor_points(spec)`` at each level size is the product of its
    factors' level-j endpoint sets; every size must be such a level size
    (ValueError otherwise). Factors of any bases mix, each over its own
    n^j. Each distinct factor's counts are one array of n^j + 1 entries
    per level up to the largest one fitted. The terms are counted against
    ``max_terms`` once the counts are known, before any is summed.
    """
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    if not all(f.keeps_ends for f in spec.factors):
        raise ValueError("a closed-form Cantor profile needs every factor to keep both ends")
    sizes = _level_sizes(spec)
    levels = []
    for n in n_grid:
        if n not in sizes:
            raise ValueError(f"{n} points is no level of the Cantor construction")
        levels.append(sizes.index(n) + 1)
    factors = {}
    for f in set(spec.factors):
        for j, counts in enumerate(_cantor_counts(f, levels[-1]), 1):
            if j in levels:
                factors[f, j] = _dense(counts, f.n**j)
    members = [[factors[f, j] for f in spec.factors] for j in levels]
    _check_terms(sum(math.prod(size for size, _ in m) - 1 for m in members), max_terms)
    return _profile(s_grid, n_grid, members)
