"""Energy profiles of whole members of product families, in closed form.

Each family that ``dim`` fits in closed form is a sequence of Cartesian
products of 1-D integer sets A_1 x ... x A_d, factor i over its own
denominator D_i:

* the ``grid1d`` member of n points is one factor {1..n} over n + 1;
* the level-j dyadic lattice is d factors {0..2^j - 1} over 2^j;
* level j of a Cantor construction whose factors keep both end intervals
  is the product of each factor's level-j endpoints, over n_i^j
  (``rieszdim.cantor`` counts their differences).

The ordered pairs of a member at offset v number prod_i c_i(v_i), where
c_i(k) = #{(a, b) in A_i^2 : a - b = k} counts the differences of factor
i, so for N = prod_i |A_i| points

    J_s = sum_{v != 0} prod_i c_i(v_i) |v|^-s / (N (N - 1)),
    |v|^2 = sum_i (v_i / D_i)^2.

Each c_i is even, so the sum runs over the nonnegative quadrant with weight
2 per nonzero coordinate: prod_i K_i - 1 terms for K_i distinct
differences k >= 0 of factor i, instead of N (N - 1) / 2 pairs. An
interval of m integers has K = m, so a grid or lattice member of N points
has N - 1 terms; a Cantor factor at level j has at most n^j + 1.

The terms are taken in chunks of ``_CHUNK``, each term m_v exp(-s/2 log
|v|^2) by a direct exp for every exponent, and each chunk summed by one
``np.sum``; a member's value is the ``math.fsum`` of its chunk sums. So
memory stays O(_CHUNK) beyond the Cantor factors' counts. At s = 0 every
kernel is exp(0) = 1 and the sum is the exact pair count, so J_0 is 1;
a sum that overflows is inf. This module loads neither the point clouds
nor the pair engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapExceeded, TooFewPoints, _check_exponents

__all__ = ["EnergyProfile", "grid_1d_profile", "lattice_profile"]

_CHUNK = 1 << 15  # terms per chunk, so a chunk's arrays stay in cache


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
    """The grids as lists: each non-empty and strictly ascending, valid exponents, sizes >= 2."""
    s_grid = [float(s) for s in s_grid]
    n_grid = [int(n) for n in n_grid]
    for name, grid in (("s_grid", s_grid), ("n_grid", n_grid)):
        if not grid:
            raise ValueError(f"{name} must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"{name} must be strictly ascending")
    _check_exponents(s_grid)
    if n_grid[0] < 2:
        raise TooFewPoints("prefix sizes must be at least 2")
    return s_grid, n_grid


def _check_terms(terms: int, max_terms) -> None:
    if max_terms is not None and terms > max_terms:
        raise SizeCapExceeded(f"{terms} terms exceed the cap {max_terms}")


def _weights(k: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The counts of differences k >= 0, doubled where k > 0 (the offset -k counts too)."""
    return np.where(k > 0, 2.0, 1.0) * counts


def _interval(m: int, denom: int):
    """Factor {0..m-1} over ``denom``: ``(m, part)``, part(k) the offsets k / denom and weights.

    m consecutive integers differ by k = 0 .. m-1 in m - k ordered pairs.
    """
    return m, lambda k: (k / denom, _weights(k, m - k))


def _energies(factors, exps) -> np.ndarray:
    """J_s of the member with ``factors`` (each ``(K, part)``), for each s of ``exps``.

    The terms are the offsets in C order of the K_1 x ... x K_d grid of
    factor offsets, offset 0 (no pair) weighted 0.
    """
    shape = tuple(size for size, _ in factors)
    n = math.prod(int(part(np.zeros(1, dtype=np.int64))[1][0]) for _, part in factors)
    total = math.prod(shape)
    sums = np.empty((len(exps), -(-total // _CHUNK)))  # one column per chunk
    with np.errstate(over="ignore"):
        for c, t0 in enumerate(range(0, total, _CHUNK)):
            idx = np.unravel_index(np.arange(t0, min(total, t0 + _CHUNK)), shape)
            d2, m = 0.0, 1.0
            for (_, part), k in zip(factors, idx):
                x, w = part(k)
                d2, m = d2 + x * x, m * w
            if t0 == 0:
                d2[0], m[0] = 1.0, 0.0  # offset 0: log 1 = 0 meets weight 0
            L = np.log(d2)
            K = np.empty_like(L)
            for i, s in enumerate(exps):
                np.multiply(L, -0.5 * s, out=K)
                np.exp(K, out=K)
                K *= m
                sums[i, c] = K.sum()
    return np.array([_fsum(row) for row in sums]) / (n * (n - 1))


def _fsum(values: np.ndarray) -> float:
    """Exact sum of nonnegative terms; inf once it overflows.

    ``math.fsum`` reads the float64 buffer itself, with no list of floats.
    """
    try:
        return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float)))
    except OverflowError:
        return math.inf


def _profile(s_grid, n_grid, members) -> EnergyProfile:
    """The profile whose column j is :func:`_energies` of the j-th factor list of ``members``."""
    values = np.empty((len(s_grid), len(n_grid)))
    for j, factors in enumerate(members):
        values[:, j] = _energies(factors, s_grid)
    return EnergyProfile(tuple(s_grid), tuple(n_grid), values)


def grid_1d_profile(s_grid, n_grid, *, max_terms=None) -> EnergyProfile:
    """Energy profile of the 1-D grid family {m/(n+1) : m = 1..n}, in closed form.

    The n-point grid is the one factor {1..n} over n + 1: it has n - k
    pairs at distance k/(n+1), so its n - 1 terms stand for its n(n-1)/2
    pairs; it agrees with :func:`~rieszdim.energy.profile_from_family` on
    ``grid_1d(n)`` to about 1e-15 relative. Raises the grid errors of
    ``profile_from_family``, and SizeCapExceeded, before any work, when
    the terms of all grids pass ``max_terms``.
    """
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    _check_terms(sum(n - 1 for n in n_grid), max_terms)
    return _profile(s_grid, n_grid, ([_interval(n, n + 1)] for n in n_grid))


def lattice_profile(d: int, s_grid, n_grid, *, max_terms=None) -> EnergyProfile:
    """Energy profile of the d-dimensional dyadic lattices {0..2^j - 1}^d / 2^j, in closed form.

    Every size must be a level size 2^(jd), j >= 1 (ValueError otherwise);
    that level is the prefix of that size of ``generators.lattice(d, k)``
    for every k >= j. Each member of N points has N - 1 terms, counted
    against ``max_terms`` before any work.
    """
    if d < 1:
        raise ValueError("lattice needs d >= 1")
    s_grid, n_grid = _check_grids(s_grid, n_grid)
    sides = []
    for n in n_grid:
        j = (n.bit_length() - 1) // d
        if n != 1 << (j * d):
            raise ValueError(f"{n} points is no level of the {d}-D dyadic lattice")
        sides.append(1 << j)
    _check_terms(sum(n - 1 for n in n_grid), max_terms)
    return _profile(s_grid, n_grid, ([_interval(m, m)] * d for m in sides))
