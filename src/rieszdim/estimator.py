"""Dimension estimation from energy growth across prefix sizes.

A sequence of sets has bounded J_t exactly when t sits below its dimension,
so the finite-sample surrogate is the log-log growth rate of J_s(P_n) in n:
flat below the transition, strictly positive above it. The estimate is the
largest exponent whose fitted slope stays at or below a threshold, refined
by one midpoint bisection between the bracketing grid exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import NonFiniteResult, NoTransition, WindowTooSmall

if TYPE_CHECKING:
    from .families import EnergyProfile
    from .measures import MeasureSpec

__all__ = [
    "DimensionEstimate",
    "adaptability_slopes",
    "dimension_estimate",
    "default_window",
    "variance_blowup_scan",
]


@dataclass(frozen=True)
class DimensionEstimate:
    """Estimated dimension with per-exponent slope diagnostics."""

    s_hat: float
    s_grid: tuple
    slopes: tuple
    threshold: float
    window: tuple
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "s_hat": self.s_hat,
            "s_grid": list(self.s_grid),
            "slopes": list(self.slopes),
            "threshold": self.threshold,
            "window": list(self.window),
            "diagnostics": self.diagnostics,
        }


def default_window(n_grid) -> tuple:
    """Top half of the available prefix sizes, but never fewer than four."""
    take = max(4, len(n_grid) - len(n_grid) // 2)
    lo = n_grid[max(0, len(n_grid) - take)]
    return (lo, n_grid[-1])


def _fit(profile: EnergyProfile, window) -> tuple:
    if len(window) != 2:
        raise ValueError(f"window {tuple(window)} must be two prefix sizes (n_lo, n_hi)")
    n_lo, n_hi = window
    cols = [j for j, n in enumerate(profile.n_grid) if n_lo <= n <= n_hi]
    if len(cols) < 4:
        raise WindowTooSmall(
            f"window {window} holds {len(cols)} grid points, need at least 4"
        )
    n_sub = [profile.n_grid[j] for j in cols]
    for s, row in zip(profile.s_grid, profile.values):
        for v, n in zip(row[cols], n_sub):
            if not 0.0 < v < math.inf:  # 0, inf or NaN: its log would give a NaN slope
                raise NonFiniteResult(f"energy at s = {s!r}, n = {n} is {float(v)!r}; "
                                      "a slope needs finite positive energies")
    logn = np.log(n_sub)
    slopes = []
    residuals = []
    for i in range(len(profile.s_grid)):
        logj = np.log(profile.values[i, cols])
        if np.ptp(logj) == 0.0:
            # constant energies: zero growth, exactly
            slopes.append(0.0)
            residuals.append(0.0)
            continue
        coef, res = np.polyfit(logn, logj, 1, full=True)[0:2]
        slopes.append(float(coef[0]))
        residuals.append(float(res[0]) if res.size else 0.0)
    return slopes, residuals, cols


def adaptability_slopes(profile: EnergyProfile, window) -> list:
    """Least-squares slope of log J_s(P_n) against log n, per exponent.

    Requires at least four prefix sizes inside the window, and raises
    NonFiniteResult on an energy there that is 0 or inf. A slope near zero
    witnesses bounded energy at that exponent.
    """
    slopes, _, _ = _fit(profile, window)
    return list(zip(profile.s_grid, slopes))


def dimension_estimate(
    profile: EnergyProfile,
    threshold: float,
    *,
    window: Optional[tuple] = None,
    recompute=None,
) -> DimensionEstimate:
    """Largest exponent whose growth slope stays at or below the threshold.

    Scans the exponent grid in ascending order and stops at the first slope
    above the threshold. When ``recompute`` is given, one bisection pass then
    fits the slope at the bracket midpoint to halve the grid resolution.
    ``recompute(s_grid, n_grid) -> EnergyProfile`` is the builder that made
    ``profile``, as the CLI's ``dim`` passes it: a closed form of
    :mod:`rieszdim.families` such as ``grid_1d_profile`` or
    ``functools.partial(lattice_profile, d)``, or
    ``functools.partial(energy_profile, cloud, threads=...)``. It is called once,
    on the midpoint and the prefix sizes of the window, and that row is
    fitted by the same rule as the grid. The window defaults to
    :func:`default_window`; a window that is not two sizes is a ValueError.
    Raises NoTransition when every slope is on the same side of the
    threshold, and NonFiniteResult, naming s and n, when an energy it fits
    (the bisection row included) is 0 or inf.
    """
    if not 0 < threshold <= 0.2:
        raise ValueError("threshold must lie in (0, 0.2]")
    if window is None:
        window = default_window(profile.n_grid)
    slopes, residuals, cols = _fit(profile, window)
    s_grid = profile.s_grid
    first_above = None
    for i, slope in enumerate(slopes):
        if slope > threshold:
            first_above = i
            break
    if first_above is None:
        raise NoTransition("all slopes at or below the threshold; exponent grid too low")
    if first_above == 0:
        raise NoTransition("all slopes above the threshold; degenerate cloud")
    s_lo = s_grid[first_above - 1]
    s_hi = s_grid[first_above]
    refined = None
    s_hat = s_lo
    if recompute is not None:
        s_mid = 0.5 * (s_lo + s_hi)
        mid = recompute([s_mid], [profile.n_grid[j] for j in cols])
        mid_slope = _fit(mid, window)[0][0]
        refined = {"s_mid": s_mid, "slope": mid_slope}
        if mid_slope <= threshold:
            s_hat = s_mid
    tail = slopes[first_above:]
    monotone_ok = all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    diagnostics = {
        "residuals": residuals,
        "bracket": [s_lo, s_hi],
        "refined": refined,
        "slopes_monotone_after_transition": bool(monotone_ok),
    }
    return DimensionEstimate(
        s_hat=float(s_hat),
        s_grid=s_grid,
        slopes=tuple(slopes),
        threshold=threshold,
        window=tuple(window),
        diagnostics=diagnostics,
    )


def variance_blowup_scan(
    measure: MeasureSpec, s_grid, n: int, reps: int, seed: int, *, threads: int = 1
) -> list:
    """Dispersion score max(J)/median(J) over replicates, per exponent.

    The score is always >= 1. Its excess over 1 stays small while the energy
    at twice the exponent is finite (finite variance: s < d/2 for a measure
    of dimension d); past s = d/2 the excess grows with the replicate count,
    because the replicate with the closest pair dominates the maximum. The
    score itself need not become large. max/median is used because sample
    variance estimates an infinite second moment inconsistently. Raw scores
    only, no classification. Replicates are dealt to ``threads`` workers;
    the scores are bit-identical at any thread count. A score that would
    be NaN (every replicate energy inf, or every one 0) raises
    NonFiniteResult.
    """
    from .stats import _dispersion, replicate_energies  # loads measures: only this scan samples

    if reps < 50:
        raise ValueError("need reps >= 50")
    s_grid = [float(s) for s in s_grid]
    values = replicate_energies(measure, s_grid, n, reps, seed, threads=threads)
    return [(s, _dispersion(row, s, n)) for s, row in zip(s_grid, values)]
