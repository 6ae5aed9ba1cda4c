"""Monte Carlo experiments on random-cloud energies.

For IID draws from a probability measure the sample energy J_s is an
unbiased estimator of the measure energy I_s at every n, concentrates as n
grows, and its single-path running values settle onto I_s. The experiments
here make each statement finite: mean-versus-oracle z-scores, exceedance
frequencies, and single growing sample paths with incremental energies.
Replicates run on counter-split streams, each drawn and summed by the worker
process it is dealt to, so reports are reproducible bit-for-bit from
(measure, s, n grid, reps, seed) at any worker count. A worker draws a
chunk of at most ``cloud._TILE`` points' worth of its clouds, from its
thread's kept generator, before it sums them on one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cloud as _cloud
from .energy import _deal, _fold_energies, energy_profile
from .errors import (
    NonFiniteResult,
    OracleUnavailable,
    TooFewPoints,
    UnsupportedVariant,
    _check_exponents,
)
from .measures import (
    MeasureSpec,
    measure_to_json,
    reference_energy,
    reference_energy_method,
    sample,
)

__all__ = [
    "ExperimentReport",
    "replicate_energies",
    "expectation_experiment",
    "wlln_exceedance",
    "slln_path",
]

@dataclass(frozen=True)
class ExperimentReport:
    """Serializable record of one statistical experiment.

    ``replicates`` holds J_s per replicate, one array per n_grid entry; it
    is kept for per-replicate output and is not part of :meth:`to_json`.
    """

    kind: str
    measure: dict
    s: float
    n_grid: tuple
    reps: int
    seed: int
    cells: tuple
    oracle: Optional[float] = None
    oracle_method: Optional[str] = None
    eps: Optional[float] = None
    replicates: tuple = field(default=(), repr=False, compare=False)

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "measure": self.measure,
            "s": self.s,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "seed": self.seed,
            "cells": [dict(c) for c in self.cells],
        }
        if self.oracle is not None:
            doc["oracle"] = None if math.isinf(self.oracle) else self.oracle
            doc["oracle_method"] = self.oracle_method
        if self.eps is not None:
            doc["eps"] = self.eps
        return doc


def replicate_energies(
    measure: MeasureSpec, s_list, n: int, reps: int, seed: int, *, threads: int = 1
) -> np.ndarray:
    """J_s per replicate, shape (len(s_list), reps).

    Replicate r draws its cloud from the seed stream jumped r blocks and
    writes only column r. The exponents and n >= 2 are checked before any
    draw or fork. The replicate indices are dealt round-robin to
    ``threads`` worker processes (below 1 runs serially) by
    ``energy._deal``. Each worker draws its share in chunks of
    max(1, ``cloud._TILE`` // n) clouds, so a chunk holds at most
    ``_TILE`` points (or one cloud), from its thread's kept generator,
    and then hands the chunk to ``energy._fold_energies``, which sums its
    clouds back to back on one plan, so the code of each loop stays in
    cache. The draws run in parallel too and the array is bit-identical to
    per-cloud ``discrete_energy_multi`` calls at any thread count and any
    chunk size. A replicate costs what its pair pass costs plus its draw,
    fold and sums: about 13 us + 0.14 us per point on one core (19 us at
    n = 40 and 55 us at n = 300, 4 exponents, d = 1).
    """
    # refused here, before any draw or fork, as the draw and the energy refuse them
    if n < 1:
        raise ValueError("count must be >= 1")
    if n < 2:
        raise TooFewPoints("discrete energy needs at least 2 points")
    _check_exponents(s_list)
    chunk = max(1, _cloud._TILE // n)

    def run(share, out):
        for c in range(0, len(share), chunk):
            reps_c = share[c : c + chunk]
            clouds = [sample(measure, n, seed, rep=r) for r in reps_c]
            out[:, reps_c] = _fold_energies(clouds, s_list)

    work = reps * (n * (n - 1) // 2 * (len(s_list) + 8) + 140 * n + 13_000)
    return _deal(run, range(reps), (len(s_list), reps), threads, work)


def _resolve_oracle(measure: MeasureSpec, s: float, oracle):
    if oracle == "auto":
        try:
            return reference_energy(measure, s), reference_energy_method(measure)
        except UnsupportedVariant as exc:
            raise OracleUnavailable(str(exc)) from exc
    if oracle is None:
        return None, None
    oracle = float(oracle)
    if math.isnan(oracle):
        raise ValueError("an explicit oracle must not be NaN")
    return oracle, "explicit"


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array, without the ``numpy.ma`` import np.median makes."""
    v = np.sort(values)
    h = len(v) // 2
    return float(v[h]) if len(v) % 2 else (float(v[h - 1]) + float(v[h])) / 2


def _dispersion(values: np.ndarray, s: float, n: int) -> float:
    """max / median of replicate energies (>= 0); NonFiniteResult where it would be NaN."""
    top, mid = float(values.max()), _median(values)
    if top == mid and mid in (0.0, math.inf):
        raise NonFiniteResult(f"max/median of J_s at s={s}, n={n} is {top}/{mid}, which is NaN")
    return top / mid if mid else math.inf


def _mean_se(values: np.ndarray, s: float, n: int) -> tuple:
    """Mean and standard error of replicate energies; NonFiniteResult once a value is infinite."""
    mean = float(values.mean())
    if math.isinf(mean):
        raise NonFiniteResult(
            f"J_s at s={s}, n={n} is infinite in some replicate, so its standard error is NaN"
        )
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def expectation_experiment(
    measure: MeasureSpec,
    s: float,
    n: int,
    reps: int,
    seed: int,
    *,
    oracle="auto",
    threads: int = 1,
) -> ExperimentReport:
    """Mean and standard error of J_s over replicates, with oracle z-score.

    ``oracle`` is "auto" (use the reference energy, error if unavailable),
    an explicit value, or None to waive the comparison. A replicate energy
    that is inf makes the standard error NaN: it raises NonFiniteResult.
    """
    if reps < 30:
        raise ValueError("need reps >= 30")
    ref, method = _resolve_oracle(measure, s, oracle)
    values = replicate_energies(measure, [s], n, reps, seed, threads=threads)[0]
    mean, se = _mean_se(values, s, n)
    cell = {"n": n, "mean": mean, "se": se, "dispersion": _dispersion(values, s, n)}
    if ref is not None and not math.isinf(ref):
        cell["z"] = (mean - ref) / se if se > 0 else 0.0
    return ExperimentReport(
        kind="expectation",
        measure=measure_to_json(measure),
        s=s,
        n_grid=(n,),
        reps=reps,
        seed=seed,
        cells=(cell,),
        oracle=ref,
        oracle_method=method,
        replicates=(values,),
    )


def wlln_exceedance(
    measure: MeasureSpec,
    s: float,
    eps: float,
    n_grid,
    reps: int,
    seed: int,
    *,
    oracle="auto",
    threads: int = 1,
) -> ExperimentReport:
    """Empirical frequency of |J_s - I_s| > eps per sample size.

    The reference energy must be finite; experiments against an infinite
    oracle are refused rather than approximated.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be ascending with at least 3 values")
    ref, method = _resolve_oracle(measure, s, oracle)
    if ref is None or math.isinf(ref):
        raise OracleUnavailable("exceedance experiment needs a finite oracle")
    cells = []
    replicates = []
    for n in n_grid:
        values = replicate_energies(measure, [s], n, reps, seed, threads=threads)[0]
        replicates.append(values)
        mean, se = _mean_se(values, s, n)
        rate = float(np.mean(np.abs(values - ref) > eps))
        cells.append(
            {"n": n, "rate": rate, "mean": mean, "se": se, "dispersion": _dispersion(values, s, n)}
        )
    return ExperimentReport(
        kind="wlln",
        measure=measure_to_json(measure),
        s=s,
        n_grid=tuple(n_grid),
        reps=reps,
        seed=seed,
        cells=tuple(cells),
        oracle=ref,
        oracle_method=method,
        eps=eps,
        replicates=tuple(replicates),
    )


def slln_path(measure: MeasureSpec, s: float, n_max: int, seed: int, *, threads: int = 1):
    """One growing sample path: running J_s for every prefix of one draw.

    Draws x_1..x_{n_max} once and keeps the energy profile at every prefix
    (one distance pass, O(n) work per added point). Returns a list of
    (n, J_s(P_n)) for n >= 2.
    """
    if n_max < 100:
        raise ValueError("need n_max >= 100")
    cloud = sample(measure, n_max, seed)
    prof = energy_profile(cloud, [s], range(2, n_max + 1), threads=threads)
    return list(zip(prof.n_grid, prof.values[0].tolist()))
