"""Seeded inputs and reference outputs for the benchmark's workloads.

Runs as a process of its own, before any invocation is timed:

    python3 perfbench/reference.py WORKLOAD SEED SIZE_JSON WORKDIR CACHEDIR

It writes the workload's input CSV (if it has one) into WORKDIR and prints
one JSON object: the input path and record (file, sha256, n, d), the
reference output, and the numpy/scipy versions. The reference is computed
with numpy/scipy code of its own, never by importing rieszdim, and cached
per workload, size and seed in CACHEDIR.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial.distance import cdist, pdist

from workloads import DIM_THRESHOLD, SAMPLE_S_MAX, SLOPE_TOL, VARSCAN_S, pairs

# Bump when a reference computation changes, so cached references are
# recomputed instead of reused.
REFERENCE_VERSION = 2

# ---------------------------------------------------------------- inputs


def write_cloud_csv(path: Path, points: np.ndarray) -> dict:
    """Write the point CSV format (``# dim=`` header, 17 significant digits).

    Returns the input record: file name, sha256 of the bytes, n and d.
    """
    buf = io.StringIO()
    buf.write(f"# dim={points.shape[1]}\n")
    np.savetxt(buf, points, delimiter=",", fmt="%.17g")
    data = buf.getvalue().encode("utf-8")
    path.write_bytes(data)
    return {
        "file": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "n": int(points.shape[0]),
        "d": int(points.shape[1]),
    }


def iid_square_cloud(seed: int, n: int) -> np.ndarray:
    """n IID uniform points in the unit square: generic, no repeated distances."""
    return np.random.default_rng([seed, 2]).random((n, 2))


def kronecker_square_cloud(seed: int, n: int) -> np.ndarray:
    """The R2 Kronecker sequence k * (1/g, 1/g^2) mod 1, shifted by a seeded offset.

    Equidistributed in the unit square and well separated, so its prefix
    energies show the dimension-2 transition on every seed. IID draws do
    not: at n = 3000 the closest pair often appears early and `dim` then
    finds no slope above the threshold (NoTransition) on some seeds.
    """
    g = 1.32471795724474602596  # plastic number, the real root of g^3 = g + 1
    shift = np.random.default_rng([seed, 1]).random(2)
    return np.mod(shift + np.arange(1, n + 1)[:, None] * np.array([1 / g, 1 / g**2]), 1.0)


CLOUDS = {"dim-sample": kronecker_square_cloud, "distset": iid_square_cloud}

# ------------------------------------------------------------ references


def _s_grid(s_min: float, s_max: float, step: float) -> list:
    count = int(round((s_max - s_min) / step)) + 1
    return [round(s_min + k * step, 10) for k in range(count)]


def _doubling_grid(n: int, lo: int) -> list:
    grid = []
    v = lo
    while v < n:
        grid.append(v)
        v *= 2
    grid.append(n)
    return sorted(set(grid))


def _window(n_grid: list) -> tuple:
    take = max(4, len(n_grid) - len(n_grid) // 2)
    return n_grid[len(n_grid) - take], n_grid[-1]


def _slope(n_sub, energies) -> float:
    logj = np.log(energies)
    if np.ptp(logj) == 0.0:
        return 0.0
    return float(np.polyfit(np.log(n_sub), logj, 1)[0])


def _estimate(s_grid, n_grid, energies_at) -> dict:
    """Slope-threshold dimension estimate with one bisection step.

    ``energies_at(s_list, n_list)`` returns J with shape (len(s), len(n)).
    """
    lo, hi = _window(n_grid)
    n_sub = [n for n in n_grid if lo <= n <= hi]
    table = energies_at(s_grid, n_sub)
    slopes = [_slope(n_sub, row) for row in table]
    above = [i for i, v in enumerate(slopes) if v > DIM_THRESHOLD]
    if not above or above[0] == 0:
        raise ValueError("no slope transition on this input")
    i = above[0]
    s_mid = 0.5 * (s_grid[i - 1] + s_grid[i])
    mid_slope = _slope(n_sub, energies_at([s_mid], n_sub)[0])
    s_hat = s_mid if mid_slope <= DIM_THRESHOLD else s_grid[i - 1]
    near = [v for v in slopes + [mid_slope] if abs(v - DIM_THRESHOLD) < SLOPE_TOL]
    return {
        "s_grid": s_grid,
        "n_grid": n_grid,
        "slopes": slopes,
        "s_hat": s_hat,
        "ambiguous": bool(near),
        "bisection_n": n_sub,
    }


def _prefix_energies(points: np.ndarray, s_list, n_list) -> np.ndarray:
    """J_s of the first m points for every s and every m in n_list."""
    s = np.asarray(s_list, dtype=float)
    totals = np.zeros(len(s))
    out = np.empty((len(s), len(n_list)))
    start = 0
    for j, m in enumerate(n_list):
        # pairs (a, b) with start <= b < m and a < b, in bands of rows b
        for b0 in range(start, m, 512):
            b1 = min(m, b0 + 512)
            d2 = cdist(points[b0:b1], points[:b1], "sqeuclidean")
            rows = np.arange(b0, b1)[:, None]
            logd2 = np.log(d2[np.arange(b1)[None, :] < rows])
            totals += np.exp(-0.5 * s[:, None] * logd2[None, :]).sum(axis=1)
        start = m
        out[:, j] = 2.0 * totals / (m * (m - 1))
    return out


def _grid_energies(s_list, n_list) -> np.ndarray:
    """J_s of the 1-D grid {k/(n+1)}: n - k pairs sit at distance k/(n+1)."""
    out = np.empty((len(s_list), len(n_list)))
    for j, n in enumerate(n_list):
        k = np.arange(1, n, dtype=float)
        log_gap = np.log(k / (n + 1))
        for i, s in enumerate(s_list):
            out[i, j] = 2.0 * float(np.sum((n - k) * np.exp(-s * log_gap))) / (n * (n - 1))
    return out


def _philox_uniform(seed: int, rep: int, n: int, d: int) -> np.ndarray:
    """The CLI's documented draw: Philox keyed by the seed, jumped rep times."""
    bg = np.random.Philox(key=seed)
    if rep:
        bg = bg.jumped(rep)
    return np.random.Generator(bg).random((n, d))


def reference(name: str, size: dict, seed: int) -> dict:
    """Expected output of workload ``name``, plus its pair-evaluation count."""
    n = size["n"]
    if name == "dim-sample":
        points = kronecker_square_cloud(seed, n)
        ref = _estimate(_s_grid(0.1, SAMPLE_S_MAX, 0.1), _doubling_grid(n, max(8, n // 64)),
                        lambda s, m: _prefix_energies(points, s, m))
        # one profile pass over every exponent, one more for the bisection
        ref["pair_evals"] = pairs(n) * (len(ref["s_grid"]) + 1)
        return ref
    if name == "dim-grid":
        ref = _estimate(_s_grid(0.1, 1.9, 0.1), _doubling_grid(n, max(8, n // 16)),
                        _grid_energies)
        ref["pair_evals"] = (sum(pairs(m) for m in ref["n_grid"]) * len(ref["s_grid"])
                             + sum(pairs(m) for m in ref["bisection_n"]))
        return ref
    if name == "varscan":
        reps = size["reps"]
        table = np.empty((len(VARSCAN_S), reps))
        s = np.asarray(VARSCAN_S)[:, None]
        for r in range(reps):
            logd = np.log(pdist(_philox_uniform(seed, r, n, 1)))
            table[:, r] = 2.0 * np.exp(-s * logd[None, :]).sum(axis=1) / (n * (n - 1))
        scores = [[float(v), float(row.max() / np.median(row))]
                  for v, row in zip(VARSCAN_S, table)]
        return {"scores": scores, "pair_evals": reps * pairs(n) * len(VARSCAN_S)}
    if name == "distset":
        # squared distances summed coordinate by coordinate, as the CLI does
        points = iid_square_cloud(seed, n)
        i, j = np.triu_indices(n, k=1)
        diff = points[i] - points[j]
        dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        step = 1e-9 * float(dist.max())
        count = int(np.unique(np.rint(dist / step).astype(np.int64)).size)
        return {"n": n, "step": step, "count": count, "pair_evals": pairs(n)}
    raise ValueError(f"unknown workload {name!r}")


def cached_reference(name: str, size: dict, seed: int, cachedir: Path) -> dict:
    key = json.dumps([REFERENCE_VERSION, name, size, seed], sort_keys=True)
    path = cachedir / f"{name}-{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text())
    ref = reference(name, size, seed)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


def prepare(name: str, seed: int, size: dict, workdir: Path, cachedir: Path) -> dict:
    input_path, record = None, None
    if name in CLOUDS:
        input_path = workdir / f"{name}-n{size['n']}-seed{seed}.csv"
        record = write_cloud_csv(input_path, CLOUDS[name](seed, size["n"]))
    return {
        "input_path": None if input_path is None else str(input_path),
        "inputs": [record] if record else [],
        "ref": cached_reference(name, size, seed, cachedir),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    if len(sys.argv) != 6:
        raise SystemExit(__doc__)
    _, wl, seed_text, size_json, work, cache = sys.argv
    print(json.dumps(prepare(wl, int(seed_text), json.loads(size_json), Path(work), Path(cache))))
