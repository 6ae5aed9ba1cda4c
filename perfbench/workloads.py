"""Workloads of the rieszdim CLI benchmark: command lines and output checks.

Every workload is a fixed `rieszdim` command line. Its inputs and expected
output come from ``reference.py``, which runs in a process of its own. This
module imports neither numpy nor scipy: the measuring process stays small,
because Linux hands a parent's peak RSS on to the children it starts, and
the children's peak RSS is a metric.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

THREADS = 2  # this VM has 2 cores; every subcommand accepts --threads

# Full sizes keep one invocation near 2-3 s on a 2-core VM, so a run of
# run_seconds holds enough invocations for a median; smoke sizes run the
# same code paths in about a second each and are never recorded as results.
SIZES = {
    "dim-sample": {"full": {"n": 3000}, "smoke": {"n": 400}},
    "dim-grid": {"full": {"n": 3072}, "smoke": {"n": 2100}},
    "varscan": {"full": {"n": 300, "reps": 400}, "smoke": {"n": 40, "reps": 60}},
    "distset": {"full": {"n": 1500}, "smoke": {"n": 150}},
}

DIM_THRESHOLD = 0.1  # the CLI's default --threshold
SAMPLE_S_MAX = 2.5  # a planar cloud needs the exponent grid to pass s = 2
VARSCAN_S = (0.2, 0.3, 0.5, 0.7)
SLOPE_TOL = 1e-7  # absolute, on log-log slopes of order 1
SCORE_RTOL = 1e-9
DISTINCT_RTOL = 1e-6  # of the pair count: a distance on a grid-cell edge may flip


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def _close(a, b, tol) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _check_dim(stdout: bytes, ref: dict):
    doc = json.loads(stdout)
    p = doc["payload"]
    if doc.get("command") != "dim":
        return "envelope is not a dim result"
    if list(p["n_grid"]) != ref["n_grid"]:
        return f"n_grid {p['n_grid']} != {ref['n_grid']}"
    if not _close(p["s_grid"], ref["s_grid"], 1e-12):
        return "s_grid differs"
    if not _close(p["slopes"], ref["slopes"], SLOPE_TOL):
        return "slopes differ"
    if not ref["ambiguous"] and abs(p["s_hat"] - ref["s_hat"]) > 1e-12:
        return f"s_hat {p['s_hat']} != {ref['s_hat']}"
    return None


def _check_varscan(stdout: bytes, ref: dict):
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    if rows[0] != ["s", "score"]:
        return "missing s,score header"
    got = [(float(s), float(v)) for s, v in rows[1:]]
    want = ref["scores"]
    if [s for s, _ in got] != [s for s, _ in want]:
        return "score exponents differ"
    for (_, v), (_, w) in zip(got, want):
        if not abs(v - w) <= SCORE_RTOL * abs(w):
            return f"score {v} != {w}"
    return None


def _check_distset(stdout: bytes, ref: dict):
    doc = json.loads(stdout)
    p = doc["payload"]
    if doc.get("command") != "distset" or p["n"] != ref["n"]:
        return "envelope is not a distset result for this cloud"
    if abs(p["quantization"] - ref["step"]) > 1e-12 * ref["step"]:
        return f"quantization {p['quantization']} != {ref['step']}"
    if abs(p["count"] - ref["count"]) > max(2.0, DISTINCT_RTOL * pairs(ref["n"])):
        return f"distinct count {p['count']} != {ref['count']}"
    return None


@dataclass(frozen=True)
class Workload:
    """One fixed CLI command line and the check of its output."""

    name: str
    why: str
    entry: str  # the library function that should take most of the traced time

    def argv(self, size: dict, seed: int, input_path, threads: int = THREADS) -> list:
        if self.name == "dim-sample":
            head = ["dim", "--input", str(input_path), "--s-max", str(SAMPLE_S_MAX)]
        elif self.name == "dim-grid":
            head = ["dim", "--gen", "grid1d", "--n", str(size["n"])]
        elif self.name == "varscan":
            head = ["varscan", "--measure", "cube", "--dim", "1",
                    "--s-grid", ",".join(str(s) for s in VARSCAN_S),
                    "--n", str(size["n"]), "--reps", str(size["reps"]), "--seed", str(seed)]
        else:
            head = ["distset", "--input", str(input_path)]
        return [*head, "--threads", str(threads)]

    def check(self, returncode: int, stdout: bytes, ref: dict):
        """None when the output matches the reference, else the reason."""
        if returncode != 0:
            return f"exit status {returncode}"
        checker = {"dim-sample": _check_dim, "dim-grid": _check_dim,
                   "varscan": _check_varscan, "distset": _check_distset}[self.name]
        try:
            return checker(stdout, ref)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dim-sample",
                 "CSV cloud filling the unit square: the incremental prefix profile does the work",
                 "energy_profile"),
        Workload("dim-grid",
                 "large 1-D grid: the multi-block threaded pair kernel over 19 exponents",
                 "discrete_energy_multi"),
        Workload("varscan",
                 "many small replicate clouds: sampler and per-call pair overhead",
                 "replicate_energies"),
        Workload("distset",
                 "generic cloud: quantized distance dedup, the memory-heavy path",
                 "distance_set"),
    )
}
