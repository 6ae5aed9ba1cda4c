#!/usr/bin/env python3
"""Benchmark of the rieszdim CLI, driven from outside as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # table of every workload

Run from the root of a source checkout: the program under test is
``src/rieszdim``, started as ``python -m rieszdim`` with ``PYTHONPATH=src``.

Load model: a closed loop with one client. Each invocation is a fresh
process, and the next starts only after the previous one exits, so every
number includes interpreter start, imports, CSV parsing and envelope
writing. ``rieszdim --version`` invocations (the set-up cost) and runs of a
fixed numpy calibration task are interleaved with the workload's own; the
calibration's median scales a run's timings to a reference machine speed.
Every output is checked against a reference computed by ``reference.py``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced
in-process run (``tracing.py``), plus untraced invocations for the tracing
overhead. The line before it is a JSON record with the inputs (sha256, n,
d), the run context, every invocation and the derived values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_INVOCATIONS = 3
SETUP_EVERY = 2  # set-up invocations are cheap and less noisy; spend the time on the workload
INVOCATION_TIMEOUT_S = 120.0

# A fixed task that needs nothing but numpy: interpreter start, numpy import
# and a pairwise-distance kernel, like a small workload invocation. It runs
# after every workload invocation, and a run's timings are scaled by
# CALIBRATION_REF_S / (its median wall time in the run), so they read as
# seconds at the speed the VM had while CALIBRATION_REF_S was measured. The
# VM's speed drifts by 25% or more over minutes; the scaling takes the drift
# between runs out.
CALIBRATION = """
import numpy as np
x = np.random.default_rng(0).random((1200, 2))
total = 0.0
for _ in range(4):
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) + 1.0
    total += float(np.exp(-0.35 * np.log(d2)).sum())
print(f"{total:.6e}")
"""
CALIBRATION_TOTAL = 5.252479e6
CALIBRATION_REF_S = 0.45


@dataclass
class Invocation:
    kind: str  # "workload", "setup" or "traced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    error: str | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RIESZDIM_OUT")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdout_path: Path, kind: str) -> Invocation:
    """Run one process to completion; wall time from spawn to reaped exit."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode)


class Session:
    """One workload at one seed: prepared inputs, reference and invocations."""

    def __init__(self, name: str, seed: int, smoke: bool, spawn_fn=spawn):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.size = SIZES[name]["smoke" if smoke else "full"]
        self.spawn = spawn_fn
        self.dir = WORK / f"{name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (WORK / "cache").mkdir(exist_ok=True)
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), name, str(seed), json.dumps(self.size),
             str(self.dir), str(WORK / "cache")],
            capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S, check=True)
        prepared = json.loads(done.stdout)
        self.prepare_s = time.perf_counter() - t0
        # children run in ROOT, so the recorded argv holds no machine-specific path
        self.input_path = prepared["input_path"] and os.path.relpath(prepared["input_path"], ROOT)
        self.inputs = prepared["inputs"]
        self.ref = prepared["ref"]
        self.versions = prepared["versions"]
        self.argv = self.workload.argv(self.size, seed, self.input_path)
        self.invocations: list[Invocation] = []

    def _run(self, kind: str, argv, check) -> Invocation:
        out = self.dir / f"{kind}.out"
        inv = self.spawn(argv, out, kind)
        stdout = out.read_bytes()
        inv.error = check(inv.returncode, stdout)
        if inv.error is not None:
            tail = out.with_suffix(".err").read_bytes()[-400:].decode("utf-8", "replace")
            print(f"{kind} invocation failed: {inv.error} {tail}", file=sys.stderr)
        self.invocations.append(inv)
        return inv

    def run_workload(self) -> Invocation:
        argv = [sys.executable, "-m", "rieszdim", *self.argv]
        return self._run("workload", argv,
                         lambda code, out: self.workload.check(code, out, self.ref))

    def run_setup(self) -> Invocation:
        def check(code, out):
            if code != 0:
                return f"exit status {code}"
            return None if out.startswith(b"rieszdim ") else f"unexpected version text {out!r}"

        return self._run("setup", [sys.executable, "-m", "rieszdim", "--version"], check)

    def run_calibration(self) -> Invocation:
        def check(code, out):
            try:
                ok = code == 0 and abs(float(out) / CALIBRATION_TOTAL - 1.0) < 1e-6
            except ValueError:
                ok = False
            return None if ok else f"exit status {code}, output {out!r}"

        inv = self._run("calibration", [sys.executable, "-c", CALIBRATION], check)
        if inv.error is not None:
            raise RuntimeError(f"calibration task failed: {inv.error}")
        return inv

    def run_traced(self, argv) -> tuple[Invocation, list, int]:
        spans_path = self.dir / "spans.json"
        out = self.dir / "traced.out"
        cmd = [sys.executable, str(HERE / "tracing.py"), str(SRC), str(spans_path), str(out),
               "--", *argv]
        inv = self._run("traced", cmd, lambda code, data: self.workload.check(code, data, self.ref))
        spans = json.loads(spans_path.read_text()) if inv.returncode == 0 else []
        return inv, spans, out.stat().st_size

    def loop(self, seconds: float, calibrated: bool) -> None:
        """Closed loop until the next step would pass the deadline.

        A step is one workload invocation. Calibrated steps add one
        calibration run, and the first calibrated step and every
        SETUP_EVERY-th after it one set-up invocation.
        """
        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            t0 = time.perf_counter()
            self.run_workload()
            if calibrated:
                self.run_calibration()
                if len(durations) % SETUP_EVERY == 0:
                    self.run_setup()
            durations.append(time.perf_counter() - t0)
            if (len(durations) >= MIN_INVOCATIONS
                    and time.perf_counter() + statistics.median(durations) > deadline):
                return

    def of(self, kind: str) -> list[Invocation]:
        return [i for i in self.invocations if i.kind == kind]

    def counted(self) -> list[Invocation]:
        """Invocations of the program under test (calibration runs excluded)."""
        return [i for i in self.invocations if i.kind != "calibration"]


def tail_percentile(values) -> dict:
    """Highest order statistic with at least ten samples above it.

    With ten or fewer samples no such percentile exists, and the rule falls
    back to the smallest sample; the percentile and count say which it was.
    """
    ordered = sorted(values)
    k = max(1, len(ordered) - 10)
    return {"value": ordered[k - 1], "percentile": 100.0 * k / len(ordered),
            "samples": len(ordered), "beyond": len(ordered) - k}


def end_to_end(session: Session) -> tuple[dict, dict]:
    calibration = statistics.median(i.wall_s for i in session.of("calibration"))
    scale = CALIBRATION_REF_S / calibration
    runs = session.of("workload")
    walls = [i.wall_s * scale for i in runs]
    wall = statistics.median(walls)
    tail = tail_percentile(walls)
    failed = sum(1 for i in session.counted() if i.error is not None)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "wall_s.tail": {"value": tail["value"], "unit": "s"},
        "pair_evals_per_s": {"value": session.ref["pair_evals"] / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(i.peak_rss_mb for i in runs), "unit": "MB"},
        "setup_s": {"value": statistics.median(i.wall_s for i in session.of("setup")) * scale,
                    "unit": "s"},
    }
    derived = {
        "wall_s.tail": tail,
        "fail_frac": failed / len(session.counted()),
        "pair_evals": session.ref["pair_evals"],
        "raw_wall_s": statistics.median(i.wall_s for i in runs),
        "raw_setup_s": statistics.median(i.wall_s for i in session.of("setup")),
        "calibration_s": calibration,
        "cpu_s": statistics.median(i.cpu_s for i in runs),
    }
    return metrics, derived


def traced(session: Session, seconds: float) -> tuple[dict, dict]:
    session.loop(seconds / 2, calibrated=False)
    wall = statistics.median(i.wall_s for i in session.of("workload"))
    inv, spans, output_bytes = session.run_traced(session.argv)
    layers = tracing.layer_metrics(spans, output_bytes)
    layers["energy.thread_speedup"] = 0.0
    if session.workload.name == "dim-grid":
        one = session.workload.argv(session.size, session.seed, session.input_path, threads=1)
        _, spans1, _ = session.run_traced(one)
        pair_1 = tracing.layer_metrics(spans1, 0)["energy.pair_s"]
        if pair_1 and layers["energy.pair_s"]:
            layers["energy.thread_speedup"] = pair_1 / layers["energy.pair_s"]
    layers["trace.overhead_s"] = inv.wall_s - wall
    entry = session.workload.entry
    derived = {
        "untraced_wall_s": wall,
        "traced_wall_s": inv.wall_s,
        "entry": entry,
        "entry_share": tracing.entry_share(spans, entry),
        "entry_calls": {e: tracing.entry_calls(spans, e)
                        for e in sorted({w.entry for w in WORKLOADS.values()})},
    }
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    return metrics, derived


LAYER_UNITS = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "cloud.read_csv_s": "s", "cloud.diameter_s": "s",
    "generators.grid_1d_s": "s",
    "energy.profile_s": "s", "energy.profile_ns": "ns", "energy.profile_calls": "count",
    "energy.pair_s": "s", "energy.pair_ns": "ns", "energy.pair_calls": "count",
    "energy.pair_evals": "count", "energy.thread_speedup": "ratio",
    "measures.sample_s": "s", "measures.sample_calls": "count",
    "stats.replicate_self_s": "s", "stats.replicates": "count",
    "stats.replicate_overhead_us": "us",
    "estimator.self_s": "s", "estimator.recompute_s": "s",
    "sets.distance_set_s": "s", "sets.dedup_ns": "ns", "sets.distinct_values": "count",
    "sets.distinct_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _steal_s() -> float | None:
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_context(versions: dict) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spawn_fn=spawn) -> dict:
    """Measure one workload; returns the full record (result under "result")."""
    steal0 = _steal_s()
    t0 = time.perf_counter()
    session = Session(name, seed, smoke, spawn_fn)
    session.run_setup()  # untimed warm-up: fills the bytecode cache
    session.invocations.clear()
    if trace:
        metrics, derived = traced(session, seconds)
    else:
        session.loop(seconds, calibrated=True)
        metrics, derived = end_to_end(session)
    steal1 = _steal_s()
    failed = sum(1 for i in session.counted() if i.error is not None)
    context = run_context(session.versions)
    context["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    context["run_s"] = time.perf_counter() - t0
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "size": session.size,
        "argv": ["rieszdim", *session.argv],
        "inputs": session.inputs,
        "prepare_s": session.prepare_s,
        "context": context,
        "derived": derived,
        "invocations": [asdict(i) for i in session.invocations],
        "result": {
            "correct": failed == 0,
            "attempted": len(session.counted()),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests; never recorded")
    parser.add_argument("--record", type=Path,
                        help="also write the full records as a JSON document here")
    args = parser.parse_args(argv)
    if args.smoke and args.record:
        parser.error("smoke runs are never recorded")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if not (SRC / "rieszdim" / "__init__.py").is_file():
        print(f"error: no rieszdim source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_one(n, args.seed, args.seconds, bool(args.trace), args.smoke) for n in names]
    if args.record:
        kept = json.loads(args.record.read_text())["records"] if args.record.exists() else []
        args.record.write_text(json.dumps({"records": kept + records}, indent=1) + "\n")
    if args.workload == "all":
        for rec in records:
            for key, m in rec["result"]["metrics"].items():
                print(f"{rec['workload']:<11} {key:<28} {m['value']:>16.6g} {m['unit']}")
            if not args.trace:
                print(f"{rec['workload']:<11} {'fail_frac':<28} "
                      f"{rec['derived']['fail_frac']:>16.6g} 1")
        print(json.dumps({r["workload"]: r["result"] for r in records}))
        return 0
    record = records[0]
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
