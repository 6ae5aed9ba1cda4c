"""Tests of the benchmark itself, on smoke sizes (seconds per run, never recorded).

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# entry points that run on their own workload only (the pair kernel also runs in varscan)
EXCLUSIVE = ("energy_profile", "replicate_energies", "distance_set")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(name: str, trace: int, seed: int = 5):
    done = bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_benchmark():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name):
    detail, result = smoke(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["smoke"] and detail["derived"]["fail_frac"] == 0.0
    assert set(detail["context"]) >= {"commit", "python", "numpy", "scipy", "nproc",
                                      "cpu_model", "steal_s"}
    for record in detail["inputs"]:
        assert len(record["sha256"]) == 64 and record["d"] == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name):
    detail, result = smoke(name, 1)
    assert result["correct"], detail["invocations"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.LAYER_UNITS)
    calls = detail["derived"]["entry_calls"]
    entry = WORKLOADS[name].entry
    assert calls[entry] >= 1
    assert all(calls[e] == 0 for e in EXCLUSIVE if e != entry)
    assert metrics["cli.output_bytes"] > 0
    assert (metrics["energy.thread_speedup"] > 0) == (name == "dim-grid")


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, result = smoke("varscan", 1, seed=9)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["stats.replicates"] == 60 and counts[0]["measures.sample_calls"] == 60


def _edit_payload(edit):
    def corrupt(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc["payload"])
        return json.dumps(doc).encode()

    return corrupt


def _scale_last_score(data: bytes) -> bytes:
    lines = data.decode().splitlines()
    s, score = lines[-1].split(",")
    lines[-1] = f"{s},{float(score) * 1.001!r}"
    return ("\n".join(lines) + "\n").encode()


CORRUPT = {
    "dim-sample": _edit_payload(lambda p: p["slopes"].__setitem__(0, p["slopes"][0] + 1e-3)),
    "dim-grid": _edit_payload(lambda p: p.__setitem__("s_hat", p["s_hat"] + 0.05)),
    "varscan": _scale_last_score,
    "distset": _edit_payload(lambda p: p.__setitem__("count", p["count"] - 10)),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_payload_counts_as_failed(name):
    def corrupting_spawn(argv, stdout_path, kind):
        inv = run.spawn(argv, stdout_path, kind)
        if kind == "workload":
            stdout_path.write_bytes(CORRUPT[name](stdout_path.read_bytes()))
        return inv

    record = run.run_one(name, 7, 0.1, trace=False, smoke=True, spawn_fn=corrupting_spawn)
    result = record["result"]
    workload_runs = [i for i in record["invocations"] if i["kind"] == "workload"]
    assert workload_runs and all(i["error"] for i in workload_runs)
    assert result["failed"] == len(workload_runs) and not result["correct"]
    assert record["derived"]["fail_frac"] == len(workload_runs) / result["attempted"]


def test_inputs_repeat_per_seed(tmp_path):
    size = {"n": 50}
    a = reference.prepare("distset", 3, size, tmp_path, tmp_path)["inputs"][0]
    b = reference.prepare("distset", 3, size, tmp_path, tmp_path)["inputs"][0]
    c = reference.prepare("distset", 4, size, tmp_path, tmp_path)["inputs"][0]
    assert a == b and a["sha256"] != c["sha256"] and (a["n"], a["d"]) == (50, 2)
    text = (tmp_path / a["file"]).read_text().splitlines()
    assert text[0] == "# dim=2" and len(text) == 51


def test_tail_percentile():
    tail = run.tail_percentile([float(v) for v in range(25, 0, -1)])
    assert tail == {"value": 15.0, "percentile": 60.0, "samples": 25, "beyond": 10}
    assert run.tail_percentile([3.0, 1.0, 2.0])["value"] == 1.0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "dim-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
