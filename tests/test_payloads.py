"""Every pinned command line still writes what it wrote when it was recorded.

``payloads.json`` and the exact differ live in ``regen_payloads.py``; see
its docstring for how to re-record an entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath
from regen_payloads import MANIFEST, differences, readme_tour, run_lines

# numpy's AVX-512 dispatch targets that this machine enables
AVX512 = [
    t for t in umath.__cpu_dispatch__
    if umath.__cpu_features__.get(t) and (t == "X86_V4" or t.startswith("AVX512"))
]
# a dim line and an lln line, whose floats move when exp and log run
# without AVX-512, after the line that writes the dim line's input
CROSS_DISPATCH_LINES = [
    "sample --measure cube --dim 2 --count 1000 --seed 7 -o sample.csv",
    "dim --input sample.csv --s-max 2.5 --threshold 0.1 --window 64,1000",
    "lln-path --measure cube --dim 1 --s 0.4 --n-max 5000 --csv path.csv",
]
_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from regen_payloads import dispatch, run_lines
print(dispatch())
print(json.dumps(run_lines(json.loads(sys.argv[2]), Path(sys.argv[3]))))
"""


def recorded():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_starts_with_the_readme_tour():
    tour = readme_tour()
    assert len(tour) == 19
    assert [r["argv"] for r in recorded()[: len(tour)]] == tour


def test_pinned_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("RIESZDIM_OUT", raising=False)
    pinned = recorded()
    fresh = run_lines([r["argv"] for r in pinned], tmp_path)
    assert list(differences(pinned, fresh, rel=1e-12)) == []


@pytest.mark.skipif(not AVX512, reason="numpy enables no AVX-512 dispatch target here")
def test_pinned_outputs_hold_across_dispatch_paths(tmp_path):
    # bit-identity holds on one dispatch path; across paths, numpy's exp and
    # log may round differently, and the outputs agree within the bound of
    # test_pinned_outputs (the dim line moves by about 1.1e-13 without AVX-512)
    pinned = [r for r in recorded() if " ".join(r["argv"]) in CROSS_DISPATCH_LINES]
    assert len(pinned) == len(CROSS_DISPATCH_LINES)
    env = {k: v for k, v in os.environ.items() if k != "RIESZDIM_OUT"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(AVX512)
    argvs = json.dumps([r["argv"] for r in pinned])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).parent), argvs, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    targets, fresh = proc.stdout.split("\n", 1)
    assert not set(AVX512) & set(targets.split()), targets  # the child ran without AVX-512
    assert list(differences(pinned, json.loads(fresh), rel=1e-12)) == []
