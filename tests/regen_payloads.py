"""Pinned CLI outputs: run the command lines of ``payloads.json`` and diff.

``tests/payloads.json`` holds command lines, the README CLI tour in order
and then a few extra ones, with what each line wrote: its exit code, its
stdout and every file it created or changed in the working directory. A
JSON envelope is stored parsed, without its ``timing_seconds``; any other
text as its list of lines. The lines run in order in one fresh directory,
through ``rieszdim.cli.main`` in this process.

    python tests/regen_payloads.py           # print every difference
    python tests/regen_payloads.py --write   # record the current outputs

Both first print numpy's version and the CPU dispatch targets it enabled,
since numpy picks its exp and log kernels by CPU feature at run time. The
diff is exact and prints both sides at full ``repr`` precision, so an
empty diff means every envelope, table and CSV is byte-identical to the
recorded one (timing aside). After the differences it prints, for each
command line that differs, the worst relative difference of its floats
(inf when a count, a string or the shape of an output differs), so that
the size of a payload move can be quoted before it is re-recorded.
``tests/test_payloads.py`` runs the same lines and allows floats a
relative difference of 1e-12.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # run the checkout's rieszdim
MANIFEST = HERE / "payloads.json"

# lines past the tour: the --json envelopes of the table commands, a
# per-replicate CSV, the generator branches of dim and ballcheck, and the
# quantized distset counts and steps on a generic cloud (the diameter walks
# a pruned cloud) and on a circle (no point is pruned), and an energy-seq
# drop that appends 43 far points before its slide point; then the draw
# paths of the other samplers: cantor digits (32-bit bounded integers, an
# odd count of them per factor and per replicate), the semicircle's two
# uniform draws, and the empirical resample with its perturbation; last, a
# quantized distset on a 7-D cube sample (the diameter prunes in high
# dimension too), whose 105,551 distances are too many to list
EXTRA = [
    "varscan --measure cube --dim 1 --s-grid 0.3,0.7 --n 100 --reps 50 --seed 3 -o scan.csv --json scan.json",
    "erdos --gen lattice --d 2 --k 3 --exponents 1,1.5 -o erdos.csv --json erdos.json",
    "gen --gen cantor --m 2 --n 3 --level 4 --json cantor4.json",
    "sample --measure circle --count 40 --seed 2 -o circ.csv --json circ.json",
    "lln-mean --measure cube --dim 2 --s 0.5 --n 40 --reps 30 --seed 4 --per-rep-csv rep.csv -o mean.json",
    "dim --gen grid1d --n 256 --threshold 0.1",
    "dim --gen lattice --d 2 --k 4 --s-max 2.5",
    "ballcheck --gen lattice --d 2 --k 4 --s 1.2 --c 2.0",
    "distset --input sample.csv",
    "distset --gen semicircle --phases 4 --per-phase 200",
    "gen --gen energy-seq --s 1 --targets 1,0.001 --d 2 -o decay.csv",
    "sample --measure cantor --m 2 --n-base 3 --factor-dim 2 --depth 7 --count 41 --seed 5 -o cantor41.csv",
    "sample --measure semicircle --phase 0.7 --count 40 --seed 6 -o semi.csv",
    "sample --measure empirical --points grid.csv --count 200 --seed 8 -o emp.csv --json emp.json",
    "varscan --measure cantor --m 2 --n-base 3 --depth 21 --s-grid 0.3,0.6 --n 41 --reps 50 --seed 2 --json cscan.json",
    "sample --measure cube --dim 7 --count 460 --seed 9 -o cube7.csv",
    "distset --input cube7.csv",
]


def readme_tour() -> list:
    """The command lines of the README CLI tour, without ``rieszdim``."""
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI tour", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("rieszdim ")]


def dispatch() -> str:
    """numpy's version and the CPU dispatch targets it enabled on this machine."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {numpy.__version__}, dispatch: {' '.join(enabled) or 'baseline only'}"


def _decode(text: str):
    if text.startswith("{"):
        doc = json.loads(text)
        doc.pop("timing_seconds")
        return doc
    return text.splitlines()


def _snapshot(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}


def run_lines(lines, workdir: Path) -> list:
    """Run each argv of ``lines`` in ``workdir``, in order; one record each."""
    from rieszdim.cli import main

    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in lines:
            before = _snapshot(workdir)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            after = _snapshot(workdir)
            files = {
                name: _decode(data.decode("utf-8"))
                for name, data in sorted(after.items())
                if before.get(name) != data
            }
            records.append({"argv": list(argv), "exit": code, "stdout": _decode(out.getvalue()), "files": files})
    finally:
        os.chdir(cwd)
    return records


def _relative(a: float, b: float) -> float:
    """|a - b| over the larger magnitude: 0 for equal numbers, inf if either is not finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_diff(a, b, where: str, rel: float):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            yield f"{where}: keys {sorted(a)!r} != {sorted(b)!r}", math.inf
            return
        for k in sorted(a):
            yield from _json_diff(a[k], b[k], f"{where}.{k}", rel)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where}: length {len(a)} != {len(b)}", math.inf
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{where}[{i}]", rel)
    elif type(a) is not type(b):
        yield f"{where}: {a!r} != {b!r}", math.inf
    elif isinstance(a, float):
        if _relative(a, b) > rel:
            yield f"{where}: {a!r} != {b!r}", _relative(a, b)
    elif a != b:
        yield f"{where}: {a!r} != {b!r}", math.inf


def _cell_relative(a: str, b: str) -> float:
    """The relative difference of two CSV cells: floats as numbers, ints and strings exactly."""
    if a == b:
        return 0.0
    if a.lstrip("-").isdigit() or b.lstrip("-").isdigit():
        return math.inf
    try:
        return _relative(float(a), float(b))
    except ValueError:
        return math.inf


def _text_diff(a: list, b: list, where: str, rel: float):
    if len(a) != len(b):
        yield f"{where}: {len(a)} lines != {len(b)}", math.inf
        return
    for i, (x, y) in enumerate(zip(a, b)):
        xs, ys = x.split(","), y.split(",")
        worst = max(map(_cell_relative, xs, ys)) if len(xs) == len(ys) else math.inf
        if worst > rel:
            yield f"{where} line {i + 1}: {x!r} != {y!r}", worst


def _output_diff(a, b, where: str, rel: float):
    if isinstance(a, list) and isinstance(b, list):
        yield from _text_diff(a, b, where, rel)
    else:
        yield from _json_diff(a, b, where, rel)


def differences(recorded: list, fresh: list, rel: float = 0.0):
    """Every difference between two record lists, as ``(command line, message, relative size)``.

    Floats within ``rel`` of each other agree. The size is the relative
    difference of the floats that differ (the worst on a CSV row), and inf
    for any other difference.
    """
    if len(recorded) != len(fresh):
        yield "", f"{len(recorded)} lines recorded, {len(fresh)} run", math.inf
    for old, new in zip(recorded, fresh):
        line = " ".join(old["argv"])
        if old["argv"] != new["argv"]:
            yield line, f"{line}: argv {new['argv']!r}", math.inf
            continue
        found = []
        if old["exit"] != new["exit"]:
            found.append((f"{line}: exit {old['exit']!r} != {new['exit']!r}", math.inf))
        found += _output_diff(old["stdout"], new["stdout"], f"{line}: stdout", rel)
        if sorted(old["files"]) != sorted(new["files"]):
            names = f"{sorted(old['files'])!r} != {sorted(new['files'])!r}"
            found.append((f"{line}: files {names}", math.inf))
        else:
            for name in sorted(old["files"]):
                found += _output_diff(old["files"][name], new["files"][name], f"{line}: {name}", rel)
        for message, size in found:
            yield line, message, size


def main(argv) -> int:
    os.environ.pop("RIESZDIM_OUT", None)
    write = argv == ["--write"]
    if argv and not write:
        raise SystemExit("usage: regen_payloads.py [--write]")
    print(dispatch())
    if write:
        lines = readme_tour() + [line.split() for line in EXTRA]
    else:
        recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
        lines = [r["argv"] for r in recorded]
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_lines(lines, Path(tmp))
    if write:
        MANIFEST.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(fresh)} lines in {MANIFEST}")
        return 0
    diff = list(differences(recorded, fresh))
    worst = {}
    for line, message, size in diff:
        print(message)
        worst[line] = max(worst.get(line, 0.0), size)
    for line, size in worst.items():
        print(f"worst relative difference {size:.2g}: {line}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
