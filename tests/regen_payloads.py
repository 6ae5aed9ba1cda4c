"""Pinned CLI outputs: run the command lines of ``payloads.json`` and diff.

``tests/payloads.json`` holds command lines, the README CLI tour in order
and then a few extra ones, with what each line wrote: its exit code, its
stdout and every file it created or changed in the working directory. A
JSON envelope is stored parsed, without its ``timing_seconds``; any other
text as its list of lines. The lines run in order in one fresh directory,
through ``rieszdim.cli.main`` in this process.

    python tests/regen_payloads.py           # print every difference
    python tests/regen_payloads.py --write   # record the current outputs

The diff is exact and prints both sides at full ``repr`` precision, so an
empty diff means every envelope, table and CSV is byte-identical to the
recorded one (timing aside). ``tests/test_payloads.py`` runs the same lines
and allows floats a relative difference of 1e-12.
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
MANIFEST = HERE / "payloads.json"

# lines past the tour: the --json envelopes of the table commands, a
# per-replicate CSV, the generator branches of dim and ballcheck, and the
# quantized distset counts and steps on a generic cloud (the diameter walks
# a pruned cloud) and on a circle (no point is pruned), and an energy-seq
# drop that appends 43 far points before its slide point; then the draw
# paths of the other samplers: cantor digits (32-bit bounded integers, an
# odd count of them per factor and per replicate), the semicircle's two
# uniform draws, and the empirical resample with its perturbation
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
]


def readme_tour() -> list:
    """The command lines of the README CLI tour, without ``rieszdim``."""
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI tour", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("rieszdim ")]


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
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
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


def _same_number(a, b, rel: float) -> bool:
    return a == b or (rel > 0 and math.isclose(a, b, rel_tol=rel))


def _json_diff(a, b, where: str, rel: float):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            yield f"{where}: keys {sorted(a)!r} != {sorted(b)!r}"
            return
        for k in sorted(a):
            yield from _json_diff(a[k], b[k], f"{where}.{k}", rel)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where}: length {len(a)} != {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{where}[{i}]", rel)
    elif type(a) is not type(b):
        yield f"{where}: {a!r} != {b!r}"
    elif isinstance(a, float):
        if not _same_number(a, b, rel):
            yield f"{where}: {a!r} != {b!r}"
    elif a != b:
        yield f"{where}: {a!r} != {b!r}"


def _cell_diff(a: str, b: str, rel: float) -> bool:
    """Whether two CSV cells differ: ints and strings exactly, floats within ``rel``."""
    if a == b:
        return False
    if a.lstrip("-").isdigit() or b.lstrip("-").isdigit():
        return True
    try:
        return not _same_number(float(a), float(b), rel)
    except ValueError:
        return True


def _text_diff(a: list, b: list, where: str, rel: float):
    if len(a) != len(b):
        yield f"{where}: {len(a)} lines != {len(b)}"
        return
    for i, (x, y) in enumerate(zip(a, b)):
        xs, ys = x.split(","), y.split(",")
        if len(xs) != len(ys) or any(_cell_diff(p, q, rel) for p, q in zip(xs, ys)):
            yield f"{where} line {i + 1}: {x!r} != {y!r}"


def _output_diff(a, b, where: str, rel: float):
    if isinstance(a, list) and isinstance(b, list):
        yield from _text_diff(a, b, where, rel)
    else:
        yield from _json_diff(a, b, where, rel)


def differences(recorded: list, fresh: list, rel: float = 0.0):
    """Every difference between two record lists; floats within ``rel`` agree."""
    if len(recorded) != len(fresh):
        yield f"{len(recorded)} lines recorded, {len(fresh)} run"
    for old, new in zip(recorded, fresh):
        line = " ".join(old["argv"])
        if old["argv"] != new["argv"]:
            yield f"{line}: argv {new['argv']!r}"
            continue
        if old["exit"] != new["exit"]:
            yield f"{line}: exit {old['exit']!r} != {new['exit']!r}"
        yield from _output_diff(old["stdout"], new["stdout"], f"{line}: stdout", rel)
        if sorted(old["files"]) != sorted(new["files"]):
            yield f"{line}: files {sorted(old['files'])!r} != {sorted(new['files'])!r}"
            continue
        for name in sorted(old["files"]):
            yield from _output_diff(old["files"][name], new["files"][name], f"{line}: {name}", rel)


def main(argv) -> int:
    os.environ.pop("RIESZDIM_OUT", None)
    write = argv == ["--write"]
    if argv and not write:
        raise SystemExit("usage: regen_payloads.py [--write]")
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
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
