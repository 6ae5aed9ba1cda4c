"""Command line interface.

One subcommand per operation family: generators emit the point CSV format,
analysis commands emit a JSON result envelope (tool version, config echo,
timing, payload), and tabular reports emit CSV. Runs are reproducible from
the config echo; every stochastic command records its seed. A command takes
only the common flags it reads: ``--max-points`` (checked before any point
is allocated) and ``-o`` everywhere, ``--max-pairs`` where pairs are
computed, ``--seed`` on the stochastic commands, and ``--threads`` where the
pair engine runs (``distset`` and a closed-form ``dim --gen`` run accept it
and ignore it).

Exit codes: 0 success, 1 domain error (a :class:`RieszdimError`; its class
name goes to stderr), 2 usage error. argparse refuses an unknown flag or a
flag value of the wrong type with its own usage text. Every other usage
error is a ``ValueError`` and prints one ``usage error:`` line: a missing,
bad or conflicting flag, a path that cannot be opened (read or written,
after ``$RIESZDIM_OUT``), and a JSON document or point CSV that does not
parse. A Cantor spec, an energy-target spec and a measure each have one
document form and one builder in the library; their flags assemble the
same document, and :func:`_build` turns whatever the builder refuses into
one usage error naming its source, the document's path or the selecting
flag (``--gen cantor``, ``--measure cube``). A list flag value that does
not parse names its flag.

A handler only computes: it returns its payload and the text of each file
it writes. ``main`` builds the envelope before it writes anything, so a NaN
result leaves no file and no stdout. It writes stdout last, so a file that
cannot be opened leaves stdout empty; the files written before it stay.

Each command imports the library modules it runs when it runs, so a call
pays start-up only for those: ``--version`` loads none, ``distset`` loads
``cloud`` and ``sets``.

``main`` is the one exit: it returns the code of every command line, the
``-h``, ``--version`` and usage errors of argparse included, and ends
nothing, for in-process callers. A ``rieszdim`` process enters through
``rieszdim.__main__.run``, which flushes the output and leaves through
``os._exit`` after ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import (
    DEFAULT_MAX_POINTS,
    NonFiniteResult,
    RieszdimError,
    SizeCapExceeded,
    UnsupportedVariant,
)

if TYPE_CHECKING:
    from .cloud import PointCloud
    from .cantor import CantorSpec

SCHEMA_VERSION = 1
OUTDIR_ENV = "RIESZDIM_OUT"


def _resolve(path):
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _open(path, mode="r", newline=None):
    """``path`` after $RIESZDIM_OUT, opened as UTF-8 text; a failed open is a usage error."""
    path = _resolve(path)
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}") from None


def _emit_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _open(path, "w", newline="\n") as f:
            f.write(text)


def _inf_to_null(obj, where="envelope"):
    """``obj`` with every infinite float replaced by None (JSON ``null``).

    A NaN has no JSON encoding: it raises :class:`NonFiniteResult` naming
    its place, so the command exits 1 like any other domain error.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            raise NonFiniteResult(f"{where} is NaN, which JSON cannot encode")
        return None
    if isinstance(obj, dict):
        return {k: _inf_to_null(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_to_null(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    return obj


def _read_json(path):
    """The JSON document at ``path``; one that does not parse is a usage error naming it."""
    with _open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _build(build, doc, source):
    """``build(doc)``: a library builder on a construction's document.

    A document read from a file and one assembled from flags go through the
    same builder, and every error it raises on its input (a missing key, a
    value of the wrong type or out of range, an unknown variant) is one
    usage error naming ``source``: the document's path, or the flag that
    selected the construction.
    """
    try:
        return build(doc)
    except (KeyError, TypeError, AttributeError, ValueError, UnsupportedVariant) as exc:
        raise ValueError(f"{source}: {type(exc).__name__}: {exc}") from None


def _read_cloud(path) -> PointCloud:
    """The point CSV at ``path``; a parse error names the path."""
    from .cloud import read_csv

    with _open(path) as f:
        try:
            return read_csv(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _envelope(args, payload: dict, started: float) -> str:
    """The JSON result envelope; an infinity is written as ``null`` and a
    NaN raises :class:`NonFiniteResult` rather than yield invalid JSON."""
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    doc = {
        "tool": "rieszdim",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "timing_seconds": round(time.time() - started, 6),
        "payload": payload,
    }
    return json.dumps(_inf_to_null(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _parse_list(text, cast, flag):
    """The comma-separated values of ``flag``; one that does not parse is a usage error naming it."""
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_points(args, n: int) -> None:
    """Refuse a cloud of n points past --max-points."""
    if n > args.max_points:
        raise SizeCapExceeded(f"{n} points exceed the cap {args.max_points}")


def _check_pairs(args, *sizes, reps: int = 1) -> None:
    """Refuse a run whose pair evaluations, reps x pairs(n) summed over the
    cloud sizes, exceed --max-pairs."""
    pairs = reps * sum(n * (n - 1) // 2 for n in sizes)
    if pairs > args.max_pairs:
        raise SizeCapExceeded(f"{pairs} pairs exceed the cap {args.max_pairs}")


def _add_common(p, *, seed: bool, threads: bool, pairs: bool):
    """The common flags a command reads: --max-points and -o always, the others on request."""
    if seed:
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    if threads:
        p.add_argument("--threads", type=int, default=1, help="worker bound (results unchanged)")
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS, help="point allocation cap")
    if pairs:
        p.add_argument("--max-pairs", type=int, default=10_000_000_000, help="pair evaluation cap")
    p.add_argument("-o", "--output", help="output file (default stdout); relative paths honor $" + OUTDIR_ENV)


def _add_gen_args(p, with_input=True):
    """The generator flags; with ``with_input``, ``--input`` as the other source of the cloud."""
    g = p.add_argument_group("point cloud")
    source = g.add_mutually_exclusive_group()
    source.add_argument("--gen", choices=["grid1d", "lattice", "cantor", "semicircle", "energy-seq"])
    if with_input:
        source.add_argument("--input", help="point CSV file")
    g.add_argument("--n", type=int, help="grid1d point count, or cantor subdivision base")
    g.add_argument("--d", type=int, help="ambient dimension (lattice, cantor product, energy-seq)")
    g.add_argument("--k", type=int, help="lattice refinement level")
    g.add_argument("--m", type=int, help="cantor kept-interval count")
    g.add_argument("--level", type=int, help="cantor construction level")
    g.add_argument("--kept", help="comma-separated kept interval indices (default evenly spread)")
    g.add_argument("--spec-json", help="JSON document describing a cantor or energy-target construction")
    g.add_argument("--phases", type=int, help="semicircle phase count")
    g.add_argument("--per-phase", type=int, help="semicircle points per phase (even)")
    g.add_argument("--s", type=float, help="exponent (energy-seq target exponent)")
    g.add_argument("--targets", help="comma-separated energy targets (energy-seq)")
    g.add_argument("--tolerance", type=float, help="relative target tolerance (energy-seq, default 1e-6)")


def _factor_doc(args, n) -> dict:
    """The Cantor factor document of --m, --kept and ``n``: --n of a generator, --n-base of a measure."""
    return {"m": args.m, "n": n, "kept": _parse_list(args.kept or "", int, "--kept")}


def _cantor_spec_from_args(args) -> CantorSpec:
    """The --gen cantor spec: the --spec-json document, else the one its flags assemble."""
    from .cantor import _spec_from_json

    if args.spec_json:
        doc, source = _read_json(args.spec_json), args.spec_json
    elif args.m is None or args.n is None or args.level is None:
        raise ValueError("cantor generation needs --m, --n and --level")
    else:
        doc = {"factors": [_factor_doc(args, args.n)] * (args.d or 1), "level": args.level}
        source = "--gen cantor"
    return _build(_spec_from_json, doc, source)


def _generate(args, cantor=None) -> PointCloud:
    """The --gen cloud; a cantor cloud is built from ``cantor``, the spec, when given."""
    from .generators import (
        _target_spec_from_json,
        cantor_points,
        energy_sequence_points,
        grid_1d,
        lattice,
        semicircle_phase_points,
    )

    kind = args.gen
    if kind == "grid1d":
        if args.n is None:
            raise ValueError("grid1d needs --n")
        _check_points(args, args.n)
        return grid_1d(args.n)
    if kind == "lattice":
        if args.d is None or args.k is None:
            raise ValueError("lattice needs --d and --k")
        return lattice(args.d, args.k, max_points=args.max_points)
    if kind == "cantor":
        spec = cantor if cantor is not None else _cantor_spec_from_args(args)
        return cantor_points(spec, max_points=args.max_points)
    if kind == "semicircle":
        if args.phases is None or args.per_phase is None:
            raise ValueError("semicircle needs --phases and --per-phase")
        _check_points(args, args.phases * args.per_phase)
        return semicircle_phase_points(args.phases, args.per_phase)
    if kind == "energy-seq":
        if args.spec_json:
            doc, source = _read_json(args.spec_json), args.spec_json
        elif args.s is None or not args.targets:
            raise ValueError("energy-seq needs --s and --targets")
        else:
            doc = {"s": args.s, "targets": _parse_list(args.targets, float, "--targets")}
            source = "--gen energy-seq"
        # the tolerance: the document's, else --tolerance, else the spec's default
        spec = _build(lambda doc: _target_spec_from_json({"tolerance": args.tolerance, **doc}),
                      doc, source)
        cloud, _ = energy_sequence_points(spec, args.d or 1, max_points=args.max_points)
        return cloud
    raise ValueError("no generator selected (--gen)")


def _load_cloud(args, cantor=None) -> PointCloud:
    """The --input or --gen cloud (see :func:`_generate`), refused past --max-points or --max-pairs."""
    if args.input:
        cloud = _read_cloud(args.input)
        _check_points(args, cloud.n)
    elif args.gen:
        cloud = _generate(args, cantor)
    else:
        raise ValueError("provide --input CSV or --gen KIND")
    _check_pairs(args, cloud.n)
    return cloud


# --measure choice -> the "variant" of its measure document
_VARIANTS = {"cube": "uniform-cube", "circle": "uniform-circle", "cantor": "cantor-product",
             "semicircle": "rotating-semicircle", "empirical": "empirical"}


def _add_measure_args(p):
    g = p.add_argument_group("measure")
    g.add_argument("--measure", choices=list(_VARIANTS), help="measure variant")
    g.add_argument("--measure-json", help="JSON measure document")
    g.add_argument("--dim", type=int, default=1, help="cube dimension")
    g.add_argument("--m", type=int, help="cantor kept-interval count")
    g.add_argument("--n-base", type=int, help="cantor subdivision base")
    g.add_argument("--kept", help="cantor kept indices")
    g.add_argument("--factor-dim", type=int, default=1, help="cantor product dimension")
    g.add_argument("--depth", type=int, help="cantor sampling digit depth")
    g.add_argument("--phase", type=float, default=0.0, help="semicircle phase angle")
    g.add_argument("--points", help="CSV cloud for the empirical variant")


def _measure_from_args(args):
    """The --measure-json measure, else the one its flags assemble; a cloud refused past --max-points."""
    from .measures import Empirical, measure_from_json

    if args.measure_json:
        doc, source = _read_json(args.measure_json), args.measure_json
    elif args.measure is None:
        raise ValueError("provide --measure or --measure-json")
    else:
        # each variant's builder reads its own keys of these and ignores the rest
        doc = {"variant": _VARIANTS[args.measure], "dim": args.dim, "phase": args.phase,
               "depth": args.depth}
        source = f"--measure {args.measure}"
        if args.measure == "cantor":
            if args.m is None or args.n_base is None:
                raise ValueError("cantor measure needs --m and --n-base")
            doc["factors"] = [_factor_doc(args, args.n_base)] * args.factor_dim
        elif args.measure == "empirical":
            if not args.points:
                raise ValueError("empirical measure needs --points CSV")
            doc["points"] = _read_cloud(args.points).points
    measure = _build(measure_from_json, doc, source)
    if isinstance(measure, Empirical):
        _check_points(args, measure.cloud.n)
    return measure


def _cmd_gen(args) -> tuple[dict, dict]:
    from .cloud import dumps_csv

    cloud = _generate(args)
    return {"points": cloud.n, "dim": cloud.dim}, {args.output: dumps_csv(cloud)}


def _cmd_sample(args) -> tuple[dict, dict]:
    from .cloud import dumps_csv
    from .measures import measure_to_json, sample_detail

    _check_points(args, args.count)
    measure = _measure_from_args(args)
    cloud, info = sample_detail(measure, args.count, args.seed)
    payload = {
        "points": cloud.n,
        "dim": cloud.dim,
        "measure": measure_to_json(measure),
        "perturbed_duplicates": info.perturbed,
        "method": "sampler",
    }
    return payload, {args.output: dumps_csv(cloud)}


def _cmd_energy(args) -> tuple[dict, dict]:
    from .energy import discrete_energy, energy_profile, truncated_energy

    single = (args.s, args.cutoff_radius) != (None, None)
    if (args.s_grid or args.n_grid) and (single or not (args.s_grid and args.n_grid)):
        raise ValueError(
            "a profile needs --s-grid and --n-grid, and takes no --s or --cutoff-radius")
    if not args.s_grid and args.s is None:
        raise ValueError("truncated energy needs --s" if args.cutoff_radius is not None
                         else "energy needs --s (or --s-grid with --n-grid)")
    cloud = _load_cloud(args)
    if args.s_grid:
        prof = energy_profile(
            cloud,
            _parse_list(args.s_grid, float, "--s-grid"),
            _parse_list(args.n_grid, int, "--n-grid"),
            threads=args.threads,
        )
        payload = {
            "mode": "profile",
            "s_grid": list(prof.s_grid),
            "n_grid": list(prof.n_grid),
            "values": prof.values.tolist(),
        }
    elif args.cutoff_radius is not None:
        value = truncated_energy(cloud, args.s, args.cutoff_radius, threads=args.threads)
        payload = {
            "mode": "truncated",
            "s": args.s,
            "cutoff_radius": args.cutoff_radius,
            "value": value,
            "n": cloud.n,
            "dim": cloud.dim,
        }
    else:
        value = discrete_energy(cloud, args.s, threads=args.threads)
        payload = {
            "mode": "single",
            "s": args.s,
            "value": value,
            "n": cloud.n,
            "dim": cloud.dim,
        }
    return payload, {}


def _auto_n_grid(args, n: int, cantor=None) -> list:
    """The --n-grid sizes, else the default size grid of ``dim`` for a cloud of n points.

    A cantor cloud's default grid is the level sizes of ``cantor``, its spec.
    """
    if args.n_grid:
        return _parse_list(args.n_grid, int, "--n-grid")
    if cantor is not None:
        from .cantor import _level_sizes

        return [s for s in _level_sizes(cantor) if s >= 4]
    if args.gen == "lattice":
        return [2 ** (j * args.d) for j in range(1, args.k + 1) if 2 ** (j * args.d) >= 4]
    # lo, 2 lo, 4 lo, ... below n, then n; whole grids (grid1d) start larger
    lo, grid = max(8, n // (16 if args.gen == "grid1d" else 64)), []
    while lo < n:
        grid.append(lo)
        lo *= 2
    return grid + [n]


def _family(args, cantor=None):
    """``(n_grid, build)`` of a ``dim --gen`` run whose sizes are all whole family members, else None.

    ``build(s_grid, n_grid)`` is the family's closed form, its terms capped
    by --max-pairs. grid1d always has one; a lattice when every size is a
    level size 2^(jd), j <= --k; a Cantor construction (``cantor``, the
    spec) when every factor keeps both end intervals and every size is a
    level size whose difference counts, n^j + 1 per factor, fit under
    --max-points. Every other run walks its generated cloud.
    """
    from . import families

    # without its size flags a grid1d or lattice run has no family: _generate refuses it
    if args.gen == "grid1d" and args.n is not None:
        return _auto_n_grid(args, args.n), functools.partial(
            families.grid_1d_profile, max_terms=args.max_pairs)
    if args.gen == "lattice" and None not in (args.d, args.k):
        if not (args.d >= 1 and args.k >= 1 and args.k * args.d < 63):
            return None  # the walk refuses it
        members = {2 ** (j * args.d) for j in range(1, args.k + 1)}
        build = functools.partial(families.lattice_profile, args.d)
    elif cantor is not None and all(f.keeps_ends for f in cantor.factors):
        from . import cantor as cantor_mod

        members = {size for j, size in enumerate(cantor_mod._level_sizes(cantor), 1)
                   if all(f.n**j + 1 <= args.max_points for f in cantor.factors)}
        build = functools.partial(cantor_mod.cantor_profile, cantor)
    else:
        return None
    n_grid = _auto_n_grid(args, 0, cantor)
    if not set(n_grid) <= members:
        return None
    return n_grid, functools.partial(build, max_terms=args.max_pairs)


def _cmd_dim(args) -> tuple[dict, dict]:
    from .estimator import dimension_estimate

    if not args.s_step > 0:
        raise ValueError("--s-step must be positive")
    s_grid = [round(s, 10) for s in np.arange(args.s_min, args.s_max + 1e-9, args.s_step)]
    # one spec per run: --spec-json may name a pipe, which reads only once
    cantor = _cantor_spec_from_args(args) if args.gen == "cantor" else None
    # Whole family members are no prefixes of one walked cloud: their
    # profile sums difference counts in closed form.
    family = _family(args, cantor)
    if family is not None:
        n_grid, build = family
    else:
        from .energy import energy_profile

        cloud = _load_cloud(args, cantor)
        n_grid = _auto_n_grid(args, cloud.n, cantor)
        build = functools.partial(energy_profile, cloud, threads=args.threads)
    prof = build(s_grid, n_grid)
    window = tuple(_parse_list(args.window, int, "--window")) if args.window else None
    est = dimension_estimate(prof, args.threshold, window=window, recompute=build)
    payload = est.to_json()
    payload["n_grid"] = list(prof.n_grid)
    return payload, {}


def _cmd_varscan(args) -> tuple[dict, dict]:
    from .estimator import variance_blowup_scan
    from .measures import measure_to_json

    _check_points(args, args.n)
    _check_pairs(args, args.n, reps=args.reps)
    measure = _measure_from_args(args)
    scores = variance_blowup_scan(
        measure,
        _parse_list(args.s_grid, float, "--s-grid"),
        args.n,
        args.reps,
        args.seed,
        threads=args.threads,
    )
    payload = {
        "measure": measure_to_json(measure),
        "n": args.n,
        "reps": args.reps,
        "scores": [{"s": s, "score": v} for s, v in scores],
    }
    table = "s,score\n" + "".join(f"{s:.17g},{score:.17g}\n" for s, score in scores)
    return payload, {args.output: table}


def _per_rep_files(args, report) -> dict:
    """The --per-rep-csv file of an experiment report, if asked for."""
    if not args.per_rep_csv:
        return {}
    rows = (
        f"{n},{r},{j:.17g}\n"
        for n, values in zip(report.n_grid, report.replicates)
        for r, j in enumerate(values)
    )
    return {args.per_rep_csv: "n,rep,J\n" + "".join(rows)}


def _cmd_lln_mean(args) -> tuple[dict, dict]:
    from .stats import expectation_experiment

    _check_points(args, args.n)
    _check_pairs(args, args.n, reps=args.reps)
    measure = _measure_from_args(args)
    oracle = None if args.no_oracle else "auto" if args.oracle is None else args.oracle
    report = expectation_experiment(
        measure, args.s, args.n, args.reps, args.seed, oracle=oracle, threads=args.threads
    )
    return report.to_json(), _per_rep_files(args, report)


def _cmd_lln_weak(args) -> tuple[dict, dict]:
    from .stats import wlln_exceedance

    n_grid = _parse_list(args.n_grid, int, "--n-grid")
    _check_points(args, max(n_grid, default=0))
    _check_pairs(args, *n_grid, reps=args.reps)
    measure = _measure_from_args(args)
    report = wlln_exceedance(
        measure,
        args.s,
        args.eps,
        n_grid,
        args.reps,
        args.seed,
        threads=args.threads,
    )
    return report.to_json(), _per_rep_files(args, report)


def _cmd_lln_path(args) -> tuple[dict, dict]:
    from .measures import measure_to_json
    from .stats import slln_path

    if args.tail < 0:
        raise ValueError("--tail must be >= 0")
    _check_points(args, args.n_max)
    _check_pairs(args, args.n_max)
    measure = _measure_from_args(args)
    path = slln_path(measure, args.s, args.n_max, args.seed, threads=args.threads)
    payload = {
        "measure": measure_to_json(measure),
        "s": args.s,
        "n_max": args.n_max,
        "tail": [{"n": n, "J": j} for n, j in path[max(0, len(path) - args.tail) :]],
    }
    if not args.csv:
        return payload, {}
    return payload, {args.csv: "n,J\n" + "".join(f"{n},{j:.17g}\n" for n, j in path)}


def _cmd_ballcheck(args) -> tuple[dict, dict]:
    from dataclasses import asdict

    from .balls import BallMeasureParams, ball_energy_numeric, ball_energy_predicted

    if args.s is None:
        raise ValueError("ballcheck needs --s")
    cloud = _load_cloud(args)
    params = BallMeasureParams(args.s, args.c, cloud.n)
    # the prediction checks the hypotheses, so a violation costs no quadrature
    predicted = ball_energy_predicted(cloud, params, threads=args.threads)
    numeric = ball_energy_numeric(cloud, params, threads=args.threads)
    gap = abs(numeric.value - predicted.value) / predicted.value
    payload = {
        "s": args.s,
        "c": args.c,
        "n": cloud.n,
        "dim": cloud.dim,
        "radius": params.radius,
        "numeric": asdict(numeric),
        "predicted": asdict(predicted),
        "relative_gap": gap,
    }
    return payload, {}


def _cmd_distset(args) -> tuple[dict, dict]:
    from .sets import distance_set

    cloud = _load_cloud(args)
    quant = args.quantization
    if quant not in (None, "exact", "auto"):
        quant = float(quant)
    elif quant is None:
        quant = "auto"
    vs = distance_set(cloud, quant)
    payload = vs.to_json(max_values=10**9 if args.full else 100_000)
    payload["n"] = cloud.n
    return payload, {}


def _cmd_dotset(args) -> tuple[dict, dict]:
    from .sets import dot_product_set

    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n + 1)  # pairs i <= j: n(n+1)/2, self-pairs included
    quant = float(args.quantization) if args.quantization else None
    vs = dot_product_set(cloud, quant)
    payload = vs.to_json(max_values=10**9 if args.full else 100_000)
    payload["n"] = cloud.n
    return payload, {}


def _cmd_erdos(args) -> tuple[dict, dict]:
    from .sets import erdos_report

    cloud = _load_cloud(args)
    exps = _parse_list(args.exponents, float, "--exponents") if args.exponents else None
    report = erdos_report(cloud, exps)
    rows = (
        f"{row['s0']:.17g},{row['exponent']:.17g},{report.count},{report.n},"
        f"{row['bound']:.17g},{row['ratio']:.17g}\n"
        for row in report.rows
    )
    return report.to_json(), {args.output: "s0,exponent,count,n,bound,ratio\n" + "".join(rows)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszdim",
        description=(
            "Discrete Riesz energies of point sets, energy-based dimension "
            "estimates, statistical checks for random clouds, and distance/"
            "dot-product set reports."
        ),
    )
    parser.add_argument("--version", action="version", version=f"rieszdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated point cloud as CSV")
    _add_common(p, seed=False, threads=False, pairs=False)
    _add_gen_args(p, with_input=False)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "energy",
        help="discrete s-energy of a cloud: the normalized sum of inverse "
        "pairwise distances to the power s; --s-grid/--n-grid for a prefix "
        "profile, --cutoff-radius for the smoothly truncated variant",
    )
    _add_common(p, seed=False, threads=True, pairs=True)
    _add_gen_args(p)
    p.add_argument("--s-grid", help="comma-separated exponents (profile mode)")
    p.add_argument("--n-grid", help="comma-separated prefix sizes (profile mode)")
    p.add_argument("--cutoff-radius", type=float, help="truncated-kernel radius")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "dim",
        help="dimension estimate: largest exponent whose prefix-energy "
        "log-log growth stays at or below the threshold",
    )
    _add_common(p, seed=False, threads=True, pairs=True)
    _add_gen_args(p)
    p.add_argument("--s-min", type=float, default=0.1)
    p.add_argument("--s-max", type=float, default=1.9)
    p.add_argument("--s-step", type=float, default=0.1)
    p.add_argument("--threshold", type=float, default=0.1, help="slope cutoff")
    p.add_argument("--n-grid", help="comma-separated prefix sizes")
    p.add_argument("--window", help="fit window 'n_lo,n_hi'")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "varscan",
        help="dispersion scan max(J)/median(J) over replicates per exponent; "
        "the score is >= 1, and once the energy at twice the exponent diverges "
        "(s > d/2) its excess over 1 grows with the replicate count",
    )
    _add_common(p, seed=True, threads=True, pairs=True)
    _add_measure_args(p)
    p.add_argument("--s-grid", required=True, help="comma-separated exponents")
    p.add_argument("--n", type=int, required=True, help="cloud size per replicate")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_varscan)

    p = sub.add_parser("sample", help="draw an IID cloud from a measure, as CSV")
    _add_common(p, seed=True, threads=False, pairs=False)
    _add_measure_args(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "lln-mean",
        help="replicate mean of J_s against the reference energy (the sample "
        "energy is unbiased for the measure energy at every n)",
    )
    _add_common(p, seed=True, threads=True, pairs=True)
    _add_measure_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    oracle = p.add_mutually_exclusive_group()
    oracle.add_argument("--oracle", type=float, help="explicit reference energy")
    oracle.add_argument("--no-oracle", action="store_true", help="waive the oracle comparison")
    p.add_argument("--per-rep-csv", help="write per-replicate energies as CSV here")
    p.set_defaults(func=_cmd_lln_mean)

    p = sub.add_parser(
        "lln-weak",
        help="exceedance rates of |J_s - I_s| > eps per sample size "
        "(weak-law check: rates fall as n grows)",
    )
    _add_common(p, seed=True, threads=True, pairs=True)
    _add_measure_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--per-rep-csv", help="write per-replicate energies as CSV here")
    p.set_defaults(func=_cmd_lln_weak)

    p = sub.add_parser(
        "lln-path",
        help="one growing sample path with incremental running energies "
        "(strong-law check: tail deviations die out)",
    )
    _add_common(p, seed=True, threads=True, pairs=True)
    _add_measure_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tail", type=int, default=64, help="tail entries included in JSON")
    p.add_argument("--csv", help="write the full (n, J) path as CSV here")
    p.set_defaults(func=_cmd_lln_path)

    p = sub.add_parser(
        "ballcheck",
        help="ball-measure energy: numeric integration against the "
        "closed-form prediction ((n-1)/n J_s plus the ball constant)",
    )
    _add_common(p, seed=False, threads=True, pairs=True)
    _add_gen_args(p)
    p.add_argument("--c", type=float, required=True, help="ball radius scale")
    p.set_defaults(func=_cmd_ballcheck)

    p = sub.add_parser("distset", help="distinct pairwise distances of a cloud")
    # ignores --threads, which perfbench passes to every workload
    _add_common(p, seed=False, threads=True, pairs=True)
    _add_gen_args(p)
    p.add_argument("--quantization", help="'exact', 'auto', or a grid step")
    p.add_argument("--full", action="store_true", help="emit values past the 1e5 cap")
    p.set_defaults(func=_cmd_distset)

    p = sub.add_parser("dotset", help="distinct pairwise dot products (ordered pairs)")
    _add_common(p, seed=False, threads=False, pairs=True)
    _add_gen_args(p)
    p.add_argument("--quantization", help="dedup grid step")
    p.add_argument("--full", action="store_true", help="emit values past the 1e5 cap")
    p.set_defaults(func=_cmd_dotset)

    p = sub.add_parser(
        "erdos",
        help="distinct-distance count against n^(1/s0) thresholds "
        "(observational growth report)",
    )
    _add_common(p, seed=False, threads=False, pairs=True)
    _add_gen_args(p)
    p.add_argument("--exponents", help="comma-separated thresholds s0")
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_erdos)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # -h, --version and argparse's own usage errors
        return 0 if exc.code is None else exc.code
    started = time.time()
    try:
        payload, files = args.func(args)
        doc = _envelope(args, payload, started)
        # gen, sample, varscan and erdos put their table on -o, the envelope on --json
        if not hasattr(args, "json"):
            files[args.output] = doc
        elif args.json:
            files[args.json] = doc
        # stdout last: a file that cannot be opened leaves it empty
        for path in sorted(files, key=lambda path: path is None):
            _emit_text(files[path], path)
    except RieszdimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad, missing or conflicting flags, paths that cannot be opened, malformed documents
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0
