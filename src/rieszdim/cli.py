"""Command line interface.

One subcommand per operation family: generators emit the point CSV format,
analysis commands emit a JSON result envelope (tool version, config echo,
timing, payload), and tabular reports emit CSV. Runs are reproducible from
the config echo; every stochastic command records its seed. Exit codes:
0 success, 1 domain error (the error class name goes to stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .cloud import PointCloud, dumps_csv, read_csv
from .energy import (
    discrete_energy,
    energy_profile,
    profile_from_family,
    truncated_energy,
)
from .errors import NonFiniteResult, RieszdimError, SizeCapExceeded
from .estimator import (
    default_window,
    dimension_estimate,
    variance_blowup_scan,
)
from .generators import (
    CantorFactor,
    CantorSpec,
    EnergyTargetSpec,
    cantor_points,
    cantor_prefix_sizes,
    energy_sequence_points,
    grid_1d,
    lattice,
    semicircle_phase_points,
)
from .measures import (
    BallMeasureParams,
    CantorProduct,
    Empirical,
    RotatingSemicircle,
    UniformCircle,
    UniformCube,
    ball_energy_numeric,
    ball_energy_predicted,
    measure_from_json,
    measure_to_json,
    sample_detail,
)
from .sets import distance_set, dot_product_set, erdos_report
from .stats import expectation_experiment, slln_path, wlln_exceedance

SCHEMA_VERSION = 1
OUTDIR_ENV = "RIESZDIM_OUT"


def _resolve(path):
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit_text(text: str, path) -> None:
    path = _resolve(path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
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


def _envelope(args, payload: dict, started: float) -> str:
    """The JSON result envelope; an infinity is written as ``null`` and a
    NaN raises :class:`NonFiniteResult` rather than yield invalid JSON."""
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "_started") and v is not None
    }
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


def _emit_table(args, text: str, payload: dict) -> None:
    """Write CSV ``text`` to --output and, with --json, the envelope of
    ``payload``. The envelope is built first, so a NaN leaves no output."""
    doc = _envelope(args, payload, args._started) if args.json else None
    _emit_text(text, args.output)
    if doc is not None:
        _emit_text(doc, args.json)


def _parse_list(text, cast):
    return [cast(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _check_pairs(args, *sizes, reps: int = 1) -> None:
    """Refuse a run whose pair evaluations, reps x pairs(n) summed over the
    cloud sizes, exceed --max-pairs."""
    pairs = reps * sum(n * (n - 1) // 2 for n in sizes)
    if pairs > args.max_pairs:
        raise SizeCapExceeded(f"{pairs} pairs exceed the cap {args.max_pairs}")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--threads", type=int, default=1, help="worker thread bound (results unchanged)")
    p.add_argument("--max-points", type=int, default=100_000, help="point allocation cap")
    p.add_argument("--max-pairs", type=int, default=10_000_000_000, help="pair evaluation cap")
    p.add_argument("-o", "--output", help="output file (default stdout); relative paths honor $" + OUTDIR_ENV)


def _add_gen_args(p):
    g = p.add_argument_group("generator")
    g.add_argument("--gen", choices=["grid1d", "lattice", "cantor", "semicircle", "energy-seq"])
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
    g.add_argument("--tolerance", type=float, default=1e-6, help="relative target tolerance")


def _cantor_spec_from_args(args) -> CantorSpec:
    if args.spec_json:
        with open(_resolve(args.spec_json), "r", encoding="utf-8") as f:
            doc = json.load(f)
        factors = tuple(
            CantorFactor(int(f["m"]), int(f["n"]), tuple(f.get("kept") or ()))
            for f in doc["factors"]
        )
        return CantorSpec(factors, int(doc["level"]))
    if args.m is None or args.n is None or args.level is None:
        raise SystemExit(_usage_error("cantor generation needs --m, --n and --level"))
    kept = tuple(_parse_list(args.kept, int)) if args.kept else ()
    factor = CantorFactor(args.m, args.n, kept)
    d = args.d or 1
    return CantorSpec((factor,) * d, args.level)


def _usage_error(msg: str) -> int:
    print(f"usage error: {msg}", file=sys.stderr)
    return 2


def _generate(args) -> PointCloud:
    kind = args.gen
    cap = args.max_points
    if kind == "grid1d":
        if args.n is None:
            raise SystemExit(_usage_error("grid1d needs --n"))
        if args.n > cap:
            raise SizeCapExceeded(f"grid1d of {args.n} points exceeds the cap {cap}")
        return grid_1d(args.n)
    if kind == "lattice":
        if args.d is None or args.k is None:
            raise SystemExit(_usage_error("lattice needs --d and --k"))
        return lattice(args.d, args.k, max_points=cap)
    if kind == "cantor":
        return cantor_points(_cantor_spec_from_args(args), max_points=cap)
    if kind == "semicircle":
        if args.phases is None or args.per_phase is None:
            raise SystemExit(_usage_error("semicircle needs --phases and --per-phase"))
        if args.phases * args.per_phase > cap:
            raise SizeCapExceeded("semicircle budget exceeds the point cap")
        return semicircle_phase_points(args.phases, args.per_phase)
    if kind == "energy-seq":
        if args.spec_json:
            with open(_resolve(args.spec_json), "r", encoding="utf-8") as f:
                doc = json.load(f)
            spec = EnergyTargetSpec(
                float(doc["s"]),
                tuple(float(e) for e in doc["targets"]),
                float(doc.get("tolerance", args.tolerance)),
            )
        elif args.s is None or not args.targets:
            raise SystemExit(_usage_error("energy-seq needs --s and --targets"))
        else:
            spec = EnergyTargetSpec(
                args.s, tuple(_parse_list(args.targets, float)), args.tolerance
            )
        cloud, _ = energy_sequence_points(spec, args.d or 1)
        return cloud
    raise SystemExit(_usage_error("no generator selected (--gen)"))


def _load_cloud(args) -> PointCloud:
    if getattr(args, "input", None):
        cloud = read_csv(_resolve(args.input))
        if cloud.n > args.max_points:
            raise SizeCapExceeded(
                f"input holds {cloud.n} points, cap is {args.max_points}"
            )
        return cloud
    if getattr(args, "gen", None):
        return _generate(args)
    raise SystemExit(_usage_error("provide --input CSV or --gen KIND"))


def _add_measure_args(p):
    g = p.add_argument_group("measure")
    g.add_argument(
        "--measure",
        choices=["cube", "circle", "cantor", "semicircle", "empirical"],
        help="measure variant",
    )
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
    if args.measure_json:
        with open(_resolve(args.measure_json), "r", encoding="utf-8") as f:
            return measure_from_json(json.load(f))
    kind = args.measure
    if kind == "cube":
        return UniformCube(args.dim)
    if kind == "circle":
        return UniformCircle()
    if kind == "cantor":
        if args.m is None or args.n_base is None:
            raise SystemExit(_usage_error("cantor measure needs --m and --n-base"))
        kept = tuple(_parse_list(args.kept, int)) if args.kept else ()
        factor = CantorFactor(args.m, args.n_base, kept)
        return CantorProduct((factor,) * args.factor_dim, args.depth)
    if kind == "semicircle":
        return RotatingSemicircle(args.phase)
    if kind == "empirical":
        if not args.points:
            raise SystemExit(_usage_error("empirical measure needs --points CSV"))
        return Empirical(read_csv(_resolve(args.points)))
    raise SystemExit(_usage_error("provide --measure or --measure-json"))


def _cmd_gen(args) -> int:
    cloud = _generate(args)
    _emit_table(args, dumps_csv(cloud), {"points": cloud.n, "dim": cloud.dim})
    return 0


def _cmd_sample(args) -> int:
    if args.count > args.max_points:
        raise SizeCapExceeded(f"{args.count} points exceed the cap {args.max_points}")
    measure = _measure_from_args(args)
    cloud, info = sample_detail(measure, args.count, args.seed)
    payload = {
        "points": cloud.n,
        "dim": cloud.dim,
        "measure": measure_to_json(measure),
        "perturbed_duplicates": info.perturbed,
        "method": "sampler",
    }
    _emit_table(args, dumps_csv(cloud), payload)
    return 0


def _cmd_energy(args) -> int:
    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n)
    if args.s_grid and args.n_grid:
        prof = energy_profile(
            cloud,
            _parse_list(args.s_grid, float),
            _parse_list(args.n_grid, int),
            threads=args.threads,
        )
        payload = {
            "mode": "profile",
            "s_grid": list(prof.s_grid),
            "n_grid": list(prof.n_grid),
            "values": prof.values.tolist(),
        }
    elif args.cutoff_radius is not None:
        if args.s is None:
            raise SystemExit(_usage_error("truncated energy needs --s"))
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
        if args.s is None:
            raise SystemExit(_usage_error("energy needs --s (or --s-grid with --n-grid)"))
        value = discrete_energy(cloud, args.s, threads=args.threads)
        payload = {
            "mode": "single",
            "s": args.s,
            "value": value,
            "n": cloud.n,
            "dim": cloud.dim,
        }
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _auto_n_grid(args, cloud: PointCloud):
    if args.n_grid:
        return _parse_list(args.n_grid, int)
    if getattr(args, "gen", None) == "cantor":
        sizes = [s for s in cantor_prefix_sizes(_cantor_spec_from_args(args)) if s >= 4]
        return sizes
    if getattr(args, "gen", None) == "lattice":
        return [2 ** (j * args.d) for j in range(1, args.k + 1) if 2 ** (j * args.d) >= 4]
    lo = max(8, cloud.n // 64)
    grid = []
    v = lo
    while v < cloud.n:
        grid.append(v)
        v *= 2
    grid.append(cloud.n)
    return sorted(set(grid))


def _cmd_dim(args) -> int:
    if not args.s_step > 0:
        raise ValueError("--s-step must be positive")
    s_grid = [round(s, 10) for s in np.arange(args.s_min, args.s_max + 1e-9, args.s_step)]
    if getattr(args, "gen", None) == "grid1d":
        # Grid members are rescaled per n, not prefixes of one sequence;
        # profile the family of whole grids instead.
        if args.n is None:
            raise SystemExit(_usage_error("grid1d needs --n"))
        n_grid = _parse_list(args.n_grid, int) if args.n_grid else None
        if n_grid is None:
            n_grid = []
            v = max(8, args.n // 16)
            while v < args.n:
                n_grid.append(v)
                v *= 2
            n_grid.append(args.n)
        _check_pairs(args, max(n_grid))

        def profile(s_list, ns):
            clouds = [grid_1d(n) for n in ns]
            return profile_from_family(clouds, s_list, threads=args.threads)
    else:
        cloud = _load_cloud(args)
        _check_pairs(args, cloud.n)
        n_grid = _auto_n_grid(args, cloud)

        def profile(s_list, ns):
            return energy_profile(cloud, s_list, ns, threads=args.threads)

    prof = profile(s_grid, n_grid)
    window = tuple(_parse_list(args.window, int)) if args.window else default_window(n_grid)
    est = dimension_estimate(
        prof,
        args.threshold,
        window=window,
        recompute=lambda s, ns: profile([s], ns).values[0],
    )
    payload = est.to_json()
    payload["n_grid"] = list(prof.n_grid)
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _cmd_varscan(args) -> int:
    _check_pairs(args, args.n, reps=args.reps)
    measure = _measure_from_args(args)
    scores = variance_blowup_scan(
        measure,
        _parse_list(args.s_grid, float),
        args.n,
        args.reps,
        args.seed,
        threads=args.threads,
    )
    buf = io.StringIO()
    buf.write("s,score\n")
    for s, score in scores:
        buf.write(f"{s:.17g},{score:.17g}\n")
    payload = {
        "measure": measure_to_json(measure),
        "n": args.n,
        "reps": args.reps,
        "scores": [{"s": s, "score": v} for s, v in scores],
    }
    _emit_table(args, buf.getvalue(), payload)
    return 0


def _write_per_rep_csv(path, report) -> None:
    buf = io.StringIO()
    buf.write("n,rep,J\n")
    for n, values in zip(report.n_grid, report.replicates):
        for r, j in enumerate(values):
            buf.write(f"{n},{r},{j:.17g}\n")
    _emit_text(buf.getvalue(), path)


def _cmd_lln_mean(args) -> int:
    _check_pairs(args, args.n, reps=args.reps)
    measure = _measure_from_args(args)
    oracle = "auto" if args.oracle is None else args.oracle
    if args.no_oracle:
        oracle = None
    report = expectation_experiment(
        measure, args.s, args.n, args.reps, args.seed, oracle=oracle, threads=args.threads
    )
    if args.per_rep_csv:
        _write_per_rep_csv(args.per_rep_csv, report)
    _emit_text(_envelope(args, report.to_json(), args._started), args.output)
    return 0


def _cmd_lln_weak(args) -> int:
    n_grid = _parse_list(args.n_grid, int)
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
    if args.per_rep_csv:
        _write_per_rep_csv(args.per_rep_csv, report)
    _emit_text(_envelope(args, report.to_json(), args._started), args.output)
    return 0


def _cmd_lln_path(args) -> int:
    if args.tail < 0:
        raise ValueError("--tail must be >= 0")
    _check_pairs(args, args.n_max)
    measure = _measure_from_args(args)
    path = slln_path(measure, args.s, args.n_max, args.seed, threads=args.threads)
    payload = {
        "measure": measure_to_json(measure),
        "s": args.s,
        "n_max": args.n_max,
        "tail": [{"n": n, "J": j} for n, j in path[max(0, len(path) - args.tail) :]],
    }
    if args.csv:
        buf = io.StringIO()
        buf.write("n,J\n")
        for n, j in path:
            buf.write(f"{n},{j:.17g}\n")
        _emit_text(buf.getvalue(), args.csv)
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _cmd_ballcheck(args) -> int:
    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n)
    params = BallMeasureParams(args.s, args.c, cloud.n)
    # the prediction checks the hypotheses, so a violation costs no quadrature
    predicted = ball_energy_predicted(cloud, params, threads=args.threads)
    numeric = ball_energy_numeric(cloud, params, seed=args.seed)
    gap = abs(numeric.value - predicted.value) / predicted.value
    payload = {
        "s": args.s,
        "c": args.c,
        "n": cloud.n,
        "dim": cloud.dim,
        "radius": params.radius,
        "numeric": {
            "value": numeric.value,
            "same_ball": numeric.same_ball,
            "cross": numeric.cross,
            "method": numeric.method,
            "standard_error": numeric.standard_error,
        },
        "predicted": {
            "value": predicted.value,
            "point_energy": predicted.point_energy,
            "constant": predicted.constant,
            "epsilon": predicted.epsilon,
            "min_gap": predicted.min_gap,
            "required_gap": predicted.required_gap,
        },
        "relative_gap": gap,
    }
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _cmd_distset(args) -> int:
    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n)
    quant = args.quantization
    if quant not in (None, "exact", "auto"):
        quant = float(quant)
    elif quant is None:
        quant = "auto"
    vs = distance_set(cloud, quant)
    payload = vs.to_json(max_values=10**9 if args.full else 100_000)
    payload["n"] = cloud.n
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _cmd_dotset(args) -> int:
    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n + 1)  # pairs i <= j: n(n+1)/2, self-pairs included
    quant = float(args.quantization) if args.quantization else None
    vs = dot_product_set(cloud, quant)
    payload = vs.to_json(max_values=10**9 if args.full else 100_000)
    payload["n"] = cloud.n
    _emit_text(_envelope(args, payload, args._started), args.output)
    return 0


def _cmd_erdos(args) -> int:
    cloud = _load_cloud(args)
    _check_pairs(args, cloud.n)
    exps = _parse_list(args.exponents, float) if args.exponents else None
    report = erdos_report(cloud, exps)
    buf = io.StringIO()
    buf.write("s0,exponent,count,n,bound,ratio\n")
    for row in report.rows:
        buf.write(
            f"{row['s0']:.17g},{row['exponent']:.17g},{report.count},{report.n},"
            f"{row['bound']:.17g},{row['ratio']:.17g}\n"
        )
    _emit_table(args, buf.getvalue(), report.to_json())
    return 0


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
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "energy",
        help="discrete s-energy of a cloud: the normalized sum of inverse "
        "pairwise distances to the power s; --s-grid/--n-grid for a prefix "
        "profile, --cutoff-radius for the smoothly truncated variant",
    )
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
    p.add_argument("--s-grid", help="comma-separated exponents (profile mode)")
    p.add_argument("--n-grid", help="comma-separated prefix sizes (profile mode)")
    p.add_argument("--cutoff-radius", type=float, help="truncated-kernel radius")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "dim",
        help="dimension estimate: largest exponent whose prefix-energy "
        "log-log growth stays at or below the threshold",
    )
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
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
    _add_common(p)
    _add_measure_args(p)
    p.add_argument("--s-grid", required=True, help="comma-separated exponents")
    p.add_argument("--n", type=int, required=True, help="cloud size per replicate")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_varscan)

    p = sub.add_parser("sample", help="draw an IID cloud from a measure, as CSV")
    _add_common(p)
    _add_measure_args(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "lln-mean",
        help="replicate mean of J_s against the reference energy (the sample "
        "energy is unbiased for the measure energy at every n)",
    )
    _add_common(p)
    _add_measure_args(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--oracle", type=float, help="explicit reference energy")
    p.add_argument("--no-oracle", action="store_true", help="waive the oracle comparison")
    p.add_argument("--per-rep-csv", help="write per-replicate energies as CSV here")
    p.set_defaults(func=_cmd_lln_mean)

    p = sub.add_parser(
        "lln-weak",
        help="exceedance rates of |J_s - I_s| > eps per sample size "
        "(weak-law check: rates fall as n grows)",
    )
    _add_common(p)
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
    _add_common(p)
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
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
    p.add_argument("--c", type=float, required=True, help="ball radius scale")
    p.set_defaults(func=_cmd_ballcheck)

    p = sub.add_parser("distset", help="distinct pairwise distances of a cloud")
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
    p.add_argument("--quantization", help="'exact', 'auto', or a grid step")
    p.add_argument("--full", action="store_true", help="emit values past the 1e5 cap")
    p.set_defaults(func=_cmd_distset)

    p = sub.add_parser("dotset", help="distinct pairwise dot products (ordered pairs)")
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
    p.add_argument("--quantization", help="dedup grid step")
    p.add_argument("--full", action="store_true", help="emit values past the 1e5 cap")
    p.set_defaults(func=_cmd_dotset)

    p = sub.add_parser(
        "erdos",
        help="distinct-distance count against n^(1/s0) thresholds "
        "(observational growth report)",
    )
    _add_common(p)
    _add_gen_args(p)
    p.add_argument("--input", help="point CSV file")
    p.add_argument("--exponents", help="comma-separated thresholds s0")
    p.add_argument("--json", help="also write a JSON result envelope here")
    p.set_defaults(func=_cmd_erdos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = time.time()
    try:
        return args.func(args)
    except RieszdimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad flag values (ranges, grids, seeds) are usage errors
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
