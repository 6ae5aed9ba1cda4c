"""Traced in-process run of the rieszdim CLI, measured from outside.

Run as a script, this file imports rieszdim from a source tree, wraps the
public functions of each layer by rebinding their names in every rieszdim
module that holds them, calls ``rieszdim.cli.main(argv)`` once and writes
the spans and the captured standard output to files:

    python3 perfbench/tracing.py SRC_DIR SPANS_JSON STDOUT_FILE -- ARGV...

A span records its name, start and end (ns), its parent span and the work
counted at the call boundary (pairs, exponents, replicates, values). Spans
stay in memory until the run ends. ``layer_metrics`` turns them into the
benchmark's per-layer metrics; the library source is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# (module, attribute, span name, work counter(args, kwargs, result) -> dict)
TRACED = (
    ("cloud", "read_csv", "cloud.read_csv", None),
    ("generators", "grid_1d", "generators.grid_1d", None),
    ("energy", "energy_profile", "energy.energy_profile",
     lambda a, k, r: {"evals": _pairs(r.n_grid[-1]) * len(r.s_grid)}),
    ("energy", "discrete_energy", "energy.discrete_energy",
     lambda a, k, r: {"evals": _pairs(a[0].n)}),
    ("energy", "discrete_energy_multi", "energy.discrete_energy_multi",
     lambda a, k, r: {"evals": _pairs(a[0].n) * len(a[1])}),
    ("measures", "sample", "measures.sample", None),
    ("stats", "replicate_energies", "stats.replicate_energies",
     lambda a, k, r: {"replicates": r.shape[1]}),
    ("estimator", "dimension_estimate", "estimator.dimension_estimate", None),
    ("estimator", "variance_blowup_scan", "estimator.variance_blowup_scan", None),
    ("sets", "distance_set", "sets.distance_set",
     lambda a, k, r: {"pairs": _pairs(a[0].n), "values": r.count}),
)
MODULES = ("cli", "cloud", "energy", "estimator", "generators", "measures", "sets", "stats")


class Tracer:
    """In-memory span recorder for one single-threaded call tree."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "start": time.perf_counter_ns()}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span["work"] = count(args, kwargs, result)
            return result

        return traced

    def install(self, rieszdim_modules: dict) -> None:
        """Rebind every traced function wherever a rieszdim module holds it."""
        for home, attr, name, count in TRACED:
            original = getattr(rieszdim_modules[home], attr)
            wrapped = self.wrap(name, original, count)
            for mod in rieszdim_modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cloud_cls = rieszdim_modules["cloud"].PointCloud
        cloud_cls.diameter = self.wrap("cloud.diameter", cloud_cls.diameter)


def _self_ns(spans) -> list:
    """Span duration minus its direct children (sequential on one thread)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer values (seconds, ns per unit of work, counts) from spans."""
    own = _self_ns(spans)

    def pick(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def dur_s(idx):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx) / 1e9

    def self_s(idx):
        return sum(own[i] for i in idx) / 1e9

    def work(idx, key):
        return sum(spans[i].get("work", {}).get(key, 0) for i in idx)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    main = pick("cli.main")
    profile = pick("energy.energy_profile")
    pair = pick("energy.discrete_energy", "energy.discrete_energy_multi")
    replicate = pick("stats.replicate_energies")
    estimator = pick("estimator.dimension_estimate", "estimator.variance_blowup_scan")
    dedup = pick("sets.distance_set")
    recompute = [i for i in profile + pair
                 if _has_ancestor(spans, i, "estimator.dimension_estimate")]
    sample = pick("measures.sample")
    dedup_pairs = work(dedup, "pairs")
    return {
        "cli.self_s": self_s(main),
        "cli.output_bytes": output_bytes,
        "cloud.read_csv_s": dur_s(pick("cloud.read_csv")),
        "cloud.diameter_s": dur_s(pick("cloud.diameter")),
        "generators.grid_1d_s": dur_s(pick("generators.grid_1d")),
        "energy.profile_s": dur_s(profile),
        "energy.profile_ns": per(self_s(profile), work(profile, "evals"), 1e9),
        "energy.profile_calls": len(profile),
        "energy.pair_s": dur_s(pair),
        "energy.pair_ns": per(self_s(pair), work(pair, "evals"), 1e9),
        "energy.pair_calls": len(pair),
        "energy.pair_evals": work(pair, "evals"),
        "measures.sample_s": dur_s(sample),
        "measures.sample_calls": len(sample),
        "stats.replicate_self_s": self_s(replicate),
        "stats.replicates": work(replicate, "replicates"),
        "stats.replicate_overhead_us": per(self_s(replicate), work(replicate, "replicates"), 1e6),
        "estimator.self_s": self_s(estimator),
        "estimator.recompute_s": dur_s(recompute),
        "sets.distance_set_s": dur_s(dedup),
        "sets.dedup_ns": per(self_s(dedup), dedup_pairs, 1e9),
        "sets.distinct_values": work(dedup, "values"),
        "sets.distinct_ratio": per(work(dedup, "values"), dedup_pairs, 1.0),
    }


def entry_share(spans, entry: str) -> float:
    """Share of the traced ``cli.main`` time spent in functions named ``entry``."""
    main = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    inside = sum(s["end"] - s["start"] for s in spans if s["name"].endswith("." + entry))
    return inside / main if main else 0.0


def entry_calls(spans, entry: str) -> int:
    return sum(1 for s in spans if s["name"].endswith("." + entry))


def _main(argv) -> int:
    src, spans_path, stdout_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SRC_DIR SPANS_JSON STDOUT_FILE -- ARGV...")
    sys.path.insert(0, src)
    import importlib

    mods = {m: importlib.import_module(f"rieszdim.{m}") for m in MODULES}
    package_dir = Path(mods["cli"].__file__).resolve().parent
    if package_dir != (Path(src) / "rieszdim").resolve():
        raise SystemExit(f"imported rieszdim from {package_dir}, not from {src}")
    tracer = Tracer()
    tracer.install(mods)
    main = tracer.wrap("cli.main", mods["cli"].main)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(cli_argv)
    Path(stdout_path).write_bytes(captured.getvalue().encode("utf-8"))
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
