import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rieszdim as rd
import rieszdim.cli as cli_mod
from conftest import random_cloud
from rieszdim.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    return json.loads(out)["payload"]


def test_gen_grid_csv(capsys, tmp_path):
    code, out, _ = run_cli(["gen", "--gen", "grid1d", "--n", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# dim=1"
    assert [float(v) for v in lines[1:]] == [0.2, 0.4, 0.6, 0.8]


def test_gen_energy_round_trip(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    code, _, _ = run_cli(
        ["gen", "--gen", "lattice", "--d", "2", "--k", "3", "-o", str(path)], capsys
    )
    assert code == 0
    cloud = rd.read_csv(path)
    expected = rd.discrete_energy(cloud, 0.7)
    code, out, _ = run_cli(["energy", "--input", str(path), "--s", "0.7"], capsys)
    assert code == 0
    value = payload_of(out)["value"]
    assert value == expected  # 17-digit serialization is lossless


def test_energy_two_point_example(capsys, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0\n0.5\n")
    code, out, _ = run_cli(["energy", "--input", str(path), "--s", "1"], capsys)
    assert code == 0
    assert payload_of(out)["value"] == pytest.approx(2.0, rel=1e-15)


def test_energy_duplicate_points_exit_code(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,1\n0,1\n")
    code, _, err = run_cli(["energy", "--input", str(path), "--s", "1"], capsys)
    assert code == 1
    assert "DuplicatePoints" in err


def test_energy_of_points_closer_than_square_underflow(capsys, tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("0\n1e-300\n0.5\n")
    code, out, _ = run_cli(["energy", "--input", str(path), "--s", "0.5"], capsys)
    assert code == 0
    assert payload_of(out)["value"] == pytest.approx((1e150 + 2.0 * 0.5**-0.5) / 3.0)


def strict_json(text):
    """Parse RFC 8259 JSON: reject the non-standard Infinity and NaN."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_overflowed_energy_is_written_as_null(capsys, tmp_path):
    path = tmp_path / "close.csv"
    path.write_text("0\n1e-100\n0.5\n")  # one term 1e400 at s = 4
    code, out, _ = run_cli(["energy", "--input", str(path), "--s", "4"], capsys)
    assert code == 0
    assert strict_json(out)["payload"]["value"] is None
    code, out, _ = run_cli(
        ["energy", "--input", str(path), "--s-grid", "1,4", "--n-grid", "2,3"], capsys
    )
    assert code == 0
    assert strict_json(out)["payload"]["values"][1] == [None, None]


def test_envelope_refuses_nan(monkeypatch, capsys, tmp_path):
    import rieszdim.energy as energy_mod

    path = tmp_path / "two.csv"
    path.write_text("0\n0.5\n")
    monkeypatch.setattr(energy_mod, "discrete_energy", lambda *a, **k: float("nan"))
    code, out, err = run_cli(["energy", "--input", str(path), "--s", "1"], capsys)
    assert code == 1  # a NaN result is a domain error, not a usage error
    assert out == ""
    assert "NonFiniteResult" in err and "envelope.payload.value" in err


def test_nan_envelope_leaves_no_csv_behind(monkeypatch, capsys, tmp_path):
    import rieszdim.estimator as estimator_mod

    monkeypatch.setattr(
        estimator_mod, "variance_blowup_scan", lambda *a, **k: [(0.5, 1.0), (1.5, float("nan"))]
    )
    table, doc = tmp_path / "scan.csv", tmp_path / "scan.json"
    argv = ["varscan", "--measure", "cube", "--dim", "1", "--s-grid", "0.5,1.5",
            "--n", "8", "--reps", "2", "--output", str(table), "--json", str(doc)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "envelope.payload.scores[1].score" in err
    assert not table.exists() and not doc.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # at s = 200 every replicate energy overflows, and inf / inf is a NaN
        ["varscan", "--measure", "cube", "--dim", "1", "--s-grid", "0.5,200",
         "--n", "30", "--reps", "50"],
        ["lln-mean", "--measure", "cube", "--s", "200", "--n", "50", "--reps", "30",
         "--no-oracle", "--per-rep-csv", "rep.csv", "-o", "out.json"],
    ],
)
def test_nan_result_writes_nothing(argv, tmp_path):
    # a child process: the NaN comes with numpy warnings, which fail this suite
    env = {**os.environ, "RIESZDIM_OUT": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-m", "rieszdim", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "NonFiniteResult" in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


# with both -o and --json: test_nan_envelope_leaves_no_csv_behind
@pytest.mark.parametrize("outputs", [[], ["-o", "scan.csv"], ["--json", "scan.json"]])
def test_nan_score_writes_nothing_with_any_output_flags(outputs, capsys, tmp_path, monkeypatch):
    import rieszdim.estimator as estimator_mod

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        estimator_mod, "variance_blowup_scan", lambda *a, **k: [(0.5, 1.0), (1.5, float("nan"))]
    )
    argv = ["varscan", "--measure", "cube", "--dim", "1", "--s-grid", "0.5,1.5",
            "--n", "8", "--reps", "50"]
    code, out, err = run_cli(argv + outputs, capsys)
    assert code == 1
    assert "envelope.payload.scores[1].score" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_nan_path_leaves_no_path_csv(capsys, tmp_path, monkeypatch):
    import rieszdim.stats as stats_mod

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(stats_mod, "slln_path", lambda *a, **k: [(2, 1.0), (3, float("nan"))])
    argv = ["lln-path", "--measure", "cube", "--s", "0.4", "--n-max", "3", "--csv", "p.csv"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "envelope.payload.tail[1].J" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_energy_profile_mode(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    rd.write_csv(rd.grid_1d(16), path)
    code, out, _ = run_cli(
        ["energy", "--input", str(path), "--s-grid", "0,0.5", "--n-grid", "4,8,16"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["mode"] == "profile"
    assert payload["values"][0] == [1.0, 1.0, 1.0]


def test_energy_truncated_mode(capsys, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0\n0.5\n")
    code, out, _ = run_cli(
        ["energy", "--input", str(path), "--s", "1", "--cutoff-radius", "0.2"], capsys
    )
    assert code == 0
    assert payload_of(out)["value"] == 1.0


def test_dim_cantor_example(capsys):
    code, out, _ = run_cli(
        ["dim", "--gen", "cantor", "--m", "2", "--n", "3", "--level", "8",
         "--threshold", "0.2"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert abs(payload["s_hat"] - 0.6309) <= 0.07
    assert payload["threshold"] == 0.2


def test_dim_grid_family(capsys, tmp_path):
    csv = tmp_path / "u1000.csv"
    rd.write_csv(rd.sample(rd.UniformCube(1), 1000, 7), csv)
    cases = (
        (["--gen", "grid1d", "--n", "2048", "--n-grid", "256,512,1024,2048",
          "--window", "256,2048"], [256, 512, 1024, 2048]),
        # the default grids double from n // 16 (grid1d family) or n // 64 (prefixes)
        (["--gen", "grid1d", "--n", "2048"], [128, 256, 512, 1024, 2048]),
        (["--input", str(csv)], [15, 30, 60, 120, 240, 480, 960, 1000]),
    )
    for argv, n_grid in cases:
        code, out, _ = run_cli(["dim", *argv], capsys)
        assert code == 0
        payload = payload_of(out)
        assert payload["n_grid"] == n_grid
        # short windows sit mid-transient; the estimate still lands near 1
        assert 0.7 <= payload["s_hat"] <= 1.2


def test_dim_grid_family_is_the_estimate_of_its_closed_form(capsys):
    code, out, _ = run_cli(["dim", "--gen", "grid1d", "--n", "1024", "--threads", "2"], capsys)
    assert code == 0
    n_grid = [64, 128, 256, 512, 1024]
    s_grid = [round(0.1 * i, 1) for i in range(1, 20)]

    est = rd.dimension_estimate(
        rd.grid_1d_profile(s_grid, n_grid), 0.1, recompute=rd.grid_1d_profile
    )
    assert payload_of(out) == json.loads(json.dumps({**est.to_json(), "n_grid": n_grid}))


def test_dim_input_is_the_estimate_of_its_profile(capsys, tmp_path):
    # the bisection refits through the builder of the profile, at --threads
    csv = tmp_path / "u600.csv"
    rd.write_csv(rd.sample(rd.UniformCube(1), 600, 2), csv)
    n_grid = [40, 80, 150, 300, 600]
    code, out, _ = run_cli(["dim", "--input", str(csv), "--n-grid", "40,80,150,300,600",
                            "--threads", "2"], capsys)
    assert code == 0
    cloud = rd.read_csv(csv)
    s_grid = [round(0.1 * i, 1) for i in range(1, 20)]
    est = rd.dimension_estimate(rd.energy_profile(cloud, s_grid, n_grid), 0.1,
                                recompute=functools.partial(rd.energy_profile, cloud))
    assert est.diagnostics["refined"] is not None
    assert payload_of(out) == json.loads(json.dumps({**est.to_json(), "n_grid": n_grid}))


def test_dim_refuses_an_energy_that_overflows_before_its_log(capsys, tmp_path):
    # an energy that overflows has no log: it is refused by name, not fitted to a NaN slope
    csv = tmp_path / "tiny.csv"
    rd.write_csv(random_cloud(3, 400, 2, scale=1e-150), csv)
    for argv, where in (
        (["--input", str(csv)], "energy at s = 20.1, n = 64 is inf"),
        (["--gen", "grid1d", "--n", "256"], "energy at s = 140.1, n = 256 is inf"),
    ):
        code, out, err = run_cli(["dim", *argv, "--s-max", "400", "--s-step", "20"], capsys)
        assert code == 1 and out == ""
        assert "NonFiniteResult" in err and where in err


def test_sample_deterministic(capsys):
    args = ["sample", "--measure", "cube", "--dim", "2", "--count", "5", "--seed", "42"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "# dim=2"
    assert len(lines) == 6


def test_sample_envelope(capsys, tmp_path):
    jpath = tmp_path / "env.json"
    code, out, _ = run_cli(
        ["sample", "--measure", "circle", "--count", "3", "--seed", "1",
         "--json", str(jpath)],
        capsys,
    )
    assert code == 0
    doc = json.loads(jpath.read_text())
    assert doc["tool"] == "rieszdim"
    assert doc["schema_version"] == 1
    assert doc["payload"]["measure"]["variant"] == "uniform-circle"
    assert doc["config"]["seed"] == 1


def test_varscan_csv(capsys):
    code, out, _ = run_cli(
        ["varscan", "--measure", "cube", "--dim", "1", "--s-grid", "0,0.3",
         "--n", "40", "--reps", "50", "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,score"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_lln_mean_payload(capsys):
    code, out, _ = run_cli(
        ["lln-mean", "--measure", "cube", "--dim", "1", "--s", "0.5",
         "--n", "50", "--reps", "40", "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["kind"] == "expectation"
    cell = payload["cells"][0]
    assert abs(cell["mean"] - payload["oracle"]) <= 6 * cell["se"]


def test_lln_weak_payload(capsys):
    code, out, _ = run_cli(
        ["lln-weak", "--measure", "cube", "--dim", "1", "--s", "0.3",
         "--eps", "0.5", "--n-grid", "20,40,80", "--reps", "40", "--seed", "2"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert len(payload["cells"]) == 3


def test_lln_path_csv_and_tail(capsys, tmp_path):
    csv_path = tmp_path / "path.csv"
    code, out, _ = run_cli(
        ["lln-path", "--measure", "cube", "--dim", "1", "--s", "0.4",
         "--n-max", "120", "--seed", "8", "--csv", str(csv_path), "--tail", "5"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert len(payload["tail"]) == 5
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,J"
    assert len(lines) == 120  # n = 2..120


def test_ballcheck_payload(capsys):
    code, out, _ = run_cli(
        ["ballcheck", "--gen", "grid1d", "--n", "32", "--s", "0.5", "--c", "2.0"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    assert set(payload["numeric"]) == {"value", "same_ball", "cross"}
    assert payload["predicted"]["epsilon"] > 0
    assert payload["relative_gap"] < 0.02


def test_ballcheck_integrates_lines_and_planes_at_any_size(capsys):
    # 1000 intervals and 256 discs lie past the sizes where Monte Carlo
    # once took over; the discs have near pairs for the difference rule
    for argv in (["--gen", "grid1d", "--n", "1000", "--s", "0.5"],
                 ["--gen", "lattice", "--d", "2", "--k", "4", "--s", "1.2"]):
        code, out, _ = run_cli(["ballcheck", *argv, "--c", "2.0"], capsys)
        assert code == 0
        assert set(payload_of(out)["numeric"]) == {"value", "same_ball", "cross"}
        assert payload_of(out)["relative_gap"] < 0.01


def test_ballcheck_tiny_radius_scale_is_a_domain_error(capsys):
    # c^s underflows at c = 1e-300: both energies are inf, so their relative
    # gap is NaN, which the envelope refuses
    code, out, err = run_cli(
        ["ballcheck", "--gen", "lattice", "--d", "2", "--k", "2", "--s", "1.5", "--c", "1e-300"], capsys
    )
    assert code == 1
    assert out == ""
    assert "NonFiniteResult" in err


def test_distset_json(capsys):
    code, out, _ = run_cli(["distset", "--gen", "grid1d", "--n", "10"], capsys)
    assert code == 0
    payload = payload_of(out)
    assert payload["kind"] == "distance"
    assert payload["count"] == 9


def test_dotset_json(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# dim=2\n1,0\n0,1\n")
    code, out, _ = run_cli(["dotset", "--input", str(path)], capsys)
    assert code == 0
    payload = payload_of(out)
    assert payload["count"] == 2
    assert payload["values"] == [0.0, 1.0]


def test_dotset_enforces_pair_cap(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("# dim=2\n0,0\n1,0\n0,1\n")
    code, _, err = run_cli(["dotset", "--input", str(path), "--max-pairs", "1"], capsys)
    assert code == 1
    assert "SizeCapExceeded" in err
    # the pairs i <= j, self-pairs included: 3 * 4 / 2 = 6
    code, _, err = run_cli(["dotset", "--input", str(path), "--max-pairs", "5"], capsys)
    assert code == 1
    code, _, _ = run_cli(["dotset", "--input", str(path), "--max-pairs", "6"], capsys)
    assert code == 0


def test_sample_enforces_point_cap(capsys):
    args = ["sample", "--measure", "cube", "--count", "20", "--seed", "1"]
    code, out, err = run_cli(args + ["--max-points", "19"], capsys)
    assert code == 1
    assert "SizeCapExceeded" in err
    assert out == ""  # refused before any row is written
    code, out, _ = run_cli(args + ["--max-points", "20"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 21


@pytest.mark.parametrize(
    "argv, pairs",
    [
        # reps x n(n-1)/2, summed over the sample sizes
        (["varscan", "--s-grid", "0.3", "--n", "40", "--reps", "50"], 50 * 780),
        (["lln-mean", "--s", "0.5", "--n", "50", "--reps", "40", "--no-oracle"], 40 * 1225),
        (["lln-weak", "--s", "0.3", "--eps", "0.5", "--n-grid", "20,40,80",
          "--reps", "40"], 40 * (190 + 780 + 3160)),
        (["lln-path", "--s", "0.4", "--n-max", "120"], 7140),
    ],
)
def test_monte_carlo_commands_enforce_pair_cap(capsys, argv, pairs):
    argv = argv + ["--measure", "cube", "--dim", "1", "--seed", "2"]
    code, out, err = run_cli(argv + ["--max-pairs", str(pairs - 1)], capsys)
    assert code == 1
    assert "SizeCapExceeded" in err
    assert out == ""
    code, _, _ = run_cli(argv + ["--max-pairs", str(pairs)], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv, terms",
    [
        # the grid family holds the grids of --n-grid, not of --n: 7 + 15 + 31 + 63 terms
        (["dim", "--gen", "grid1d", "--n", "64"], 116),
        (["dim", "--gen", "grid1d", "--n", "64", "--n-grid", "8,16,32,128"], 180),
        # every grid of the family is summed in full: 7 + 15 + 23 + 31 + 47 + 63
        (["dim", "--gen", "grid1d", "--n", "64", "--n-grid", "8,16,24,32,48,64"], 186),
        # a lattice member of N points has N - 1 terms
        (["dim", "--gen", "lattice", "--d", "2", "--k", "4", "--s-max", "2.5"], 3 + 15 + 63 + 255),
        # a planar Cantor level j has (3^j + 1)^2 - 1 terms
        (["dim", "--gen", "cantor", "--m", "2", "--n", "3", "--level", "4", "--d", "2"],
         15 + 99 + 783 + 6723),
    ],
)
def test_dim_families_enforce_term_cap(capsys, argv, terms):
    # a closed form builds no member: --max-pairs counts its terms before any is summed
    code, out, err = run_cli(argv + ["--max-pairs", str(terms - 1)], capsys)
    assert code == 1
    assert f"SizeCapExceeded: {terms} terms exceed the cap" in err
    assert out == ""
    code, _, _ = run_cli(argv + ["--max-pairs", str(terms)], capsys)
    assert code == 0


def test_dim_families_are_not_refused_by_the_point_cap(capsys):
    # --max-points caps what is allocated: a lattice of 2^18 points is refused
    # where it is generated, but its closed form builds no member
    assert run_cli(["gen", "--gen", "lattice", "--d", "2", "--k", "9", "--max-points", "1000"],
                   capsys)[0] == 1
    for argv in (["dim", "--gen", "lattice", "--d", "2", "--k", "9", "--s-max", "2.5"],
                 ["dim", "--gen", "grid1d", "--n", "4096"]):
        code, out, _ = run_cli(argv + ["--max-points", "1000"], capsys)
        assert code == 0
        assert max(payload_of(out)["n_grid"]) > 1000


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["--gen", "grid1d", "--n", "256"], False),
        (["--gen", "lattice", "--d", "2", "--k", "4", "--s-max", "2.5"], False),
        # 200 points is no level of the lattice
        (["--gen", "lattice", "--d", "2", "--k", "4", "--s-max", "2.5", "--n-grid", "4,16,64,200"],
         True),
        (["--gen", "cantor", "--m", "2", "--n", "3", "--level", "6"], False),
        # a level lacking the end interval n - 1 is no prefix of the next
        (["--gen", "cantor", "--m", "2", "--n", "4", "--level", "5", "--kept", "0,2"], True),
        # level 6 counts 3^6 + 1 differences, past the point cap; its 128 points are not
        (["--gen", "cantor", "--m", "2", "--n", "3", "--level", "6", "--max-points", "500"], True),
    ],
)
def test_dim_walks_unless_every_size_is_a_whole_family_member(argv, walks, capsys, monkeypatch):
    import rieszdim.cantor as cantor_mod
    import rieszdim.energy as energy_mod
    import rieszdim.families as families_mod

    called = []
    for mod, name in ((energy_mod, "energy_profile"), (families_mod, "grid_1d_profile"),
                      (families_mod, "lattice_profile"), (cantor_mod, "cantor_profile")):
        def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    code, out, _ = run_cli(["dim", *argv], capsys)
    assert code == 0
    # the profile and its bisection recompute, both from one builder
    assert len(called) == 2 and len(set(called)) == 1
    assert (called[0] == "energy_profile") == walks


@pytest.mark.parametrize(
    "argv",
    [
        # a profile needs both grids, and takes no single exponent or cutoff
        ["energy", "--input", "g.csv", "--s-grid", "0.5,1", "--s", "1"],
        ["energy", "--input", "g.csv", "--n-grid", "4,8", "--s", "1"],
        ["energy", "--input", "g.csv", "--s-grid", "0.5", "--n-grid", "4,8", "--s", "1"],
        ["energy", "--input", "g.csv", "--s-grid", "0.5", "--n-grid", "4,8",
         "--cutoff-radius", "0.1"],
        # a cloud comes from one source
        ["energy", "--input", "g.csv", "--gen", "lattice", "--d", "2", "--k", "2", "--s", "1"],
        ["dim", "--input", "g.csv", "--gen", "grid1d", "--n", "64"],
        ["ballcheck", "--input", "g.csv", "--gen", "grid1d", "--n", "8", "--s", "0.5", "--c", "1"],
        ["distset", "--input", "g.csv", "--gen", "grid1d", "--n", "8"],
        ["dotset", "--input", "g.csv", "--gen", "grid1d", "--n", "8"],
        ["erdos", "--input", "g.csv", "--gen", "grid1d", "--n", "8"],
        # an oracle is given or waived, not both
        ["lln-mean", "--measure", "cube", "--s", "0.5", "--n", "50", "--reps", "30",
         "--oracle", "2.6", "--no-oracle"],
    ],
)
def test_conflicting_flags_are_usage_errors(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rd.write_csv(rd.grid_1d(8), tmp_path / "g.csv")
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--gen", "grid1d"], "grid1d needs --n"),
        (["gen", "--gen", "lattice", "--d", "2"], "lattice needs --d and --k"),
        (["gen", "--gen", "semicircle", "--phases", "4"],
         "semicircle needs --phases and --per-phase"),
        (["gen", "--gen", "energy-seq", "--s", "0.5"], "energy-seq needs --s and --targets"),
        (["gen"], "no generator selected (--gen)"),
        (["energy", "--s", "1"], "provide --input CSV or --gen KIND"),
        (["sample", "--measure", "cantor", "--m", "2", "--count", "5"],
         "cantor measure needs --m and --n-base"),
        (["sample", "--measure", "empirical", "--count", "5"],
         "empirical measure needs --points CSV"),
        (["sample", "--count", "5"], "provide --measure or --measure-json"),
        (["energy", "--gen", "grid1d", "--n", "8", "--cutoff-radius", "0.1"],
         "truncated energy needs --s"),
        (["energy", "--gen", "grid1d", "--n", "8"],
         "energy needs --s (or --s-grid with --n-grid)"),
        (["dim", "--gen", "grid1d"], "grid1d needs --n"),
        # --s is checked before the cloud is read: missing.csv does not exist
        (["energy", "--input", "missing.csv", "--cutoff-radius", "0.1"],
         "truncated energy needs --s"),
        (["energy", "--input", "missing.csv"], "energy needs --s (or --s-grid with --n-grid)"),
        (["ballcheck", "--gen", "grid1d", "--n", "8", "--c", "1"], "ballcheck needs --s"),
    ],
)
def test_missing_flags_are_usage_errors(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, points",
    [
        # the largest cloud a command allocates, checked before any work
        (["varscan", "--s-grid", "0.3", "--n", "40", "--reps", "50"], 40),
        (["lln-mean", "--s", "0.5", "--n", "50", "--reps", "30", "--no-oracle"], 50),
        (["lln-weak", "--s", "0.3", "--eps", "0.5", "--n-grid", "20,40,80", "--reps", "30"], 80),
        (["lln-path", "--s", "0.4", "--n-max", "120"], 120),
    ],
)
def test_commands_enforce_point_cap(capsys, argv, points):
    argv = argv + ["--measure", "cube", "--dim", "1", "--seed", "2"]
    code, out, err = run_cli(argv + ["--max-points", str(points - 1)], capsys)
    assert code == 1
    assert "SizeCapExceeded" in err
    assert out == ""
    code, _, _ = run_cli(argv + ["--max-points", str(points)], capsys)
    assert code == 0


def test_empirical_measure_enforces_point_cap(capsys, tmp_path):
    # the cap applies to the built measure: a CSV and a document alike
    path = tmp_path / "pts.csv"
    path.write_text("# dim=1\n0\n0.5\n1\n")
    doc = tmp_path / "pts.json"
    doc.write_text(json.dumps({"variant": "empirical", "points": [[0], [0.5], [1]]}))
    for measure in (["--measure", "empirical", "--points", str(path)], ["--measure-json", str(doc)]):
        argv = ["sample", *measure, "--count", "2"]
        code, out, err = run_cli(argv + ["--max-points", "2"], capsys)
        assert code == 1
        assert "SizeCapExceeded" in err
        assert out == ""
        code, _, _ = run_cli(argv + ["--max-points", "3"], capsys)
        assert code == 0


def test_energy_seq_enforces_point_cap(capsys):
    # the 5 -> 0.05 drop at s = 1 takes 15 points
    argv = ["gen", "--gen", "energy-seq", "--s", "1", "--targets", "5,0.05"]
    for cap in ("10", "14"):
        code, out, err = run_cli(argv + ["--max-points", cap], capsys)
        assert code == 1
        assert out == ""
        assert "SizeCapExceeded" in err
    code, out, _ = run_cli(argv + ["--max-points", "15"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 15


def test_energy_seq_past_the_double_range_is_a_typed_error(capsys):
    # at s = 0.05 the far points of the 1 -> 0.01 drop overflow; one error line
    argv = ["gen", "--gen", "energy-seq", "--s", "0.05", "--targets", "1,0.01"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "TargetUnreachable" in err
    assert "Warning" not in err


# which of the four common flags each subcommand reads; distset ignores
# --threads, which perfbench passes to every workload
COMMON_FLAGS = {
    "gen": {"--max-points"},
    "energy": {"--threads", "--max-points", "--max-pairs"},
    "dim": {"--threads", "--max-points", "--max-pairs"},
    "varscan": {"--seed", "--threads", "--max-points", "--max-pairs"},
    "sample": {"--seed", "--max-points"},
    "lln-mean": {"--seed", "--threads", "--max-points", "--max-pairs"},
    "lln-weak": {"--seed", "--threads", "--max-points", "--max-pairs"},
    "lln-path": {"--seed", "--threads", "--max-points", "--max-pairs"},
    "ballcheck": {"--threads", "--max-points", "--max-pairs"},
    "distset": {"--threads", "--max-points", "--max-pairs"},
    "dotset": {"--max-points", "--max-pairs"},
    "erdos": {"--max-points", "--max-pairs"},
}


def test_each_subcommand_takes_only_the_common_flags_it_reads():
    import argparse

    from rieszdim.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    common = {"--seed", "--threads", "--max-points", "--max-pairs"}
    taken = {
        name: {o for a in p._actions for o in a.option_strings} & common
        for name, p in sub.choices.items()
    }
    assert taken == COMMON_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--gen", "grid1d", "--n", "64", "--seed", "1"],
        ["energy", "--gen", "grid1d", "--n", "8", "--s", "0.5", "--seed", "1"],
        ["dotset", "--gen", "grid1d", "--n", "8", "--threads", "2"],
        ["erdos", "--gen", "grid1d", "--n", "8", "--threads", "2"],
        ["sample", "--measure", "cube", "--count", "3", "--threads", "2"],
        ["gen", "--gen", "grid1d", "--n", "8", "--max-pairs", "5"],
        ["ballcheck", "--gen", "grid1d", "--n", "64", "--s", "0.5", "--c", "4", "--seed", "1"],
    ],
)
def test_deleted_common_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_readme_tour_writes_every_input_before_reading_it():
    # the tour is meant to run top to bottom in an empty directory; this
    # reads its fenced block and runs no command
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI tour", 1)[1].split("```")[1]
    commands = [line.split() for line in block.splitlines() if line.startswith("rieszdim ")]
    assert len(commands) > 10
    written = set()
    for argv in commands:
        flags = list(zip(argv, argv[1:]))
        for flag, value in flags:
            if flag == "--input":
                assert value in written, " ".join(argv)
        written.update(value for flag, value in flags if flag in ("-o", "--output"))


def test_benchmark_command_lines_parse():
    # a deleted flag would fail every benchmark run; workloads.py imports no numpy
    import runpy
    from pathlib import Path

    from rieszdim.cli import build_parser

    bench = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    parser = build_parser()
    for name, workload in bench["WORKLOADS"].items():
        for size in bench["SIZES"][name].values():
            args = parser.parse_args(workload.argv(size, 7, "cloud.csv"))
            assert args.threads == bench["THREADS"]


def test_traced_benchmark_finds_what_it_wraps():
    # the traced run rebinds each TRACED name in its home module; a moved
    # name would silently drop its span. tracing.py imports only the stdlib.
    import importlib
    import runpy
    from pathlib import Path

    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    for module, attr, *_ in tracing["TRACED"]:
        assert hasattr(importlib.import_module("rieszdim." + module), attr), (module, attr)


@pytest.mark.parametrize(
    "command, points",
    [("distset", "0\n1e-320\n2e-320"), ("erdos", "0\n1e-320\n2e-320"), ("dotset", "1e-160\n2e-160")],
    ids=["distset", "erdos", "dotset"],
)
def test_auto_step_of_a_subnormal_cloud_is_not_refused(command, points, capsys, tmp_path):
    # 1e-9 times the diameter 2e-320, or the squared norm 4e-320, rounds to
    # 0: the auto step is then 2^-1074, not a usage error
    path = tmp_path / "tiny.csv"
    path.write_text(f"# dim=1\n{points}\n")
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, err) == (0, "")
    if command == "erdos":
        assert out.splitlines()[1].split(",")[2] == "2"  # the count: 1e-320 and 2e-320
    else:
        assert payload_of(out)["quantization"] == 2.0**-1074


def test_distset_exact_mode_out_of_range_is_usage_error(capsys, tmp_path):
    path = tmp_path / "far.csv"
    big = 2**25
    path.write_text(f"# dim=3\n{-big},{-big},0\n{big},{big},0\n{big},{big},1\n")
    code, out, _ = run_cli(["distset", "--input", str(path)], capsys)
    assert code == 0
    assert payload_of(out)["count"] == 2
    code, _, err = run_cli(["distset", "--input", str(path), "--quantization", "exact"], capsys)
    assert code == 2
    assert "2^51" in err


def test_erdos_csv(capsys):
    code, out, _ = run_cli(["erdos", "--gen", "lattice", "--d", "2", "--k", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s0,exponent,count,n,bound,ratio"
    assert len(lines) == 3  # d/2 and the planar threshold 5/4


def test_payload_reproducible(capsys):
    args = ["lln-mean", "--measure", "cube", "--dim", "1", "--s", "0.5",
            "--n", "40", "--reps", "30", "--seed", "77"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing_seconds"), doc2.pop("timing_seconds")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_threads_flag_does_not_change_payload(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    rd.write_csv(rd.lattice(1, 8), path)
    base = ["energy", "--input", str(path), "--s", "0.9"]
    _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(base + ["--threads", "4"], capsys)
    assert payload_of(out1)["value"] == payload_of(out4)["value"]
    for t in ("0", "-2"):
        code, out, _ = run_cli(base + ["--threads", t], capsys)
        assert code == 0
        assert payload_of(out)["value"] == payload_of(out1)["value"]


@pytest.mark.parametrize(
    "argv",
    [
        ["varscan", "--measure", "cube", "--dim", "2", "--s-grid", "0.3,0.9", "--n", "30", "--reps", "50"],
        ["lln-mean", "--measure", "cube", "--dim", "1", "--s", "0.4", "--n", "30", "--reps", "30"],
        ["lln-weak", "--measure", "circle", "--s", "0.3", "--eps", "0.2", "--n-grid", "10,20,30", "--reps", "30"],
        ["lln-path", "--measure", "cube", "--dim", "2", "--s", "0.6", "--n-max", "300"],
        # not a replicate command: its point energy spans more than one strip
        ["ballcheck", "--gen", "grid1d", "--n", "400", "--s", "0.5", "--c", "2.0"],
        # its 930 near pairs are dealt to the workers in 34 chunks
        ["ballcheck", "--gen", "lattice", "--d", "2", "--k", "4", "--s", "1.2", "--c", "2.0"],
    ],
)
def test_replicate_commands_ignore_threads_in_payload(argv, capsys, tmp_path, monkeypatch, forking):
    # every pass, however small, is dealt to forked workers
    forks, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        forks.append(pid)  # only the parent's list outlives the child
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    outputs = []
    for t in ("1", "2", "0"):
        forks.clear()
        extra = ["--threads", t] + (["--seed", "5"] if "--seed" in COMMON_FLAGS[argv[0]] else [])
        if argv[0] == "varscan":
            extra += ["--json", str(tmp_path / f"env{t}.json")]
        if argv[0] == "lln-mean":
            extra += ["--per-rep-csv", str(tmp_path / f"reps{t}.csv")]
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0
        assert bool(forks) == (t == "2")  # the flag reaches the workers
        if argv[0] == "varscan":
            outputs.append((out, payload_of((tmp_path / f"env{t}.json").read_text())))
        elif argv[0] == "lln-mean":
            outputs.append((payload_of(out), (tmp_path / f"reps{t}.csv").read_bytes()))
        else:
            outputs.append(payload_of(out))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_ballcheck_checks_hypotheses_before_quadrature(capsys, monkeypatch):
    import rieszdim.balls as balls_mod

    def refuse_quadrature(*args, **kwargs):
        raise AssertionError("the quadrature ran before the hypotheses were checked")

    monkeypatch.setattr(balls_mod, "ball_energy_numeric", refuse_quadrature)
    # balls of radius 2 n^(-1/s) overlap on this grid
    code, out, err = run_cli(
        ["ballcheck", "--gen", "grid1d", "--n", "800", "--s", "0.9", "--c", "2"], capsys
    )
    assert code == 1
    assert out == ""
    assert "HypothesisViolated" in err


def test_usage_error_exit_code(capsys):
    assert main(["energy", "--nonsense"]) == 2
    assert main(["dim", "--gen", "cantor", "--m", "2"]) == 2  # missing --n/--level
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, path, doc",
    [
        # paths that cannot be opened for reading ...
        (["energy", "--input", "missing.csv", "--s", "1"], "missing.csv", None),
        (["sample", "--measure", "empirical", "--points", "missing.csv", "--count", "3"],
         "missing.csv", None),
        (["gen", "--gen", "cantor", "--spec-json", "missing.json"], "missing.json", None),
        (["sample", "--measure-json", "missing.json", "--count", "3"], "missing.json", None),
        # ... or for writing, in a directory that does not exist
        (["energy", "--gen", "grid1d", "--n", "8", "--s", "1", "-o", "no/x.json"],
         "no/x.json", None),
        (["gen", "--gen", "grid1d", "--n", "8", "--json", "no/x.json"], "no/x.json", None),
        (["lln-path", "--measure", "cube", "--s", "0.5", "--n-max", "100", "--csv", "no/x.csv"],
         "no/x.csv", None),
        (["lln-mean", "--measure", "cube", "--s", "0.5", "--n", "20", "--reps", "30",
          "--no-oracle", "--per-rep-csv", "no/x.csv"], "no/x.csv", None),
        # documents with a missing key or a value of the wrong type
        (["gen", "--gen", "cantor", "--spec-json", "doc.json"], "doc.json", {}),
        (["gen", "--gen", "cantor", "--spec-json", "doc.json"], "doc.json",
         {"factors": [{"m": 2}], "level": 2}),
        (["gen", "--gen", "energy-seq", "--spec-json", "doc.json"], "doc.json", {}),
        (["sample", "--count", "3", "--measure-json", "doc.json"], "doc.json",
         {"variant": "cantor-product"}),
        (["sample", "--count", "3", "--measure-json", "doc.json"], "doc.json", [1]),
    ],
)
def test_bad_path_or_document_is_one_usage_error_line(argv, path, doc, tmp_path):
    # a child process, so the entry that ends the process is covered too
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    env = {**os.environ, "RIESZDIM_OUT": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-m", "rieszdim", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("usage error: ")
    assert path in line
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv, text",
    [
        # documents and CSVs that open but do not parse
        (["gen", "--gen", "cantor", "--spec-json", "bad.json"], '{"factors": [{"m": 2, "n":'),
        (["dim", "--gen", "cantor", "--spec-json", "bad.json"], "level 4"),
        (["sample", "--count", "3", "--measure-json", "bad.json"], '{"variant": '),
        (["energy", "--input", "bad.csv", "--s", "1"], "# dim=2\n0,1\n2\n"),
        (["dim", "--input", "bad.csv"], "0,1\n0,nan\n"),
        (["sample", "--measure", "empirical", "--points", "bad.csv", "--count", "3"], "0\nx\n"),
        # measure documents without a known variant
        (["sample", "--count", "3", "--measure-json", "bad.json"], "{}"),
        (["sample", "--count", "3", "--measure-json", "bad.json"], '{"variant": "nope"}'),
        # documents that parse into values their builder refuses
        (["gen", "--gen", "cantor", "--spec-json", "bad.json"],
         '{"factors": [{"m": 2, "n": 1}], "level": 2}'),
        (["gen", "--gen", "energy-seq", "--spec-json", "bad.json"], '{"s": 1, "targets": [-1]}'),
        (["sample", "--count", "3", "--measure-json", "bad.json"],
         '{"variant": "uniform-cube", "dim": 0}'),
    ],
    ids=["truncated-spec", "spec-not-json", "truncated-measure", "ragged-csv", "nan-csv",
         "text-csv", "no-variant", "unknown-variant", "refused-factor", "refused-targets",
         "refused-cube-dim"],
)
def test_unparsable_input_is_a_usage_error_naming_its_file(argv, text, capsys, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = next(a for a in argv if a.startswith("bad."))
    (tmp_path / name).write_text(text, encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    [line] = captured.err.splitlines()
    assert line.startswith(f"usage error: {name}: ")


@pytest.mark.parametrize(
    "text, error", [("# dim=3\n0,1\n1,2\n", "DimensionMismatch"), ("0,1\n0,1\n", "DuplicatePoints")]
)
def test_a_csv_that_parses_into_a_bad_cloud_stays_a_domain_error(text, error, capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["energy", "--input", str(path), "--s", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error}: ")


def test_bad_flag_value_exit_code(capsys):
    code, _, err = run_cli(
        ["sample", "--measure", "cube", "--count", "3", "--seed", "-1"], capsys
    )
    assert code == 2
    assert "usage error" in err


_REPLICATES = ["--measure", "cube", "--dim", "1", "--reps", "400", "--threads", "2"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["varscan", "--s-grid", "0.5,-1", "--n", "300"], 2,
         "usage error: exponents must be finite and nonnegative"),
        (["lln-mean", "--s", "-1", "--n", "300", "--no-oracle"], 2,
         "usage error: exponents must be finite and nonnegative"),
        (["varscan", "--s-grid", "0.5", "--n", "1"], 1,
         "error: TooFewPoints: discrete energy needs at least 2 points"),
        (["lln-weak", "--s", "0.4", "--eps", "0.1", "--n-grid", "1,50,60"], 1,
         "error: TooFewPoints: discrete energy needs at least 2 points"),
        (["varscan", "--s-grid", "0.5", "--n", "0"], 2, "usage error: count must be >= 1"),
    ],
    ids=["varscan-exponent", "lln-mean-exponent", "varscan-n1", "lln-weak-n1", "varscan-n0"],
)
def test_bad_replicate_arguments_are_refused_before_any_fork_or_draw(
    argv, code, message, capsys, monkeypatch
):
    import rieszdim.energy as energy_mod
    import rieszdim.stats as stats_mod

    def called(*args, **kwargs):
        raise AssertionError("a replicate pass started")

    monkeypatch.setattr(energy_mod, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", called)
    monkeypatch.setattr(stats_mod, "sample", called)
    assert run_cli(argv + _REPLICATES, capsys) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--gen", "grid1d", "--n", "8", "--s", "nan"],
        ["energy", "--gen", "grid1d", "--n", "8", "--s", "0.5", "--cutoff-radius", "nan"],
        ["lln-weak", "--measure", "cube", "--dim", "1", "--s", "0.3",
         "--eps", "nan", "--n-grid", "20,40,80", "--reps", "40"],
        ["distset", "--gen", "lattice", "--d", "2", "--k", "3", "--quantization", "nan"],
        ["dotset", "--gen", "lattice", "--d", "2", "--k", "3", "--quantization", "nan"],
    ],
    ids=["energy-s", "energy-cutoff-radius", "lln-weak-eps", "distset-quantization",
         "dotset-quantization"],
)
def test_nan_flag_values_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["erdos", "--gen", "lattice", "--d", "2", "--k", "3", "--exponents", "0"],
        ["dim", "--gen", "grid1d", "--n", "64", "--s-step", "0"],
        ["lln-path", "--measure", "cube", "--dim", "1", "--s", "0.4",
         "--n-max", "200", "--tail", "-1"],
        # an infinite step would merge every value into one; at 1e-30 the
        # grid keys pass 2^53
        ["distset", "--gen", "lattice", "--d", "2", "--k", "3", "--quantization", "inf"],
        ["dotset", "--gen", "lattice", "--d", "2", "--k", "3", "--quantization", "inf"],
        ["distset", "--gen", "grid1d", "--n", "50", "--quantization", "1e-30"],
        ["dotset", "--gen", "grid1d", "--n", "50", "--quantization", "1e-30"],
        # the radius c n^(-1/s) underflows to 0
        ["ballcheck", "--gen", "grid1d", "--n", "100", "--s", "0.001", "--c", "1"],
    ],
    ids=["erdos-exponent-0", "dim-s-step-0", "lln-path-negative-tail",
         "distset-quantization-inf", "dotset-quantization-inf",
         "distset-quantization-too-fine", "dotset-quantization-too-fine",
         "ballcheck-radius-underflow"],
)
def test_degenerate_flag_values_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # an empty exponent grid, for the closed form and the prefix profile
        (["dim", "--gen", "grid1d", "--n", "64", "--s-min", "1", "--s-max", "0.5"],
         "s_grid must be non-empty"),
        (["dim", "--gen", "lattice", "--d", "2", "--k", "3", "--s-min", "1", "--s-max", "0.5"],
         "s_grid must be non-empty"),
        (["dim", "--gen", "grid1d", "--n", "512", "--window", "64"],
         "window (64,) must be two prefix sizes"),
    ],
    ids=["empty-s-grid-grid1d", "empty-s-grid-lattice", "window-one-size"],
)
def test_dim_grid_and_window_errors_name_what_is_wrong(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"usage error: {message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim", "--gen", "grid1d", "--n", "64", "--n-grid", "8,x"],
         "--n-grid: invalid literal for int() with base 10: 'x'"),
        (["varscan", "--measure", "cube", "--s-grid", "0.5,x", "--n", "10"],
         "--s-grid: could not convert string to float: 'x'"),
    ],
    ids=["int", "float"],
)
def test_a_list_flag_value_that_does_not_parse_names_its_flag(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", f"usage error: {message}\n")


def test_lln_path_tail_zero_is_empty(capsys):
    code, out, _ = run_cli(
        ["lln-path", "--measure", "cube", "--dim", "1", "--s", "0.4",
         "--n-max", "200", "--tail", "0"],
        capsys,
    )
    assert code == 0
    assert payload_of(out)["tail"] == []


def test_size_cap_exit_code(capsys):
    code, _, err = run_cli(
        ["gen", "--gen", "lattice", "--d", "2", "--k", "9", "--max-points", "1000"],
        capsys,
    )
    assert code == 1
    assert "SizeCapExceeded" in err


def test_outdir_env_redirects_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RIESZDIM_OUT", str(tmp_path))
    code, _, _ = run_cli(["gen", "--gen", "grid1d", "--n", "4", "-o", "out.csv"], capsys)
    assert code == 0
    assert (tmp_path / "out.csv").exists()


def test_console_entry_point():
    # the console script and ``python -m rieszdim`` share one entry
    tomllib = pytest.importorskip("tomllib")
    import importlib

    import rieszdim.__main__ as entry_mod

    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["rieszdim"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is entry_mod.run
    proc = subprocess.run(
        [sys.executable, "-m", "rieszdim", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rieszdim" in proc.stdout


def _without_timing(data: bytes) -> bytes:
    return re.sub(rb'"timing_seconds": [0-9.e-]+', b'"timing_seconds": 0', data)


def _files_in(directory):
    return {p.name: _without_timing(p.read_bytes()) for p in directory.iterdir()}


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--gen", "grid1d", "--n", "64"],
        ["sample", "--measure", "cube", "--dim", "2", "--count", "20", "-o", "pts.csv",
         "--json", "env.json"],
        ["ballcheck", "--gen", "grid1d", "--n", "800", "--s", "0.9", "--c", "2"],  # domain error
        ["energy", "--nonsense"],  # usage error raised by argparse
        ["--version"],
        ["-h"],
    ],
    ids=["stdout", "files", "domain-error", "usage-error", "version", "help"],
)
def test_module_entry_matches_in_process_main(argv, capsys, tmp_path, monkeypatch):
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.chdir(here)
    code = main(argv)
    out = capsys.readouterr().out
    # the child runs elsewhere, so it finds the package by absolute path
    src = os.path.dirname(os.path.dirname(os.path.abspath(rd.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rieszdim", *argv], capture_output=True,
                          cwd=child, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code
    assert _without_timing(proc.stdout) == _without_timing(out.encode())
    assert _files_in(child) == _files_in(here)


@pytest.mark.parametrize(
    "patch, code, handler_runs",
    [
        ("", 0, False),
        ("import rieszdim.cli as cli\ncli.main = lambda argv=None: 1 / 0\n", 1, True),
    ],
    ids=["hard-exit", "uncaught-error"],
)
def test_entry_skips_interpreter_teardown(patch, code, handler_runs):
    # an atexit handler fires only when the process leaves by the interpreter's own path
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit handler ran')\n"
        + patch +
        "sys.argv = ['rieszdim', '--version']\n"
        "runpy.run_module('rieszdim', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == code
    assert ("atexit handler ran" in proc.stdout) == handler_runs
    assert ("Traceback" in proc.stderr) == handler_runs
    if not handler_runs:
        assert proc.stdout == f"rieszdim {rd.__version__}\n"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_entry_defaults_openblas_to_one_thread(preset, want):
    # the entry sets the default before numpy loads, so no idle BLAS thread starts
    script = (
        "import os, sys, runpy\n"
        "exit_now = os._exit\n"
        "def report(code):\n"
        "    tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
        "    print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules, tasks, flush=True)\n"
        "    exit_now(code)\n"
        "os._exit = report\n"
        "sys.argv = ['rieszdim', '--version']\n"
        "runpy.run_module('rieszdim', run_name='__main__')\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    version, report = proc.stdout.splitlines()
    assert version == f"rieszdim {rd.__version__}"
    value, numpy_loaded, tasks = report.split()
    assert (value, numpy_loaded) == (want, "True")
    if preset is None:
        assert tasks == "1"


def test_entry_freezes_start_up_objects_before_main():
    script = (
        "import gc, runpy, rieszdim.cli as cli\n"
        "cli.main = lambda argv=None: print(gc.isenabled(), gc.get_freeze_count() > 0) or 0\n"
        "runpy.run_module('rieszdim', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


@pytest.mark.parametrize(
    "argv", [["gen", "--gen", "grid1d", "--n", "3000"], ["dim", "--gen", "grid1d", "--n", "300"]]
)
def test_closed_stdout_is_one_error_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rieszdim", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: BrokenPipeError: ")


def test_cli_start_up_loads_no_scipy():
    # scipy is a test dependency only; the library must not import it
    code = "import sys, rieszdim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rieszdim", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "rieszdim.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def _modules_loaded_by(argv, prefixes=("rieszdim",)):
    code = (
        "import json, sys\n"
        "from rieszdim import cli\n"
        "cli.main(sys.argv[2:])\n"
        "tops = sys.argv[1].split(',')\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] in tops]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, ",".join(prefixes), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    grid, sample = tmp_path / "grid.csv", tmp_path / "sample.csv"
    assert main(["gen", "--gen", "grid1d", "--n", "20", "-o", str(grid)]) == 0
    assert main(["sample", "--measure", "cube", "--dim", "2", "--count", "40",
                 "-o", str(sample)]) == 0
    assert _modules_loaded_by(["--version"]) == {"rieszdim", "rieszdim.cli", "rieszdim.errors"}
    # a 1-D np.unique would load numpy.ma (about 6 ms) in the diameter
    for argv in (["distset", "--input", str(grid)], ["distset", "--input", str(sample)],
                 ["erdos", "--input", str(sample)]):
        loaded = _modules_loaded_by(argv, prefixes=("rieszdim", "numpy"))
        assert "rieszdim.sets" in loaded
        for name in ("balls", "energy", "estimator", "generators", "measures", "stats"):
            assert "rieszdim." + name not in loaded
        assert "numpy.ma" not in loaded
    # the dealer needs neither an executor nor the logging it imports
    unused = {"concurrent.futures", "logging"}
    loaded = _modules_loaded_by(["dim", "--input", str(sample), "--threads", "2"],
                                prefixes=("rieszdim", "concurrent", "logging"))
    assert "rieszdim.estimator" in loaded
    for name in ("balls", "measures", "stats", "sets"):
        assert "rieszdim." + name not in loaded
    assert not unused & loaded
    # whole family members have a closed form: no cloud is generated or walked
    for argv in (["dim", "--gen", "grid1d", "--n", "64", "--threads", "2"],
                 ["dim", "--gen", "lattice", "--d", "2", "--k", "4", "--s-max", "2.5"],
                 ["dim", "--gen", "cantor", "--m", "2", "--n", "3", "--level", "5"]):
        loaded = _modules_loaded_by(argv)
        assert {"rieszdim.families", "rieszdim.estimator"} <= loaded
        assert not {"rieszdim.cloud", "rieszdim.energy", "rieszdim.generators"} & loaded
        assert ("rieszdim.cantor" in loaded) == ("cantor" in argv)
    # np.median would load numpy.ma; only Cantor measures need the generators, and
    # only ballcheck the ball measures
    for argv in (["varscan", "--measure", "cube", "--s-grid", "0.3,0.7", "--n", "30",
                  "--reps", "50", "--threads", "2"],
                 ["lln-mean", "--measure", "cube", "--s", "0.3", "--n", "30", "--reps", "30"],
                 ["lln-weak", "--measure", "cube", "--s", "0.3", "--eps", "0.5",
                  "--n-grid", "30,40,50", "--reps", "30"],
                 ["lln-path", "--measure", "cube", "--s", "0.3", "--n-max", "100"]):
        loaded = _modules_loaded_by(argv, prefixes=("rieszdim", "numpy", "concurrent", "logging"))
        assert "rieszdim.stats" in loaded
        assert not {"numpy.ma", "rieszdim.balls", "rieszdim.generators", "rieszdim.sets"} & loaded
        assert not unused & loaded
    # a sample sums no pairs: the pair engine stays unloaded
    loaded = _modules_loaded_by(["sample", "--measure", "cube", "--count", "40"])
    assert "rieszdim.measures" in loaded
    assert not {"rieszdim.balls", "rieszdim.energy", "rieszdim.stats"} & loaded
    assert "rieszdim.balls" in _modules_loaded_by(
        ["ballcheck", "--gen", "grid1d", "--n", "64", "--s", "0.5", "--c", "4"])


def test_cross_process_determinism():
    args = [sys.executable, "-m", "rieszdim", "lln-mean", "--measure", "cube",
            "--dim", "1", "--s", "0.5", "--n", "40", "--reps", "30", "--seed", "99"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    pa, pb = json.loads(a.stdout)["payload"], json.loads(b.stdout)["payload"]
    assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)


def test_cantor_spec_json_input(capsys, tmp_path):
    spec = {"factors": [{"m": 2, "n": 3, "kept": [0, 2]}], "level": 2}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(["gen", "--gen", "cantor", "--spec-json", str(path)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 9  # header + 8 endpoints


def test_dim_reads_a_cantor_spec_once(capsys, tmp_path, monkeypatch):
    # --spec-json may name a pipe such as /dev/stdin, whose document reads only once
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"factors": [{"m": 2, "n": 3}], "level": 5}))
    reads = []
    real = cli_mod._read_json
    monkeypatch.setattr(cli_mod, "_read_json", lambda p: reads.append(p) or real(p))
    code, out, _ = run_cli(["dim", "--gen", "cantor", "--spec-json", str(path)], capsys)
    assert code == 0 and reads == [str(path)]
    assert payload_of(out)["n_grid"] == [4, 8, 16, 32, 64]


def test_energy_seq_spec_json(capsys, tmp_path):
    spec = {"s": 1.0, "targets": [2.0], "tolerance": 1e-6}
    path = tmp_path / "targets.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        ["gen", "--gen", "energy-seq", "--spec-json", str(path), "--d", "1"], capsys
    )
    assert code == 0
    values = [float(v) for v in out.strip().splitlines()[1:]]
    assert abs(values[1] - values[0]) == pytest.approx(0.5, abs=0)


def test_tolerance_is_echoed_only_when_given(capsys, tmp_path):
    code, out, _ = run_cli(["dim", "--gen", "grid1d", "--n", "64"], capsys)
    assert code == 0
    assert "tolerance" not in json.loads(out)["config"]
    # energy-seq without --tolerance uses the spec's own default, 1e-6
    argv = ["gen", "--gen", "energy-seq", "--s", "1", "--targets", "4,1,2", "--d", "2"]
    code, default, _ = run_cli(argv, capsys)
    assert code == 0 and len(default.splitlines()) > 3
    _, explicit, _ = run_cli(argv + ["--tolerance", "1e-6"], capsys)
    assert default == explicit
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"s": 1.0, "targets": [4, 1, 2]}))
    by_doc = ["gen", "--gen", "energy-seq", "--spec-json", str(path), "--d", "2"]
    _, from_json, _ = run_cli(by_doc, capsys)
    assert from_json == default
    # a document's tolerance comes first, else --tolerance, else 1e-6
    _, coarse, _ = run_cli(argv + ["--tolerance", "1e-4"], capsys)
    assert coarse != default  # the tolerance moves the slide points
    assert run_cli(by_doc + ["--tolerance", "1e-4"], capsys)[1] == coarse
    path.write_text(json.dumps({"s": 1.0, "targets": [4, 1, 2], "tolerance": 1e-4}))
    assert run_cli(by_doc + ["--tolerance", "1e-3"], capsys)[1] == coarse


def test_per_rep_csv(capsys, tmp_path):
    csv_path = tmp_path / "reps.csv"
    code, _, _ = run_cli(
        ["lln-mean", "--measure", "cube", "--dim", "1", "--s", "0.5",
         "--n", "30", "--reps", "30", "--seed", "4", "--per-rep-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,rep,J"
    assert len(lines) == 31
    # replicate energies match the library path exactly
    values = rd.replicate_energies(rd.UniformCube(1), [0.5], 30, 30, seed=4)[0]
    got = [float(line.split(",")[2]) for line in lines[1:]]
    assert got == values.tolist()


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["lln-mean", "--s", "0.3", "--n", "30"], [30]),
        (["lln-weak", "--s", "0.3", "--eps", "0.5", "--n-grid", "20,30,40"], [20, 30, 40]),
    ],
)
def test_per_rep_csv_computes_each_replicate_set_once(argv, sizes, capsys, tmp_path, monkeypatch):
    import rieszdim.stats as stats_mod

    calls = []
    real = stats_mod.replicate_energies

    def counting(measure, s_list, n, reps, seed, **kwargs):
        calls.append(n)
        return real(measure, s_list, n, reps, seed, **kwargs)

    monkeypatch.setattr(stats_mod, "replicate_energies", counting)
    csv_path = tmp_path / "reps.csv"
    code, _, _ = run_cli(
        argv + ["--measure", "cube", "--dim", "1", "--reps", "30", "--seed", "4",
                "--per-rep-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    assert calls == sizes
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 30 * len(sizes)


def test_measure_json_input(capsys, tmp_path):
    doc = {"variant": "rotating-semicircle", "phase": 0.5}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        ["sample", "--measure-json", str(path), "--count", "4", "--seed", "0"], capsys
    )
    assert code == 0
    pts = np.array(
        [[float(t) for t in line.split(",")] for line in out.strip().splitlines()[1:]]
    )
    assert np.max(np.abs((pts**2).sum(axis=1) - 1.0)) < 1e-12


_SAMPLE = ["sample", "--count", "30", "--seed", "3"]


@pytest.mark.parametrize(
    "flags, by_doc, doc",
    [
        (["gen", "--gen", "cantor", "--m", "2", "--n", "5", "--kept", "0,4", "--level", "3",
          "--d", "2"], ["gen", "--gen", "cantor"],
         {"factors": [{"m": 2, "n": 5, "kept": [0, 4]}] * 2, "level": 3}),
        (["gen", "--gen", "cantor", "--m", "3", "--n", "5", "--level", "2"],
         ["gen", "--gen", "cantor"], {"factors": [{"m": 3, "n": 5}], "level": 2}),
        (["gen", "--gen", "energy-seq", "--s", "1", "--targets", "4,1,2", "--tolerance", "1e-4",
          "--d", "2"], ["gen", "--gen", "energy-seq", "--d", "2"],
         {"s": 1, "targets": [4, 1, 2], "tolerance": 1e-4}),
        (_SAMPLE + ["--measure", "cube", "--dim", "2"], _SAMPLE,
         {"variant": "uniform-cube", "dim": 2}),
        (_SAMPLE + ["--measure", "circle"], _SAMPLE, {"variant": "uniform-circle"}),
        (_SAMPLE + ["--measure", "cantor", "--m", "2", "--n-base", "3", "--kept", "0,2",
                    "--factor-dim", "2", "--depth", "7"], _SAMPLE,
         {"variant": "cantor-product", "factors": [{"m": 2, "n": 3, "kept": [0, 2]}] * 2,
          "depth": 7}),
        (_SAMPLE + ["--measure", "semicircle", "--phase", "0.7"], _SAMPLE,
         {"variant": "rotating-semicircle", "phase": 0.7}),
        (_SAMPLE + ["--measure", "empirical", "--points", "pts.csv"], _SAMPLE,
         {"variant": "empirical", "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}),
    ],
    ids=["cantor-spec", "cantor-spec-spread", "energy-target-spec", "cube", "circle",
         "cantor-product", "semicircle", "empirical"],
)
def test_flags_and_their_document_give_identical_output(flags, by_doc, doc, capsys, tmp_path,
                                                        monkeypatch):
    # the flags assemble the document, and both go through one builder
    monkeypatch.chdir(tmp_path)
    rd.write_csv(rd.PointCloud(doc.get("points", [[0.0]])), tmp_path / "pts.csv")
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    source = ["--measure-json" if by_doc is _SAMPLE else "--spec-json", "doc.json"]
    outputs = []
    for argv in (flags, by_doc + source):
        code, out, err = run_cli(argv + ["--json", "env.json"], capsys)
        assert (code, err) == (0, "")
        outputs.append((out, payload_of((tmp_path / "env.json").read_text())))
    assert outputs[0] == outputs[1]

