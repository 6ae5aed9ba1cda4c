import json
import subprocess
import sys

import numpy as np
import pytest

import rieszdim as rd
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
    import rieszdim.cli as cli_mod

    path = tmp_path / "two.csv"
    path.write_text("0\n0.5\n")
    monkeypatch.setattr(cli_mod, "discrete_energy", lambda *a, **k: float("nan"))
    code, out, err = run_cli(["energy", "--input", str(path), "--s", "1"], capsys)
    assert code == 1  # a NaN result is a domain error, not a usage error
    assert out == ""
    assert "NonFiniteResult" in err and "envelope.payload.value" in err


def test_nan_envelope_leaves_no_csv_behind(monkeypatch, capsys, tmp_path):
    import rieszdim.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "variance_blowup_scan", lambda *a, **k: [(0.5, 1.0), (1.5, float("nan"))]
    )
    table, doc = tmp_path / "scan.csv", tmp_path / "scan.json"
    argv = ["varscan", "--measure", "cube", "--dim", "1", "--s-grid", "0.5,1.5",
            "--n", "8", "--reps", "2", "--output", str(table), "--json", str(doc)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "envelope.payload.scores[1].score" in err
    assert not table.exists() and not doc.exists()


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


def test_dim_grid_family(capsys):
    code, out, _ = run_cli(
        ["dim", "--gen", "grid1d", "--n", "2048", "--n-grid", "256,512,1024,2048",
         "--window", "256,2048"],
        capsys,
    )
    assert code == 0
    payload = payload_of(out)
    # short windows sit mid-transient; the estimate still lands near 1
    assert 0.7 <= payload["s_hat"] <= 1.2


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
    assert payload["numeric"]["method"] == "quadrature"
    assert payload["predicted"]["epsilon"] > 0
    assert payload["relative_gap"] < 0.02


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
    ],
)
def test_replicate_commands_ignore_threads_in_payload(argv, capsys, tmp_path, monkeypatch):
    import rieszdim.energy as energy_mod

    pool_requests = []
    real_pool = energy_mod._shared_pool

    def recording_pool(threads):
        pool_requests.append(threads)
        return real_pool(threads)

    monkeypatch.setattr(energy_mod, "_shared_pool", recording_pool)
    outputs = []
    for t in ("1", "2", "0"):
        pool_requests.clear()
        extra = ["--seed", "5", "--threads", t]
        if argv[0] == "varscan":
            extra += ["--json", str(tmp_path / f"env{t}.json")]
        if argv[0] == "lln-mean":
            extra += ["--per-rep-csv", str(tmp_path / f"reps{t}.csv")]
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0
        assert bool(pool_requests) == (t == "2")  # the flag reaches the pool
        if argv[0] == "varscan":
            outputs.append((out, payload_of((tmp_path / f"env{t}.json").read_text())))
        elif argv[0] == "lln-mean":
            outputs.append((payload_of(out), (tmp_path / f"reps{t}.csv").read_bytes()))
        else:
            outputs.append(payload_of(out))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_ballcheck_checks_hypotheses_before_quadrature(capsys, monkeypatch):
    import rieszdim.cli as cli_mod

    def refuse_quadrature(*args, **kwargs):
        raise AssertionError("the quadrature ran before the hypotheses were checked")

    monkeypatch.setattr(cli_mod, "ball_energy_numeric", refuse_quadrature)
    # balls of radius 2 n^(-1/s) overlap on this grid
    code, out, err = run_cli(
        ["ballcheck", "--gen", "grid1d", "--n", "800", "--s", "0.9", "--c", "2"], capsys
    )
    assert code == 1
    assert out == ""
    assert "HypothesisViolated" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--gen", "cantor", "--m", "2"])  # missing --n/--level
    assert exc.value.code == 2


def test_bad_flag_value_exit_code(capsys):
    code, _, err = run_cli(
        ["sample", "--measure", "cube", "--count", "3", "--seed", "-1"], capsys
    )
    assert code == 2
    assert "usage error" in err


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
    ],
    ids=["erdos-exponent-0", "dim-s-step-0", "lln-path-negative-tail",
         "distset-quantization-inf", "dotset-quantization-inf",
         "distset-quantization-too-fine", "dotset-quantization-too-fine"],
)
def test_degenerate_flag_values_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "usage error" in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "rieszdim", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rieszdim" in proc.stdout


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
