import math
import os
import signal
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import rieszdim as rd
import rieszdim.cloud as cloud_mod
import rieszdim.energy as energy_mod
from conftest import no_child_left


def test_expectation_matches_interval_oracle():
    report = rd.expectation_experiment(rd.UniformCube(1), 0.5, 200, 500, seed=0)
    cell = report.cells[0]
    oracle, _ = integrate.quad(lambda u: 2.0 * (1.0 - u) * u**-0.5, 0.0, 1.0)
    assert oracle == pytest.approx(8.0 / 3.0, rel=1e-10)
    assert abs(cell["mean"] - oracle) <= 4.0 * cell["se"]


def test_expectation_zero_exponent_is_degenerate():
    report = rd.expectation_experiment(rd.UniformCube(2), 0.0, 50, 40, seed=1)
    cell = report.cells[0]
    assert cell["mean"] == 1.0
    assert cell["se"] == 0.0


def test_expectation_circle_against_quadrature_oracle():
    oracle, _ = integrate.quad(
        lambda u: (2.0 * math.sin(u)) ** -0.5 / math.pi, 0.0, math.pi
    )
    report = rd.expectation_experiment(
        rd.UniformCircle(), 0.5, 200, 500, seed=2, oracle=oracle
    )
    cell = report.cells[0]
    assert abs(cell["mean"] - oracle) <= 4.0 * cell["se"]


def test_expectation_unbiased_at_every_sample_size():
    for n in (10, 100, 1000):
        report = rd.expectation_experiment(rd.UniformCube(1), 0.4, n, 200, seed=3)
        assert abs(report.cells[0]["z"]) <= 4.0


def test_expectation_requires_oracle_unless_waived():
    measure = rd.CantorProduct((rd.CantorFactor(2, 3, (0, 2)),))
    with pytest.raises(rd.OracleUnavailable):
        rd.expectation_experiment(measure, 0.3, 50, 40, seed=0)
    report = rd.expectation_experiment(measure, 0.3, 50, 40, seed=0, oracle=None)
    assert report.oracle is None
    assert "z" not in report.cells[0]


def test_expectation_rep_floor():
    with pytest.raises(ValueError):
        rd.expectation_experiment(rd.UniformCube(1), 0.5, 50, 10, seed=0)


def test_wlln_rates_fall_and_vanish():
    report = rd.wlln_exceedance(
        rd.UniformCube(1), 0.4, 0.1, [50, 200, 800], 400, seed=3
    )
    rates = [c["rate"] for c in report.cells]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.05


def test_wlln_loose_threshold_never_exceeded():
    oracle = rd.reference_energy(rd.UniformCube(1), 0.3)
    report = rd.wlln_exceedance(
        rd.UniformCube(1), 0.3, 10.0 * oracle, [30, 60, 120], 100, seed=4
    )
    assert all(c["rate"] == 0.0 for c in report.cells)


def test_wlln_zero_exponent_rates_exactly_zero():
    report = rd.wlln_exceedance(rd.UniformCube(1), 0.0, 0.5, [10, 20, 40], 50, seed=5)
    assert [c["rate"] for c in report.cells] == [0.0, 0.0, 0.0]


def test_wlln_refuses_infinite_oracle():
    with pytest.raises(rd.OracleUnavailable):
        rd.wlln_exceedance(rd.UniformCube(1), 1.2, 0.1, [10, 20, 40], 50, seed=0)


def test_wlln_grid_validation():
    with pytest.raises(ValueError):
        rd.wlln_exceedance(rd.UniformCube(1), 0.4, 0.1, [50, 200], 50, seed=0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_wlln_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError):
        rd.wlln_exceedance(rd.UniformCube(1), 0.4, eps, [10, 20, 40], 30, seed=0)


def test_explicit_oracle_may_be_inf_but_not_nan():
    with pytest.raises(ValueError):
        rd.expectation_experiment(rd.UniformCube(1), 0.4, 10, 30, seed=0, oracle=math.nan)
    report = rd.expectation_experiment(rd.UniformCube(1), 0.4, 10, 30, seed=0, oracle=math.inf)
    assert report.oracle == math.inf and "z" not in report.cells[0]


def test_slln_zero_exponent_path_constant():
    path = rd.slln_path(rd.UniformCube(1), 0.0, 150, seed=0)
    assert all(j == 1.0 for _, j in path)
    assert [n for n, _ in path] == list(range(2, 151))


def test_slln_incremental_matches_batch():
    measure = rd.UniformCube(2)
    path = dict(rd.slln_path(measure, 0.7, 500, seed=6))
    cloud = rd.sample(measure, 500, 6)
    for n in (2, 37, 250, 500):
        batch = rd.discrete_energy(cloud.prefix(n), 0.7)
        assert path[n] == pytest.approx(batch, rel=1e-10)


def test_slln_tail_deviations_die_out():
    # one growing path per seed; the tail quarter stays within 0.1 of the
    # limit for at least 9 of 10 seeds
    oracle = rd.reference_energy(rd.UniformCube(1), 0.4)
    assert oracle == pytest.approx(25.0 / 12.0, rel=1e-12)
    bad = 0
    for seed in range(10):
        path = rd.slln_path(rd.UniformCube(1), 0.4, 5000, seed)
        sup = max(abs(j - oracle) for n, j in path if n >= 3750)
        if sup >= 0.1:
            bad += 1
    assert bad <= 1


def test_slln_requires_minimum_length():
    with pytest.raises(ValueError):
        rd.slln_path(rd.UniformCube(1), 0.4, 50, seed=0)


def test_reports_are_reproducible():
    a = rd.expectation_experiment(rd.UniformCube(1), 0.5, 60, 40, seed=9)
    b = rd.expectation_experiment(rd.UniformCube(1), 0.5, 60, 40, seed=9)
    assert a == b
    assert a.to_json() == b.to_json()
    pa = rd.slln_path(rd.UniformCube(1), 0.6, 200, seed=9)
    pb = rd.slln_path(rd.UniformCube(1), 0.6, 200, seed=9)
    assert pa == pb


def test_report_json_shape():
    report = rd.wlln_exceedance(rd.UniformCube(1), 0.4, 0.2, [30, 60, 120], 50, seed=1)
    doc = report.to_json()
    assert doc["kind"] == "wlln"
    assert doc["measure"]["variant"] == "uniform-cube"
    assert len(doc["cells"]) == 3
    assert doc["eps"] == 0.2
    assert doc["oracle_method"] == "closed-form"


def test_oracle_method_reporting():
    auto = rd.expectation_experiment(rd.UniformCube(2), 0.5, 40, 30, seed=2)
    assert auto.oracle_method == "quadrature"
    explicit = rd.expectation_experiment(
        rd.UniformCircle(), 0.5, 40, 30, seed=2, oracle=1.18
    )
    assert explicit.oracle_method == "explicit"
    assert rd.reference_energy_method(rd.UniformCircle()) == "closed-form"


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    st.sampled_from([rd.UniformCube(1), rd.UniformCube(2), rd.UniformCircle()]),
    st.integers(2, 60),
    st.integers(1, 12),
    st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
def test_replicates_are_bit_identical_at_any_thread_count(measure, n, reps, s_list, seed):
    serial = [
        rd.discrete_energy_multi(rd.sample(measure, n, seed, rep=r), s_list) for r in range(reps)
    ]
    want = np.column_stack(serial).tobytes()
    # every run stays alive, so no run can reuse the memory of an earlier one; every
    # round, however small, is dealt to forked workers on up to 4 CPUs
    with mock.patch.object(energy_mod, "_FORK_WORK", 0), mock.patch.object(energy_mod, "_cpu_count", lambda: 4):
        runs = [rd.replicate_energies(measure, s_list, n, reps, seed, threads=t) for t in (1, 2, 4, 0, -1)]
    assert [r.tobytes() for r in runs] == [want] * 5


def test_concurrent_variance_scans_get_identical_scores():
    args = (rd.UniformCube(2), [0.3, 0.9, 1.4], 40, 60, 8)
    want = rd.variance_blowup_scan(*args)
    results = []

    def call():
        results.append(rd.variance_blowup_scan(*args, threads=2))

    callers = [threading.Thread(target=call) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert results == [want] * 4


def test_replicates_drawn_by_workers_match_the_serial_loop(monkeypatch, forking):
    # each worker draws its own replicates; 314 points are the largest fold of one
    # strip, which then holds more than _TILE values
    ((_, _, size),) = cloud_mod._fold_blocks(314)
    assert size > cloud_mod._TILE
    measure, s_list, reps = rd.UniformCube(2), [0.3, 1.1], 7
    for n in (2, 3, 299, 300, 314):
        want = np.column_stack(
            [rd.discrete_energy_multi(rd.sample(measure, n, 6, rep=r), s_list) for r in range(reps)]
        ).tobytes()
        for t in (1, 2, 1000):
            assert rd.replicate_energies(measure, s_list, n, reps, seed=6, threads=t).tobytes() == want
        no_child_left()
    monkeypatch.delattr(os, "fork")  # a platform without fork runs the replicates serially
    assert rd.replicate_energies(measure, s_list, n, reps, seed=6, threads=3).tobytes() == want


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_replicates_drawn_in_chunks_match_the_serial_loop(monkeypatch, forking, per_chunk):
    import rieszdim.stats as stats_mod

    measure, s_list, n, reps = rd.UniformCube(2), [0.3, 1.1], 40, 11
    want = np.column_stack(
        [rd.discrete_energy_multi(rd.sample(measure, n, 6, rep=r), s_list) for r in range(reps)]
    ).tobytes()
    # a chunk holds max(1, _TILE // n) clouds; the strips shrink with it, which moves no bit
    monkeypatch.setattr(cloud_mod, "_TILE", per_chunk * n + n - 1)
    log, draw, energy = [], stats_mod.sample, stats_mod.discrete_energy_multi

    def logged_draw(measure, n, seed, rep):
        log.append(rep)
        return draw(measure, n, seed, rep=rep)

    def logged_energy(cloud, s_list):
        log.append("sum")
        return energy(cloud, s_list)

    monkeypatch.setattr(stats_mod, "sample", logged_draw)
    monkeypatch.setattr(stats_mod, "discrete_energy_multi", logged_energy)
    assert rd.replicate_energies(measure, s_list, n, reps, seed=6, threads=1).tobytes() == want
    chunks = [range(c, min(c + per_chunk, reps)) for c in range(0, reps, per_chunk)]
    assert log == [x for c in chunks for x in [*c, *["sum"] * len(c)]]
    assert rd.replicate_energies(measure, s_list, n, reps, seed=6, threads=2).tobytes() == want
    no_child_left()


def _failing_share(monkeypatch, in_parent, fail):
    """Patch the replicate energy so that ``fail()`` runs in the parent's share or a child's."""
    import rieszdim.stats as stats_mod

    parent, real = os.getpid(), stats_mod.discrete_energy_multi

    def energy(cloud, s_list):
        if (os.getpid() == parent) == in_parent:
            fail()
        return real(cloud, s_list)

    monkeypatch.setattr(stats_mod, "discrete_energy_multi", energy)


@pytest.mark.parametrize("in_parent", [False, True], ids=["child", "parent"])
def test_worker_errors_come_back_typed(monkeypatch, forking, in_parent):
    def fail():
        raise rd.DuplicatePoints("coincident draw")

    _failing_share(monkeypatch, in_parent, fail)
    with pytest.raises(rd.DuplicatePoints, match="coincident draw"):
        rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 12, seed=1, threads=3)
    no_child_left()


def test_unpicklable_and_fatal_child_errors_surface(monkeypatch, forking):
    class Local(Exception):  # a local class does not pickle
        pass

    def unpicklable():
        raise Local("only its name and message come back")

    _failing_share(monkeypatch, False, unpicklable)
    with pytest.raises(ChildProcessError, match="Local: only its name and message come back"):
        rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 12, seed=1, threads=2)
    no_child_left()
    _failing_share(monkeypatch, False, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(ChildProcessError, match="killed by signal"):
        rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 12, seed=1, threads=2)
    no_child_left()


def test_an_error_in_the_parent_share_kills_the_children(monkeypatch, forking):
    import rieszdim.stats as stats_mod

    parent, real = os.getpid(), stats_mod.discrete_energy_multi

    def energy(cloud, s_list):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)  # the child's two replicates outlast the test unless it is killed
        return real(cloud, s_list)

    monkeypatch.setattr(stats_mod, "discrete_energy_multi", energy)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        rd.replicate_energies(rd.UniformCube(1), [0.5], 20, 4, seed=1, threads=2)
    assert time.monotonic() - start < 10
    no_child_left()


@pytest.mark.parametrize(
    "call",
    [
        lambda: rd.variance_blowup_scan(rd.UniformCube(1), [0.5, 200], 30, 50, 0),
        lambda: rd.expectation_experiment(rd.UniformCube(1), 200, 50, 30, 0, oracle=None),
        lambda: rd.wlln_exceedance(rd.UniformCube(1), 200, 0.1, [30, 40, 50], 30, 0, oracle=1.0),
    ],
    ids=["varscan", "expectation", "wlln"],
)
def test_nan_statistics_raise_naming_exponent_and_n(call):
    # at s = 200 every replicate energy overflows; inf / inf and inf - inf are NaN
    with pytest.raises(rd.NonFiniteResult, match=r"s=200(\.0)?, n=(30|50)"):
        call()


def test_median_matches_numpy_bit_for_bit():
    from rieszdim.stats import _median

    rng = np.random.default_rng(3)
    for size in range(1, 60):
        values = rng.random(size) * 10.0 ** rng.integers(-3, 4)
        assert _median(values) == np.median(values)
    assert _median(np.array([1.0, math.inf])) == math.inf
