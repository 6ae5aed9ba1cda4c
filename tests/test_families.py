"""Closed-form profiles of the product families against the pair walk, oracles and caps."""

import math

import numpy as np
import pytest

import rieszdim as rd
import rieszdim.cantor as cantor_mod
import rieszdim.families as families_mod
from rieszdim.generators import _factor_levels

# the dim default exponents, the exact count s = 0, and a few past the transitions
_EXPS = [0.0] + [round(0.1 * i, 10) for i in range(1, 26)] + [3.7]

_CANTOR_SPECS = {
    "line": rd.CantorSpec((rd.CantorFactor(2, 3),), 6),
    "adjacent-kept": rd.CantorSpec((rd.CantorFactor(3, 4, (0, 2, 3)),), 5),
    "plane": rd.CantorSpec((rd.CantorFactor(2, 3),) * 2, 4),
    "mixed-bases": rd.CantorSpec((rd.CantorFactor(2, 3), rd.CantorFactor(3, 5)), 3),
    "mixed-3d": rd.CantorSpec(
        (rd.CantorFactor(2, 4), rd.CantorFactor(3, 4, (0, 2, 3)), rd.CantorFactor(2, 3)), 2),
}


def _assert_agrees(got, want):
    assert (got.s_grid, got.n_grid) == (want.s_grid, want.n_grid)
    assert got.values[0].tolist() == [1.0] * len(got.n_grid)
    np.testing.assert_allclose(got.values, want.values, rtol=1e-13, atol=0.0)


def test_grid_family_agrees_with_the_pair_engine():
    sizes = [2, 3, 10, 257, 1000]
    want = rd.profile_from_family([rd.grid_1d(n) for n in sizes], _EXPS)
    _assert_agrees(rd.grid_1d_profile(_EXPS, sizes), want)


@pytest.mark.parametrize("d, k", [(1, 9), (2, 5), (3, 3)])
def test_lattice_levels_agree_with_the_prefix_walk(d, k):
    sizes = [2 ** (j * d) for j in range(1, k + 1)]
    want = rd.energy_profile(rd.lattice(d, k), _EXPS, sizes)
    _assert_agrees(rd.lattice_profile(d, _EXPS, sizes), want)


@pytest.mark.parametrize("name", sorted(_CANTOR_SPECS))
def test_cantor_levels_agree_with_the_prefix_walk(name):
    spec = _CANTOR_SPECS[name]
    sizes = rd.cantor_prefix_sizes(spec)
    want = rd.energy_profile(rd.cantor_points(spec), _EXPS, sizes)
    _assert_agrees(rd.cantor_profile(spec, _EXPS, sizes), want)


@pytest.mark.parametrize("m, n, kept", [(2, 3, ()), (3, 4, (0, 2, 3)), (3, 5, ()), (4, 7, (0, 1, 5, 6)),
                                        (2, 5, (0, 4)), (5, 6, (0, 1, 2, 4, 5))])
def test_cantor_counts_are_the_pair_counts_of_the_endpoints(m, n, kept):
    factor = rd.CantorFactor(m, n, kept)
    levels = _factor_levels(factor, 4)
    for j, counts in enumerate(cantor_mod._cantor_counts(factor, 4), 1):
        e = np.array(sorted(levels[j - 1]))
        diffs = np.subtract.outer(e, e).ravel()
        assert counts.tolist() == np.bincount(diffs[diffs >= 0], minlength=n**j + 1).tolist()


@pytest.mark.parametrize("m, n, kept", [(2, 3, ()), (3, 4, (0, 2, 3)), (2, 4, (0, 2)),
                                        (3, 6, (1, 2, 5)), (4, 7, (0, 1, 5, 6)), (2, 5, (1, 3))])
def test_level_sizes_count_the_endpoints_of_any_factor(m, n, kept):
    # with or without the end intervals: only adjacent intervals share an endpoint
    factor = rd.CantorFactor(m, n, kept)
    assert cantor_mod._endpoint_sizes(factor, 5) == [len(s) for s in _factor_levels(factor, 5)]


def test_cantor_line_against_an_extended_precision_oracle():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3),), 7)
    sizes = rd.cantor_prefix_sizes(spec)
    got = rd.cantor_profile(spec, _EXPS[1:], sizes).values
    for j, n in enumerate(sizes):
        e = np.array(sorted(_factor_levels(spec.factors[0], 7)[j]), dtype=np.longdouble)
        r = np.abs(np.subtract.outer(e, e))
        log_r = np.log(r[r > 0] / np.longdouble(3 ** (j + 1)))
        want = np.array([np.sum(np.exp(-np.longdouble(s) * log_r)) for s in _EXPS[1:]]) / (n * (n - 1))
        assert float(np.max(np.abs(got[:, j] - want) / want)) < 3e-15


def test_sums_that_overflow_give_inf():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3),) * 2, 3)
    for values in (rd.lattice_profile(2, [1.0, 1000.0], [16, 64]).values,
                   rd.cantor_profile(spec, [1.0, 1000.0], [16, 64]).values):
        assert np.isfinite(values[0]).all() and (values[1] == math.inf).all()


def test_chunks_change_no_sum_beyond_rounding(monkeypatch):
    spec = _CANTOR_SPECS["mixed-bases"]
    whole = rd.cantor_profile(spec, _EXPS, [24, 144, 864]).values
    monkeypatch.setattr(families_mod, "_CHUNK", 7)
    chunked = rd.cantor_profile(spec, _EXPS, [24, 144, 864]).values
    assert chunked[0].tolist() == [1.0] * 3
    np.testing.assert_allclose(chunked, whole, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rd.lattice_profile(2, [0.5], [4, 8]), "8 points is no level of the 2-D"),
        (lambda: rd.lattice_profile(0, [0.5], [4]), "lattice needs d >= 1"),
        (lambda: rd.cantor_profile(_CANTOR_SPECS["line"], [0.5], [4, 6]),
         "6 points is no level of the Cantor"),
        (lambda: rd.cantor_profile(rd.CantorSpec((rd.CantorFactor(2, 4, (0, 2)),), 3), [0.5], [4]),
         "keep both ends"),
    ],
)
def test_sizes_that_are_no_whole_member_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_term_cap_refuses_before_any_sum(monkeypatch):
    def no_work(*args):
        raise AssertionError("a sum started")

    monkeypatch.setattr(families_mod, "_energies", no_work)
    spec = _CANTOR_SPECS["plane"]
    for call, terms in ((lambda cap: rd.grid_1d_profile([0.5], [8, 16], max_terms=cap), 22),
                        (lambda cap: rd.lattice_profile(2, [0.5], [4, 16], max_terms=cap), 18),
                        (lambda cap: rd.cantor_profile(spec, [0.5], [16, 64], max_terms=cap), 114)):
        with pytest.raises(rd.SizeCapExceeded, match=f"{terms} terms exceed the cap {terms - 1}"):
            call(terms - 1)
        with pytest.raises(AssertionError, match="a sum started"):
            call(terms)


def test_fsum_reads_the_buffer_with_the_bits_of_a_list():
    # math.fsum is correctly rounded, so the buffer and the list give the same bits
    rng = np.random.default_rng(9)
    rows = [rng.random(k) * 10.0 ** rng.integers(-300, 300) for k in (1, 7, 150, 4096)]
    rows.append(rng.random((40, 6))[:, 3])  # a strided view
    rows.append(np.zeros(0))
    for row in rows:
        assert families_mod._fsum(row) == math.fsum(row.tolist())
    huge = np.full(3, 1.7e308)
    with pytest.raises(OverflowError):
        math.fsum(huge.tolist())
    assert families_mod._fsum(huge) == math.inf
