import itertools
import math

import numpy as np
import pytest

import rieszdim as rd
from rieszdim.generators import semicircle_phase_points_detail, _harmonic


# ---------------------------------------------------------------- grid_1d


def test_grid_values():
    assert rd.grid_1d(4).points.ravel().tolist() == [0.2, 0.4, 0.6, 0.8]
    assert rd.grid_1d(2).points.ravel().tolist() == [1.0 / 3.0, 2.0 / 3.0]
    with pytest.raises(ValueError):
        rd.grid_1d(1)


def test_grid_energy_upper_bound_n100():
    n, t = 100, 0.5
    bound = 2 * (n + 1) ** 2 / (n * (n - 1) * (1 - t) * (2 - t))
    assert bound == pytest.approx(2.7477, abs=2e-4)
    assert rd.discrete_energy(rd.grid_1d(n), t) <= bound


# ---------------------------------------------------------------- lattice


def test_lattice_small_cases():
    assert rd.lattice(1, 1).points.ravel().tolist() == [0.0, 0.5]
    assert rd.lattice(2, 1).points.tolist() == [
        [0.0, 0.0],
        [0.0, 0.5],
        [0.5, 0.0],
        [0.5, 0.5],
    ]


def test_lattice_prefixes_are_coarser_lattices():
    # the prefix of size 2^{jd} equals the level-j lattice as a set
    lat = rd.lattice(1, 6)
    for j in range(1, 6):
        prefix = set(map(tuple, lat.prefix(2**j).points.tolist()))
        coarse = set(map(tuple, rd.lattice(1, j).points.tolist()))
        assert prefix == coarse
    lat2 = rd.lattice(2, 3)
    for j in range(1, 3):
        prefix = set(map(tuple, lat2.prefix(2 ** (2 * j)).points.tolist()))
        coarse = set(map(tuple, rd.lattice(2, j).points.tolist()))
        assert prefix == coarse


def test_lattice_points_distinct():
    lat = rd.lattice(2, 4)
    assert np.unique(lat.points, axis=0).shape[0] == lat.n


def test_lattice_three_dimensional_prefixes():
    lat = rd.lattice(3, 2)
    assert lat.n == 64
    prefix = set(map(tuple, lat.prefix(8).points.tolist()))
    coarse = set(map(tuple, rd.lattice(3, 1).points.tolist()))
    assert prefix == coarse


def test_lattice_size_cap():
    with pytest.raises(rd.SizeCapExceeded):
        rd.lattice(2, 10, max_points=1000)


def test_lattice_energy_approaches_interval_energy():
    # d=1, k=12, s=0.5: within 5% of the uniform-interval energy 8/3
    lat = rd.lattice(1, 12)
    j = rd.discrete_energy(lat, 0.5)
    oracle = rd.reference_energy(rd.UniformCube(1), 0.5)
    assert abs(j - oracle) / oracle < 0.05


def test_lattice_prefix_energies_cauchy():
    lat = rd.lattice(1, 12)
    prof = rd.energy_profile(lat, [0.5], [2**k for k in range(6, 13)])
    diffs = np.abs(np.diff(prof.values[0]))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------- cantor


def brute_cantor_endpoints(m, n, kept, level):
    """Independent recursive construction over exact fractions."""
    from fractions import Fraction

    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            w = (b - a) / n
            for c in kept:
                nxt.append((a + c * w, a + (c + 1) * w))
        intervals = nxt
    points = set()
    for a, b in intervals:
        points.add(a)
        points.add(b)
    return sorted(float(p) for p in points)


def test_middle_thirds_level_one():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3, (0, 2)),), 1)
    got = sorted(rd.cantor_points(spec).points.ravel().tolist())
    assert got == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]


def test_single_kept_interval_shrinks():
    spec = rd.CantorSpec(((1, 2, (0,)),), 3)
    got = sorted(rd.cantor_points(spec).points.ravel().tolist())
    assert got == [0.0, 0.125]


def test_factor_endpoints_match_brute_force():
    for m, n, kept, level in [(2, 3, (0, 2), 4), (2, 4, (1, 3), 3), (3, 5, (0, 2, 4), 3)]:
        spec = rd.CantorSpec((rd.CantorFactor(m, n, kept),), level)
        got = sorted(rd.cantor_points(spec).points.ravel().tolist())
        assert got == brute_cantor_endpoints(m, n, kept, level)


def test_points_stream_by_first_level_on_every_small_kept_set():
    # an endpoint's level is the first level whose endpoint set holds it,
    # whether or not the levels nest
    for n in range(2, 6):
        for m in range(1, n):
            for kept in itertools.combinations(range(n), m):
                levels = [brute_cantor_endpoints(m, n, kept, j) for j in (1, 2, 3)]
                first = {}
                for j, points in enumerate(levels, 1):
                    for x in points:
                        first.setdefault(x, j)
                want = sorted(levels[-1], key=lambda x: (first[x], x))
                spec = rd.CantorSpec((rd.CantorFactor(m, n, kept),), 3)
                assert rd.cantor_points(spec).points.ravel().tolist() == want


def test_product_size_and_membership():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3, (0, 2)),) * 2, 2)
    cloud = rd.cantor_points(spec)
    assert cloud.n == 64  # 8 endpoints per factor at level 2
    axis = brute_cantor_endpoints(2, 3, (0, 2), 2)
    expected = {(x, y) for x in axis for y in axis}
    assert set(map(tuple, cloud.points.tolist())) == expected


def test_levels_nest_when_ends_are_kept():
    # with 0 and n-1 kept, each level's endpoints survive to the next
    for level in range(1, 5):
        lo = set(rd.cantor_points(rd.CantorSpec(((2, 3, (0, 2)),), level)).points.ravel())
        hi = set(rd.cantor_points(rd.CantorSpec(((2, 3, (0, 2)),), level + 1)).points.ravel())
        assert lo <= hi


def test_prefixes_hit_level_boundaries():
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 6)
    cloud = rd.cantor_points(spec)
    sizes = rd.cantor_prefix_sizes(spec)
    for j, size in enumerate(sizes, start=1):
        prefix = set(cloud.prefix(size).points.ravel())
        level = set(
            rd.cantor_points(rd.CantorSpec(((2, 3, (0, 2)),), j)).points.ravel()
        )
        assert prefix == level


def test_cantor_coordinates_in_unit_cube():
    spec = rd.CantorSpec((rd.CantorFactor(2, 3, (0, 2)), rd.CantorFactor(2, 4, (1, 3))), 3)
    pts = rd.cantor_points(spec).points
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


def test_cantor_includes_unit_ends_when_kept():
    spec = rd.CantorSpec(((2, 3, (0, 2)),), 4)
    vals = set(rd.cantor_points(spec).points.ravel())
    assert 0.0 in vals and 1.0 in vals


def test_cantor_size_cap():
    spec = rd.CantorSpec(((2, 3, (0, 2)),) * 3, 5)
    with pytest.raises(rd.SizeCapExceeded):
        rd.cantor_points(spec, max_points=10_000)


def test_cantor_spec_validation():
    with pytest.raises(ValueError):
        rd.CantorFactor(3, 3, (0, 1, 2))
    with pytest.raises(ValueError):
        rd.CantorFactor(2, 3, (0, 3))
    with pytest.raises(ValueError):
        rd.CantorFactor(2, 3, (2, 0))
    with pytest.raises(ValueError):
        rd.CantorSpec(((2, 3, (0, 2)),), 0)


def test_cantor_dimension_values():
    one = rd.CantorSpec(((2, 3, (0, 2)),), 1)
    assert rd.cantor_dimension(one) == pytest.approx(math.log(2) / math.log(3), rel=1e-12)
    half = rd.CantorSpec(((2, 4, (0, 3)),), 1)
    assert rd.cantor_dimension(half) == pytest.approx(0.5, rel=1e-12)
    prod = rd.CantorSpec(((2, 3, (0, 2)),) * 2, 1)
    assert rd.cantor_dimension(prod) == pytest.approx(1.261859507, rel=1e-9)


# ------------------------------------------------------------- semicircle


def test_semicircle_initial_pair():
    cloud = rd.semicircle_phase_points(1, 2)
    angles = [math.atan2(y, x) for x, y in cloud.points]
    assert angles[0] == 0.0  # circle filling starts at angle 0
    # semicircle filling starts at its center, nudged off the collision
    assert 0.0 < angles[1] < 1e-8


def test_semicircle_points_on_unit_circle():
    cloud = rd.semicircle_phase_points(5, 20)
    radii = np.sqrt((cloud.points**2).sum(axis=1))
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_semicircle_validation():
    with pytest.raises(ValueError):
        rd.semicircle_phase_points(0, 2)
    with pytest.raises(ValueError):
        rd.semicircle_phase_points(1, 3)


def test_semicircle_energy_settles_while_mean_drifts():
    # long run: prefix energies stabilize although the phase centers, and
    # with them the batch mean directions, never stop moving
    cloud, bounds = semicircle_phase_points_detail(20, 200)
    prof = rd.energy_profile(cloud, [0.5], bounds)
    js = prof.values[0]
    diffs = np.abs(np.diff(js))
    assert diffs[0] > 0.2
    assert np.max(diffs[-5:]) < 0.005

    means = []
    prev = 0
    for b in bounds:
        v = cloud.points[prev:b].mean(axis=0)
        means.append(math.atan2(v[1], v[0]) % (2 * math.pi))
        prev = b
    last_drift = (means[-1] - means[-2]) % (2 * math.pi)
    harmonic_gap = _harmonic(19) - _harmonic(18)
    assert last_drift >= harmonic_gap
    # cumulative drift tracks the harmonic phase centers
    total = (means[-1] - means[0]) % (2 * math.pi)
    assert abs(total - _harmonic(19)) < 0.3


# ------------------------------------------------------------ energy-seq


def test_energy_sequence_two_point_inversion():
    spec = rd.EnergyTargetSpec(1.0, (2.0,))
    cloud, checkpoints = rd.energy_sequence_points(spec, 1)
    assert checkpoints == [(2, 2.0)]
    assert abs(cloud.points[1, 0] - cloud.points[0, 0]) == pytest.approx(0.5, abs=0)


def test_energy_sequence_equal_targets():
    spec = rd.EnergyTargetSpec(1.0, (4.0, 4.0))
    cloud, checkpoints = rd.energy_sequence_points(spec, 2)
    assert checkpoints[0][0] == 2
    n1, j1 = checkpoints[1]
    assert n1 == 3
    assert abs(j1 - 4.0) <= 1e-6 * 4.0


def test_energy_sequence_mixed_targets_reproduced_by_direct_energy():
    targets = (5.0, 3.0, 7.0, 2.0)
    spec = rd.EnergyTargetSpec(1.0, targets, tolerance=1e-6)
    cloud, checkpoints = rd.energy_sequence_points(spec, 2)
    sizes = [n for n, _ in checkpoints]
    assert sizes == sorted(sizes)
    for (n, _), target in zip(checkpoints, targets):
        achieved = rd.discrete_energy(cloud.prefix(n), 1.0)
        assert abs(achieved - target) <= 1e-6 * target


def test_energy_sequence_takes_one_full_energy_per_target(monkeypatch):
    # candidates are scored by the O(n) update from the potential, and an
    # appended far point carries its score on; only the checkpoints, where
    # the tolerance is checked, pay a full pair sum
    import rieszdim.generators as gen_mod

    calls = []

    def counting(cloud, s, **kw):
        calls.append(cloud.n)
        return rd.discrete_energy(cloud, s, **kw)

    monkeypatch.setattr(gen_mod, "discrete_energy", counting)
    spec = rd.EnergyTargetSpec(1.0, (10.0, 0.5, 3.0, 1.0), tolerance=1e-6)
    cloud, checkpoints = rd.energy_sequence_points(spec, 2)
    assert cloud.n > len(spec.targets) + 1  # the 10 -> 0.5 drop appends far points
    assert calls == [n for n, _ in checkpoints]
    for n, j in checkpoints:
        assert j == rd.discrete_energy(cloud.prefix(n), 1.0)


def test_energy_sequence_refuses_a_point_past_the_cap(monkeypatch):
    # 5 -> 0.05 at s = 1 in d = 1 needs 15 points; the 15th is refused
    # before any energy or potential is computed for it
    import rieszdim.generators as gen_mod

    spec = rd.EnergyTargetSpec(1.0, (5.0, 0.05))
    full, _ = rd.energy_sequence_points(spec, 1)
    assert full.n == 15
    sizes = []

    def energy(cloud, s, **kw):
        sizes.append(cloud.n)
        return rd.discrete_energy(cloud, s, **kw)

    def potential(cloud, x, s, **kw):
        sizes.append(cloud.n + 1)
        return rd.riesz_potential_discrete(cloud, x, s, **kw)

    monkeypatch.setattr(gen_mod, "discrete_energy", energy)
    monkeypatch.setattr(gen_mod, "riesz_potential_discrete", potential)
    with pytest.raises(rd.SizeCapExceeded):
        rd.energy_sequence_points(spec, 1, max_points=14)
    assert max(sizes) == 14
    capped, _ = rd.energy_sequence_points(spec, 1, max_points=15)
    assert np.array_equal(capped.points, full.points)
    with pytest.raises(rd.SizeCapExceeded):
        rd.energy_sequence_points(rd.EnergyTargetSpec(1.0, (2.0,)), 1, max_points=1)


def test_energy_sequence_deep_drop_appends_points():
    spec = rd.EnergyTargetSpec(1.0, (10.0, 0.5))
    cloud, checkpoints = rd.energy_sequence_points(spec, 1)
    assert checkpoints[1][0] > 3  # the drop forces several far points


def test_energy_sequence_past_the_double_range_is_unreachable():
    # at s = 0.05 a far point must sit (5e-10 (n-1) J)^(-20) past the
    # extent, which overflows within the 1 -> 0.01 drop: a typed error, with
    # no overflow or invalid-value warning (which the suite turns into
    # errors) and no nan potential
    with pytest.raises(rd.TargetUnreachable, match="double range"):
        rd.energy_sequence_points(rd.EnergyTargetSpec(0.05, (1.0, 0.01)), 1)


@pytest.mark.parametrize(
    "s, targets, d",
    [
        (2.0, (1e-320, 1e-321), 2),  # the far point's potential bound underflows to 0
        (1.0, (1e308, 1e308), 2),  # the potential the slide point needs overflows
        (1.0, (1e-10, 1e-10, 1e-10, 1e300), 1),  # the slide offset vanishes against t0
    ],
    ids=["far-bound-underflows", "needed-potential-overflows", "slide-offset-vanishes"],
)
def test_energy_sequence_placement_outside_the_doubles_is_unreachable(s, targets, d):
    with pytest.raises(rd.TargetUnreachable, match="double"):
        rd.energy_sequence_points(rd.EnergyTargetSpec(s, targets), d)


@pytest.mark.parametrize(
    "s, targets, d, size",
    [
        (1.0, (1.0, 1e-3), 1, 46),  # d = 1: the slide point sits on the near side
        (0.5, (1.0, 1e-3), 2, 46),  # s = 1/2: far points at about 4e16 and beyond
        (0.5, (1.0, 1e-6), 1, 1415),
        (0.5, (10.0, 0.5, 3.0, 1e-3), 2, 411),
        (1.0, (1.0, 1e-6), 1, 1415),  # 1412 far points on one side in d = 1
    ],
    ids=["s1-d1-1e-3", "s0.5-d2-1e-3", "s0.5-d1-1e-6", "s0.5-d2-four-targets", "s1-d1-1e-6"],
)
def test_energy_sequence_reaches_deep_drops(s, targets, d, size):
    # each far point and each slide bracket is placed in closed form from
    # the potential's bounds; the slide point is bisected inside its bracket
    spec = rd.EnergyTargetSpec(s, targets)
    cloud, checkpoints = rd.energy_sequence_points(spec, d)
    assert cloud.n == checkpoints[-1][0] == size
    for (n, j), target in zip(checkpoints, targets):
        assert j == rd.discrete_energy(cloud.prefix(n), s)
        assert abs(j - target) <= spec.tolerance * target


@pytest.mark.parametrize("targets", [(1e-300, 1e-301), (1e300, 1e299)])
def test_energy_sequence_first_gap_outside_the_double_range_is_unreachable(targets):
    # at s = 0.01 the gap e_1^(-1/s) overflows for e_1 = 1e-300 and
    # underflows to 0 for e_1 = 1e300, which would place x_2 on x_1
    with pytest.raises(rd.TargetUnreachable, match="first target"):
        rd.energy_sequence_points(rd.EnergyTargetSpec(0.01, targets), 1)


def test_energy_target_spec_validation():
    with pytest.raises(ValueError):
        rd.EnergyTargetSpec(0.0, (1.0,))
    with pytest.raises(ValueError):
        rd.EnergyTargetSpec(1.0, ())
    with pytest.raises(ValueError):
        rd.EnergyTargetSpec(1.0, (1.0, -2.0))
    with pytest.raises(ValueError):
        rd.EnergyTargetSpec(1.0, (1.0,), tolerance=0.01)
    with pytest.raises(ValueError):
        rd.energy_sequence_points(rd.EnergyTargetSpec(1.5, (1.0,)), 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rd.EnergyTargetSpec(bad, (1.0, 2.0))
        with pytest.raises(ValueError):
            rd.EnergyTargetSpec(1.0, (1.0, bad))
