import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdim as rd
import rieszdim.cloud as cloud_mod
import rieszdim.sets as sets_mod
from conftest import random_cloud, traced_peak
from rieszdim.sets import default_erdos_exponents


def exact_distance_count(points):
    """Rational-arithmetic oracle: distinct squared distances."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    seen = set()
    for a, b in itertools.combinations(pts, 2):
        seen.add(sum((x - y) ** 2 for x, y in zip(a, b)))
    return len(seen)


# ------------------------------------------------------------ distance set


def test_grid_distances_form_arithmetic_progression():
    for n in (2, 5, 17, 60):
        vs = rd.distance_set(rd.grid_1d(n))
        assert vs.count == n - 1


def test_two_points_single_distance():
    vs = rd.distance_set(rd.PointCloud([[0.0, 0.0], [3.0, 4.0]]))
    assert vs.count == 1
    assert vs.values[0] == pytest.approx(5.0, abs=0)


def test_three_by_three_grid_exact_counts():
    grid = [[float(x), float(y)] for x in range(3) for y in range(3)]
    cloud = rd.PointCloud(grid)
    vs = rd.distance_set(cloud)
    assert vs.quantization == "exact"
    assert vs.count == 5
    squared = sorted(round(v * v) for v in vs.values)
    assert squared == [1, 2, 4, 5, 8]
    assert exact_distance_count(grid) == 5


def test_exact_mode_matches_rational_oracle_on_random_integer_clouds():
    rng = np.random.default_rng(31)
    for n in (50, 200, 500):
        pts = rng.integers(0, 40, size=(n, 2)).astype(float)
        pts = np.unique(pts, axis=0)
        cloud = rd.PointCloud(pts)
        vs = rd.distance_set(cloud)
        assert vs.quantization == "exact"
        assert vs.count == exact_distance_count(pts)


def test_exact_mode_requires_integer_coordinates():
    with pytest.raises(ValueError):
        rd.distance_set(rd.PointCloud([[0.1], [0.7]]), "exact")


def test_quantized_never_splits_equal_and_never_overmerges():
    rng = np.random.default_rng(8)
    pts = rng.random((120, 2))
    cloud = rd.PointCloud(pts)
    vs = rd.distance_set(cloud)
    step = vs.quantization
    # reported representatives are separated by more than the step
    assert np.all(np.diff(vs.values) > step * 0.5)
    # every true distance lands within one step of a representative
    d = np.sqrt(
        ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    )[np.triu_indices(120, k=1)]
    nearest = np.min(np.abs(d[:, None] - vs.values[None, :]), axis=1)
    assert np.max(nearest) <= step
    # exactly-equal distances never split: isoceles configuration
    iso = rd.PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert rd.distance_set(iso, 1e-9).count == 1
    # values three steps apart never merge
    sep = rd.PointCloud([[0.0], [1.0], [1.0 + 3e-9]])
    assert rd.distance_set(sep, 1e-9).count == 3


def test_distance_set_isometry_invariance():
    rng = np.random.default_rng(77)
    pts = rng.random((60, 2))
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    moved = pts @ q.T + rng.normal(size=2)
    a = rd.distance_set(rd.PointCloud(pts), 1e-9)
    b = rd.distance_set(rd.PointCloud(moved), 1e-9)
    assert a.count == b.count
    assert np.allclose(a.values, b.values, atol=3e-9)


def test_distance_set_below_the_square_underflow_has_no_zero():
    # 1e-300 squared underflows to 0, yet the points are distinct
    vs = rd.distance_set(rd.PointCloud([[0.0], [1e-300], [0.5]]))
    assert vs.values.tolist() == pytest.approx([1e-300, 0.5], rel=1e-15, abs=0.0)
    assert 0.0 not in vs.values
    vs2 = rd.distance_set(rd.PointCloud([[0.0, 0.0], [3e-300, 4e-300], [0.5, 0.2]]))
    assert vs2.count == 2  # 5e-300, and two far distances on one grid key
    assert vs2.values[0] == pytest.approx(5e-300, rel=1e-15, abs=0.0)


def test_distance_set_where_the_squares_overflow():
    # integer-valued coordinates past the exact-mode bound, squares past the
    # largest double: the bounds and the distances stay finite
    vs = rd.distance_set(rd.PointCloud([[0.0], [1e200], [3e200]]))
    assert vs.values.tolist() == [1e200, 2e200, 3e200]


def test_distance_set_where_a_difference_overflows():
    # the diameter 2e308 is inf, so no grid step resolves it; the spans are
    # bounded without overflow, and every mode refuses the cloud
    c = rd.PointCloud([[-1e308], [1e308], [0.0]])
    for quantization in ("auto", "exact", 1.0):
        with pytest.raises(ValueError):
            rd.distance_set(c, quantization)


def test_distance_set_auto_step_below_the_square_underflow():
    vs = rd.distance_set(rd.PointCloud([[0.0], [1e-300]]))
    assert vs.values.tolist() == [1e-300]
    assert vs.quantization == 1e-9 * 1e-300


def test_distance_set_at_a_gap_whose_square_is_subnormal():
    g = 1.23456789e-161
    vs = rd.distance_set(rd.PointCloud([[0.0], [g], [0.5]]))
    assert vs.values[0] == pytest.approx(g, rel=1e-14, abs=0.0)


def test_distance_set_needs_two_points():
    with pytest.raises(rd.TooFewPoints):
        rd.distance_set(rd.PointCloud([[0.0]]))


def test_exact_mode_bound_depends_on_dimension():
    # squared distances 2^53 + 1 and 2^53 (3-D), and 2^52 + 1 and 2^52
    # (2-D) have equal float square roots, so exact mode cannot hold them
    big = 2**25
    for pts in (
        [[-big, -big, 0], [big, big, 0], [big, big, 1]],
        [[-big, 0], [big, 0], [big, 1]],
    ):
        cloud = rd.PointCloud(pts)
        vs = rd.distance_set(cloud)
        assert vs.quantization == 1e-9 * cloud.diameter()
        assert vs.count == 2
        with pytest.raises(ValueError, match="2\\^51"):
            rd.distance_set(cloud, "exact")


def test_exact_mode_holds_up_to_the_bound():
    # both axes span 2^25: squared distances reach 2^50 + 2^50 = 2^51
    top = [[0, 0], [2**25, 0], [2**25, 2**25], [0, 1], [1, 2**25]]
    vs = rd.distance_set(rd.PointCloud(top))
    assert vs.quantization == "exact"
    assert vs.count == exact_distance_count(top)
    # a large offset with a small span stays exact
    shifted = [[10.0**15 + x, 7.0] for x in (0, 1, 3)]
    vs = rd.distance_set(rd.PointCloud(shifted))
    assert vs.quantization == "exact"
    assert vs.values.tolist() == [1.0, 2.0, 3.0]


# --------------------------------------------------------- dot-product set


def test_orthonormal_pair_dots():
    cloud = rd.PointCloud([[1.0, 0.0], [0.0, 1.0]])
    vs = rd.dot_product_set(cloud)
    assert vs.count == 2
    assert vs.values.tolist() == [0.0, 1.0]


def test_single_point_self_dot():
    vs = rd.dot_product_set(rd.PointCloud([[3.0, 4.0]]))
    assert vs.count == 1
    assert vs.values[0] == 25.0


def test_grid_dot_products_match_brute_force():
    grid = [[float(x), float(y)] for x in range(3) for y in range(3)]
    brute = {
        a[0] * b[0] + a[1] * b[1] for a in grid for b in grid
    }
    vs = rd.dot_product_set(rd.PointCloud(grid), 1e-9)
    assert vs.count == len(brute)
    assert set(np.round(vs.values).astype(int)) == brute


def test_dot_products_include_negatives():
    cloud = rd.PointCloud([[1.0], [-1.0]])
    vs = rd.dot_product_set(cloud, 1e-9)
    assert vs.values.tolist() == [-1.0, 1.0]


def test_dot_product_lipschitz_bound_interval():
    # |(x+u)(y+v) - xy| <= 3a for x, y in [0,1], |u|,|v| <= a <= 1
    rng = np.random.default_rng(13)
    trials = 10_000
    alpha = rng.random(trials)
    x = rng.random(trials)
    y = rng.random(trials)
    u = alpha * (2.0 * rng.random(trials) - 1.0)
    v = alpha * (2.0 * rng.random(trials) - 1.0)
    moved = np.abs((x + u) * (y + v) - x * y)
    assert np.all(moved <= 3.0 * alpha + 1e-15)


def test_dot_product_lipschitz_bound_higher_dimension():
    # in [0,1]^d the displacement bound picks up the corner norm sqrt(d):
    # |x.v + y.u + u.v| <= (2 sqrt(d) + 1) a
    rng = np.random.default_rng(14)
    d = 2
    trials = 10_000
    alpha = rng.random(trials)

    def ball(k):
        w = rng.normal(size=(k, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return w * (alpha * rng.random(trials) ** (1.0 / d))[:, None]

    x = rng.random((trials, d))
    y = rng.random((trials, d))
    u = ball(trials)
    v = ball(trials)
    moved = np.abs(np.sum((x + u) * (y + v), axis=1) - np.sum(x * y, axis=1))
    assert np.all(moved <= (2.0 * math.sqrt(d) + 1.0) * alpha + 1e-15)


# ------------------------------------------------------------------- erdos


def test_erdos_two_points():
    report = rd.erdos_report(rd.PointCloud([[0.0], [1.0]]), [1.0, 2.0])
    for row in report.rows:
        assert row["ratio"] == pytest.approx(1.0 / 2.0 ** (1.0 / row["s0"]), rel=1e-12)


@pytest.mark.parametrize("s0", [0.0, -1.0, math.nan, math.inf])
def test_erdos_rejects_bad_thresholds(s0):
    with pytest.raises(ValueError):
        rd.erdos_report(rd.PointCloud([[0.0], [1.0]]), [1.0, s0])


def test_erdos_default_exponents():
    assert default_erdos_exponents(1) == [0.5]
    assert default_erdos_exponents(2) == [1.0, 1.25]
    d3 = default_erdos_exponents(3)
    assert d3[0] == 1.5
    assert d3[1] == pytest.approx(1.5 + 0.25 - 1.0 / 28.0, rel=1e-12)


def test_erdos_integer_grid_count_is_small():
    # sqrt(n) x sqrt(n) integer grid: squared distances bounded by
    # 2 (sqrt(n) - 1)^2, so the count is at most 2n
    k = 14
    grid = [[float(x), float(y)] for x in range(k) for y in range(k)]
    report = rd.erdos_report(rd.PointCloud(grid))
    n = k * k
    assert report.count <= 2 * n
    assert report.quantization == "exact"


def test_erdos_generic_cloud_ratio_large():
    # generic points give about n^2/2 distinct distances, far above n^{4/5};
    # cross-checked against the brute-force oracle at this size
    pts = rd.sample(rd.UniformCube(2), 200, seed=1).points
    report = rd.erdos_report(rd.PointCloud(pts))
    brute = len(
        {
            round(math.dist(a, b), 9)
            for a, b in itertools.combinations(pts.tolist(), 2)
        }
    )
    assert report.count == brute
    row = next(r for r in report.rows if r["s0"] == 1.25)
    assert row["ratio"] > 10.0


def test_value_set_validation():
    with pytest.raises(ValueError):
        rd.ValueSet("distance", np.array([1.0, 1.0]), 1e-9, 2)
    with pytest.raises(ValueError):
        rd.ValueSet("distance", np.array([1.0, 2.0]), 1e-9, 3)


def test_value_set_json_suppresses_large_lists():
    vs = rd.ValueSet("distance", np.arange(1.0, 12.0), 1e-9, 11)
    assert "values" in vs.to_json()
    assert "values" not in vs.to_json(max_values=10)


# ---------------------------------------------------------- tiling oracles


def oracle_min_per_key(values, step):
    """The dedup contract: per key round(v / step), the smallest value."""
    best = {}
    for v in values:
        k = round(v / step)
        if k not in best or v < best[k]:
            best[k] = v
    return [best[k] for k in sorted(best)]


def pair_distances(points):
    out = []
    for a, b in itertools.combinations(points, 2):
        acc = 0.0
        for x, y in zip(a, b):
            acc += (x - y) * (x - y)
        out.append(math.sqrt(acc))
    return out


def dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def tiling_clouds():
    rng = np.random.default_rng(2024)
    lattice = np.unique(rng.integers(0, 12, size=(150, 2)), axis=0)[:101]
    return {
        "generic-2d": rng.random((150, 2)),
        "generic-3d": rng.random((131, 3)) - 0.5,
        "grid-1d": rd.grid_1d(97).points,
        "lattice-2d": lattice.astype(float),
    }


BLOCKS = (7, 64, 1024)


@pytest.mark.parametrize("name", sorted(tiling_clouds()))
def test_distance_set_same_at_every_block_size(name, monkeypatch):
    pts = tiling_clouds()[name]
    cloud = rd.PointCloud(pts)
    step = 1e-9 * cloud.diameter()
    oracle = oracle_min_per_key(pair_distances(pts.tolist()), step)
    for block in BLOCKS:
        monkeypatch.setattr(cloud_mod, "_TILE", block * block)
        vs = rd.distance_set(cloud, step)
        assert vs.values.tolist() == oracle, block
        auto = rd.distance_set(cloud)
        if name == "lattice-2d":
            squared = {
                sum((int(x) - int(y)) ** 2 for x, y in zip(a, b))
                for a, b in itertools.combinations(pts.tolist(), 2)
            }
            assert auto.quantization == "exact"
            assert auto.values.tolist() == [math.sqrt(q) for q in sorted(squared)]
        else:
            assert auto.quantization == step
            assert auto.values.tolist() == oracle


@pytest.mark.parametrize("name", sorted(tiling_clouds()))
def test_dot_product_set_same_at_every_block_size(name, monkeypatch):
    pts = tiling_clouds()[name]
    cloud = rd.PointCloud(pts)
    points = pts.tolist()
    scale = max(dot(p, p) for p in points)
    oracle = oracle_min_per_key([dot(a, b) for a in points for b in points], 1e-9 * scale)
    for block in BLOCKS:
        monkeypatch.setattr(cloud_mod, "_TILE", block * block)
        vs = rd.dot_product_set(cloud)
        assert vs.quantization == 1e-9 * scale
        assert vs.values.tolist() == oracle, block


@pytest.mark.parametrize("name", sorted(tiling_clouds()))
def test_diameter_and_min_gap_same_at_every_block_size(name, monkeypatch):
    pts = tiling_clouds()[name]
    dists = pair_distances(pts.tolist())
    for block in BLOCKS + (2048,):
        monkeypatch.setattr(cloud_mod, "_TILE", block * block)
        cloud = rd.PointCloud(pts)
        assert cloud.diameter() == max(dists), block
        assert cloud.min_gap() == min(dists), block


def test_dot_products_report_zero_as_positive_zero():
    vs = rd.dot_product_set(rd.PointCloud([[-1.0, 0.0], [0.0, -1.0]]), 1e-9)
    assert vs.values.tolist() == [0.0, 1.0]
    assert math.copysign(1.0, vs.values[0]) == 1.0


# ------------------------------------------------------------- properties

small_int_clouds = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    min_size=2,
    max_size=25,
    unique=True,
)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(small_int_clouds)
def test_exact_and_quantized_dedup_agree_in_count(points):
    cloud = rd.PointCloud(points)
    exact = rd.distance_set(cloud, "exact")
    quantized = rd.distance_set(cloud, 1e-9 * cloud.diameter())
    assert exact.count == quantized.count == exact_distance_count(points)


fractional = st.integers(-(10**4), 10**4).map(lambda k: k / 997.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.lists(
        st.tuples(fractional, fractional),
        min_size=2,
        max_size=25,
        unique=True,
    ),
    st.randoms(use_true_random=False),
)
def test_distance_set_ignores_point_order(points, random):
    shuffled = list(points)
    random.shuffle(shuffled)
    a = rd.distance_set(rd.PointCloud(points))
    b = rd.distance_set(rd.PointCloud(shuffled))
    assert a.count == b.count
    assert a.values.tolist() == b.values.tolist()


# ------------------------------------------------------------ merge buffer


def concat_dedup(tiles, step):
    """The dedup the merge buffer replaced: per tile, then over the concatenation."""

    def min_per_key(values):
        v = np.sort(values)
        keys = np.rint(v / step).astype(np.int64)
        return v[np.r_[True, keys[1:] != keys[:-1]]]

    return min_per_key(np.concatenate([min_per_key(t) for t in tiles]))


def concat_distance_set(cloud):
    pts = cloud.points
    if sets_mod._exact_mode_fits(pts):
        return np.sqrt(concat_dedup(cloud_mod._pair_tiles(pts), 1.0)), "exact"
    step = 1e-9 * cloud.diameter()
    return concat_dedup(cloud_mod._pair_distances(pts), step), step


def concat_dot_product_set(cloud):
    pts = cloud.points
    scale = float(np.max(np.sum(pts * pts, axis=1)))
    step = 1e-9 * (scale if scale > 0 else 1.0)
    return concat_dedup(cloud_mod._pair_tiles(pts, dot=True), step), step


def assert_same_as_concat(cloud):
    for got, (values, quantization) in (
        (rd.distance_set(cloud), concat_distance_set(cloud)),
        (rd.dot_product_set(cloud), concat_dot_product_set(cloud)),
    ):
        assert got.values.tobytes() == values.tobytes()
        assert got.count == values.size
        assert got.quantization == quantization


def integer_lattice(k):
    return rd.PointCloud([[x, y] for x in range(k) for y in range(k)])


IDENTITY_CLOUDS = {
    "random-1d-2": lambda: random_cloud(1, 2, 1),
    "random-1d-400": lambda: random_cloud(2, 400, 1),
    "random-2d-2": lambda: random_cloud(3, 2, 2),
    "random-2d-1500": lambda: random_cloud(11, 1500, 2),
    "random-3d-3": lambda: random_cloud(4, 3, 3),
    "random-3d-700": lambda: random_cloud(5, 700, 3),
    "grid-1d-3000": lambda: rd.grid_1d(3000),
    "lattice-60x60": lambda: integer_lattice(60),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_CLOUDS))
def test_merge_buffer_matches_concatenate_and_sort(name):
    assert_same_as_concat(IDENTITY_CLOUDS[name]())


small_coords = st.integers(-12, 12)
fine_coords = st.integers(-(10**6), 10**6).map(lambda k: k / 999_983.0)
clouds_of_every_kind = st.one_of(
    # generic: a fine grid, almost no repeated values
    st.lists(st.tuples(fine_coords, fine_coords), min_size=1, max_size=40),
    # integer coordinates: exact mode for distances
    st.lists(st.tuples(small_coords, small_coords), min_size=1, max_size=40),
    # few coordinate values off the integers: many repeated quantized values
    st.lists(
        st.tuples(small_coords.map(lambda k: k / 7.0), st.just(0.5)), min_size=1, max_size=40
    ),
).map(lambda pts: np.unique(np.array(pts, dtype=float).reshape(-1, 2), axis=0))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(clouds_of_every_kind, st.booleans())
def test_merge_buffer_matches_concatenate_and_sort_property(pts, tiny):
    cloud = rd.PointCloud(pts)
    with mock.patch.object(cloud_mod, "_TILE", 5 * 5 if tiny else cloud_mod._TILE):
        if cloud.n >= 2:
            assert_same_as_concat(cloud)
        else:
            got = rd.dot_product_set(cloud)
            values, _ = concat_dot_product_set(cloud)
            assert got.values.tobytes() == values.tobytes()


FORCED_COMPACTION_CLOUDS = {
    "grid-1d-150": lambda: rd.grid_1d(150),
    "lattice-12x12": lambda: integer_lattice(12),
    "random-2d-120": lambda: random_cloud(6, 120, 2),
}


def counting_compactions(monkeypatch):
    """Patch the dedup to log each call's compactions as (buffer size, values, kept)."""
    calls = []
    real_dedup, real_compact = sets_mod._dedup_tiles, sets_mod._compact

    def counting_dedup(tiles, pairs, step):
        calls.append([])
        return real_dedup(tiles, pairs, step)

    def counting_compact(buf, p, step):
        kept = real_compact(buf, p, step)
        calls[-1].append((buf.size, p, kept))
        return kept

    monkeypatch.setattr(sets_mod, "_dedup_tiles", counting_dedup)
    monkeypatch.setattr(sets_mod, "_compact", counting_compact)
    return calls


@pytest.mark.parametrize("name", sorted(FORCED_COMPACTION_CLOUDS))
def test_forced_compaction_and_growth(name, monkeypatch):
    # strips and compaction chunks of about 7 x 7 values and a first buffer
    # of four of them: every call compacts and grows, and chunk edges fall
    # inside runs of equal keys
    cloud = FORCED_COMPACTION_CLOUDS[name]()
    monkeypatch.setattr(cloud_mod, "_TILE", 7 * 7)
    cut_runs = []
    real_compact = sets_mod._compact

    def cut_counting_compact(buf, p, step):
        keys = np.rint(np.sort(buf[:p]) / step)
        edges = np.arange(cloud_mod._TILE, p, cloud_mod._TILE)
        cut_runs.append(int(np.sum(keys[edges] == keys[edges - 1])))
        return real_compact(buf, p, step)

    monkeypatch.setattr(sets_mod, "_compact", cut_counting_compact)
    calls = counting_compactions(monkeypatch)
    assert_same_as_concat(cloud)
    assert len(calls) == 2  # the distance and the dot-product call
    compactions = [c for call in calls for c in call]
    if name == "random-2d-120":
        # no key repeats: two sixteenfold growths take the first buffer of
        # 196 values past the 7140 distances and 7260 dot products, then
        # one last compaction (growing by fours took four or five)
        assert all(len(call) <= 3 for call in calls), calls
    else:
        assert len(compactions) > 6
        assert sum(cut_runs) > 0
    assert max(size for size, _, _ in compactions) > 4 * 7 * 7  # the buffer grew


def test_growth_stays_within_the_stated_bound(monkeypatch):
    # on a grid as coarse as 0.02, half of the first strip's dot products
    # share a key and almost all of the later ones do: the keys fill up
    # early, and the answer is a small share of the values
    cloud = random_cloud(6, 120, 2)
    monkeypatch.setattr(cloud_mod, "_TILE", 7 * 7)
    calls = counting_compactions(monkeypatch)
    got = rd.dot_product_set(cloud, 0.02)
    want = concat_dedup(cloud_mod._pair_tiles(cloud.points, dot=True), 0.02)
    assert got.values.tobytes() == want.tobytes()
    (log,) = calls
    strips = [size for *_, size in cloud_mod._fold_blocks(cloud.n, first=0)]
    ends = list(itertools.accumulate(strips))
    pairs = ends[-1]
    assert log[-1][2] / pairs < log[0][2] / log[0][1]  # the kept fraction falls
    seen = kept = 0
    for (size, p, k), (after, _, _) in zip(log, log[1:]):
        seen += p - kept  # the values appended since the last compaction
        kept = k
        tile = strips[ends.index(seen) + 1]  # the strip that did not fit
        if 2 * (kept + tile) <= size:
            assert after == size  # at most half full: no growth
        else:
            assert after == min(16 * (kept + tile), pairs)
    answer = got.values.size
    bound = min(pairs, max(4 * 7 * 7, 16 * (answer + max(strips))))
    assert 4 * 7 * 7 < max(size for size, _, _ in log) <= bound  # the buffer grew, within bound


@pytest.mark.parametrize("call", [rd.distance_set, rd.erdos_report])
def test_auto_mode_walks_the_whole_cloud_once(call, monkeypatch):
    # the diameter that fixes the grid step walks a pruned cloud only
    cloud = random_cloud(11, 1500, 2)
    whole = []
    real_tile = cloud_mod._tile

    def counting_tile(a, b, **kwargs):
        whole.append(b.shape[1] == cloud.n)
        return real_tile(a, b, **kwargs)

    monkeypatch.setattr(cloud_mod, "_tile", counting_tile)
    call(cloud)
    assert sum(whole) == len(cloud_mod._fold_blocks(cloud.n))
    assert len(whole) > sum(whole)  # the diameter's walks over fewer points


# ----------------------------------------------------- dedup memory bounds

MiB = 1 << 20


# (call, answers): the traced peak may reach answers x the answer's bytes + 4 MiB
MEMORY_CASES = {
    "random-2d-1500-distances": (lambda: rd.distance_set(random_cloud(11, 1500, 2)), 2),
    "random-2d-1500-dots": (lambda: rd.dot_product_set(random_cloud(11, 1500, 2)), 2),
    "grid-1d-3000-distances": (lambda: rd.distance_set(rd.grid_1d(3000)), 0),
    "lattice-60x60-exact": (lambda: rd.distance_set(integer_lattice(60)), 0),
    "grid-1d-3000-dots": (lambda: rd.dot_product_set(rd.grid_1d(3000)), 3),
    # keys fill up early, but the answer is only 1/36 of the 4.5M distances:
    # the buffer grows to 16 times what a compaction keeps plus a strip
    "random-2d-3000-step-1e-5": (lambda: rd.distance_set(random_cloud(11, 3000, 2), 1e-5), 16),
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_dedup_memory_follows_the_answer(name):
    call, answers = MEMORY_CASES[name]
    vs, peak = traced_peak(call)
    assert peak <= answers * vs.values.nbytes + 4 * MiB, (peak, vs.values.nbytes)


# -------------------------------------------------- quantization refusals


def refuse_pair_pass(*args, **kwargs):
    raise AssertionError("the pair pass ran before the step was checked")


@pytest.mark.parametrize("step", [0.0, -1e-9, math.inf, -math.inf, math.nan])
def test_steps_not_finite_and_positive_are_refused(step, monkeypatch):
    cloud = random_cloud(5, 50, 2)
    monkeypatch.setattr(sets_mod, "_dedup_tiles", refuse_pair_pass)
    with pytest.raises(ValueError, match="finite and positive"):
        rd.distance_set(cloud, step)
    with pytest.raises(ValueError, match="finite and positive"):
        rd.dot_product_set(cloud, step)


def test_steps_finer_than_the_values_resolve_are_refused(monkeypatch):
    # at 1e-30 the keys rint(v / step) would overflow int64 and merge all
    # 1225 distances into one
    cloud = random_cloud(5, 50, 2)
    with monkeypatch.context() as m:
        m.setattr(sets_mod, "_dedup_tiles", refuse_pair_pass)
        with pytest.raises(ValueError, match="2\\^53"):
            rd.distance_set(cloud, 1e-30)
        with pytest.raises(ValueError, match="2\\^53"):
            rd.dot_product_set(cloud, 1e-30)
    # the bounds are the unit diagonal and the unit squared norm: keys below
    # 2^53 pass, a key of 2^53 is refused
    unit = rd.PointCloud([[0.0], [1.0]])
    assert rd.distance_set(unit, 2.0**-52).values.tolist() == [1.0]
    assert rd.dot_product_set(unit, 2.0**-52).values.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="2\\^53"):
        rd.distance_set(unit, 2.0**-53)
    with pytest.raises(ValueError, match="2\\^53"):
        rd.dot_product_set(unit, 2.0**-53)


def test_value_set_refuses_nan():
    with pytest.raises(ValueError, match="strictly increasing"):
        rd.ValueSet("distance", np.array([1.0, math.nan, 2.0]), 1e-9, 3)
