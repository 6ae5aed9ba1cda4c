import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdim as rd
import rieszdim.cloud as cloud_mod
from rieszdim.cloud import dumps_csv


def test_one_dimensional_input_reshapes():
    c = rd.PointCloud([0.0, 0.5, 1.0])
    assert c.n == 3 and c.dim == 1


def test_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        rd.PointCloud([[0.0], [float("nan")]])
    with pytest.raises(ValueError):
        rd.PointCloud([[0.0], [float("inf")]])


def test_rejects_exact_duplicates():
    with pytest.raises(rd.DuplicatePoints):
        rd.PointCloud([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])


def test_negative_zero_counts_as_duplicate():
    with pytest.raises(rd.DuplicatePoints):
        rd.PointCloud([[0.0], [-0.0]])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rejects_duplicates_at_non_adjacent_indices(d):
    pts = np.random.default_rng(d).random((20, d))
    pts[17] = pts[3]
    with pytest.raises(rd.DuplicatePoints):
        rd.PointCloud(pts)


def test_negative_zero_counts_as_duplicate_in_two_dimensions():
    with pytest.raises(rd.DuplicatePoints):
        rd.PointCloud([[0.0, 1.0], [-0.0, 1.0]])


def test_rows_differing_in_one_coordinate_are_distinct():
    # equal in every coordinate but the first, or every coordinate but the last
    assert rd.PointCloud([[0.0, 1.0, 2.0], [5.0, 1.0, 2.0], [0.0, 1.0, 7.0]]).n == 3
    assert rd.PointCloud([[1.0, 2.0], [3.0, 2.0], [1.0, 3.0], [3.0, 3.0]]).n == 4
    assert rd.PointCloud([[0.5, -1.0]]).n == 1


def test_rejects_empty():
    with pytest.raises(ValueError):
        rd.PointCloud(np.empty((0, 2)))


def test_prefix_preserves_order():
    c = rd.PointCloud([[3.0], [1.0], [2.0]])
    assert c.prefix(2).points.ravel().tolist() == [3.0, 1.0]
    with pytest.raises(rd.TooFewPoints):
        c.prefix(4)
    with pytest.raises(rd.TooFewPoints):
        c.prefix(0)


def test_points_are_immutable():
    c = rd.PointCloud([[0.0], [1.0]])
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_diameter_and_min_gap():
    c = rd.PointCloud([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert c.diameter() == pytest.approx(5.0, abs=0)
    assert c.min_gap() == pytest.approx(1.0, abs=0)


def test_min_gap_below_the_square_underflow():
    # 1e-300 squared underflows to 0, yet the points are distinct
    c = rd.PointCloud([[0.0], [1e-300], [0.5]])
    assert c.min_gap() == pytest.approx(1e-300, rel=1e-15, abs=0.0)
    c2 = rd.PointCloud([[0.0, 0.0], [3e-300, 4e-300], [0.5, 0.2]])
    assert c2.min_gap() == pytest.approx(5e-300, rel=1e-15, abs=0.0)


def test_diameter_and_min_gap_where_the_squares_overflow():
    # every square is past the largest double, yet every distance is finite
    c = rd.PointCloud([[0.0], [1e200], [3e200]])
    assert c.diameter() == 3e200
    assert c.min_gap() == 1e200


def test_diameter_and_min_gap_where_a_difference_overflows():
    # 1e308 - (-1e308) is past the largest double: the diameter is inf, not nan
    c = rd.PointCloud([[-1e308], [1e308], [0.0]])
    assert c.diameter() == math.inf
    assert c.min_gap() == 1e308
    # only the overflowing row is halved: a subnormal gap keeps its bits
    c2 = rd.PointCloud([[-1e308], [1e308], [0.0], [5e-324]])
    assert c2.min_gap() == 5e-324


def test_diameter_below_the_square_underflow():
    assert rd.PointCloud([[0.0], [1e-300]]).diameter() == 1e-300
    c = rd.PointCloud([[0.0, 0.0], [3e-300, 4e-300]])
    assert c.diameter() == pytest.approx(5e-300, rel=1e-15, abs=0.0)


def full_walk_diameter(cloud):
    return max(r.max() for r in cloud_mod._pair_distances(cloud.points))


def diameter_cloud(kind, seed, n, d, scale):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.random((n, d))
    elif kind == "lattice":  # tied maxima between the corners
        side = max(2, round(n ** (1.0 / d)))
        pts = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
    elif kind == "integers":  # a random subset of a small lattice
        pts = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:  # on the unit sphere: every point is on the far side of a box corner, none is pruned
        pts = rng.normal(size=(n, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts = np.unique(pts * scale, axis=0)
    return rd.PointCloud(pts) if len(pts) >= 2 else rd.PointCloud([[0.0] * d, [scale] * d])


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    st.sampled_from(["uniform", "lattice", "integers", "sphere"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.integers(1, 4),
    st.sampled_from([1.0, 2.0**1000, 2.0**-1000, 1e300, 1e-300, -3.0]),
)
def test_pruned_diameter_is_the_full_walk_maximum(kind, seed, n, d, scale):
    cloud = diameter_cloud(kind, seed, n, d, scale)
    got = cloud.diameter()
    assert np.float64(got).tobytes() == full_walk_diameter(cloud).tobytes()


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 2.0**-1060, 1e170, 1e307])
def test_pruned_diameter_at_scales_where_squares_leave_the_normal_range(scale):
    # squaring the raw corner offsets underflows at 1e-170: every point was
    # pruned, the diameter read 0.0 and distance_set raised ValueError
    pts = np.random.default_rng(8).random((300, 2))
    if scale == 2.0**-1060:  # subnormal coordinates: small integers times it are exact
        pts = np.rint(pts * 1000.0)
    cloud = rd.PointCloud(np.unique(pts, axis=0) * scale)
    full = full_walk_diameter(cloud)
    assert full > 0.0
    assert cloud.diameter() == full
    if scale == 1e-170:
        assert rd.distance_set(cloud).quantization == 1e-9 * full


def test_pruned_diameter_where_a_rebuilt_distance_rounds_up():
    # in units of the smallest subnormal the distance sqrt(13) = 3.61 rounds
    # to 4, past both points' corner distances, 3.61: a relative margin
    # alone would prune both
    tiny = 2.0**-1074
    cloud = rd.PointCloud([[0.0, 0.0], [2 * tiny, 3 * tiny]])
    assert cloud.diameter() == full_walk_diameter(cloud) == 4 * tiny
    # the halved extremes both round to 0 here, so the scale comes from the offsets
    assert rd.PointCloud([[0.0], [tiny], [-tiny]]).diameter() == 2 * tiny


def test_pruned_diameter_keeps_far_points_only(monkeypatch):
    # uniform planar points: the corner test leaves a handful for the last walk
    walked = []
    real = cloud_mod._pair_distances

    def counting(pts):
        walked.append(len(pts))
        return real(pts)

    monkeypatch.setattr(cloud_mod, "_pair_distances", counting)
    rd.PointCloud(np.random.default_rng(3).random((1500, 2))).diameter()
    assert len(walked) == 2 and max(walked) < 50, walked


def test_min_gap_whose_square_is_subnormal():
    # g^2 is subnormal, not 0: it keeps only its leading bits
    g = 1.23456789e-161
    c = rd.PointCloud([[0.0], [g], [0.5]])
    assert c.min_gap() == pytest.approx(g, rel=1e-14, abs=0.0)


def _sorted_values(tiles):
    return sorted(np.concatenate([np.zeros(0), *tiles]).tolist())


def test_fold_visits_each_pair_exactly_once(monkeypatch):
    # both parities: for even n the half row n/2 must drop the pairs it meets twice
    default = cloud_mod._TILE
    # d = 9 as well: numpy sums 8 or more contiguous values in parts
    for n, d in [(n, d) for n in range(1, 41) for d in (1 + n % 3, 9)]:
        pts = np.random.default_rng(n).random((n, d))
        rows = pts.tolist()
        squares, dots = [], []
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            sq = dot = 0.0
            for x, y in zip(rows[i], rows[j]):
                sq += (x - y) * (x - y)
                dot += x * y
            dots.append(dot)
            if i != j:
                squares.append(sq)
        squares.sort()
        dots.sort()
        for tile in (1, 4, 16, max(n - 1, 1), default):
            monkeypatch.setattr(cloud_mod, "_TILE", tile)
            assert _sorted_values(cloud_mod._pair_tiles(pts)) == squares
            assert _sorted_values(cloud_mod._pair_tiles(pts, dot=True)) == dots
            assert _sorted_values(cloud_mod._pair_distances(pts)) == [math.sqrt(v) for v in squares]


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.random((50, 3)) * math.pi
    c = rd.PointCloud(pts)
    path = tmp_path / "cloud.csv"
    rd.write_csv(c, path)
    back = rd.read_csv(path)
    assert back.dim == 3
    assert np.array_equal(back.points, c.points)


def test_write_csv_writes_the_dumps_csv_bytes(tmp_path):
    c = rd.PointCloud(np.random.default_rng(5).random((20, 2)) * 1e-3)
    path = tmp_path / "cloud.csv"
    rd.write_csv(c, path)
    assert path.read_bytes() == dumps_csv(c).encode("utf-8")


def test_csv_header_and_comments():
    text = "# dim=2\n# a comment\n0,0\n1,1\n"
    c = rd.read_csv(io.StringIO(text))
    assert c.n == 2 and c.dim == 2


def test_csv_header_mismatch():
    with pytest.raises(rd.DimensionMismatch):
        rd.read_csv(io.StringIO("# dim=3\n0,0\n1,1\n"))


def test_csv_ragged_rows_rejected():
    with pytest.raises(ValueError):
        rd.read_csv(io.StringIO("0,0\n1\n"))


def test_csv_empty_rejected():
    with pytest.raises(ValueError):
        rd.read_csv(io.StringIO("# dim=1\n"))


def test_dumps_has_17_digit_fidelity():
    c = rd.PointCloud([[1.0 / 3.0], [2.0 / 3.0]])
    text = dumps_csv(c)
    back = rd.read_csv(io.StringIO(text))
    assert np.array_equal(back.points, c.points)
