import tracemalloc

import numpy as np
import pytest

import rieszdim as rd


@pytest.fixture(scope="session")
def grid_family_profile():
    """Energies of whole 1-D grids {m/(n+1)} over dyadic n up to 8192.

    Shared by the slope and dimension tests; the window (1024, 8192) sits in
    the asymptotic regime where sub-transition slopes are small.
    """
    n_grid = [512, 1024, 2048, 4096, 8192]
    s_grid = [round(0.1 * i, 1) for i in range(1, 20)]
    clouds = [rd.grid_1d(n) for n in n_grid]
    return rd.profile_from_family(clouds, s_grid)


def random_cloud(seed, n, d, scale=1.0):
    rng = np.random.default_rng(seed)
    while True:
        pts = scale * rng.random((n, d))
        if np.unique(pts, axis=0).shape[0] == n:
            return rd.PointCloud(pts)


def traced_peak(fn):
    """``fn()`` and the peak memory traced while it ran, in bytes above the start.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    every array ``fn`` holds at once, the returned one included.
    """
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start
