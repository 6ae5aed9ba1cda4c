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
    return rd.grid_1d_profile(s_grid, n_grid)


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


@pytest.fixture
def forking(monkeypatch):
    """Deal every pass, however small, to forked workers, on up to 4 CPUs."""
    import rieszdim.energy as energy_mod

    monkeypatch.setattr(energy_mod, "_FORK_WORK", 0)
    monkeypatch.setattr(energy_mod, "_cpu_count", lambda: 4)


def no_child_left():
    """Assert that this process has no child left to reap."""
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
