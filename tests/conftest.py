import numpy as np
import pytest

from climfact.grid import build_domain


@pytest.fixture(autouse=True)
def twin_cache(tmp_path, monkeypatch):
    """Each test keeps its format A twins in its own directory, never in
    the user's cache; subprocesses inherit the setting."""
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "climfact" / "grids"


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def small_domain():
    """3x3 all-valid grid with nontrivial latitude weighting."""
    return build_domain((40.0, 43.0, 5.0, 8.0), 1.0)


def brute_force_inner(domain, f_values, g_values):
    """Independent double-loop evaluation of the weighted inner product."""
    total = 0.0
    for i in range(domain.n_lat):
        for j in range(domain.n_lon):
            if domain.mask[i, j]:
                total += domain.weights[i, j] * f_values[i, j] * g_values[i, j]
    return total
