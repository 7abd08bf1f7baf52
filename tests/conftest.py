import numpy as np
import pytest
from scipy.special import zeta

from trigspec import _cache, make_grid, suite_signals


def _lerch_fold(s, q, g, G):
    # Phi(e^(2 pi i g/G), s, q) = sum_m e^(2 pi i m g/G) (m+q)^-s with its
    # terms grouped by m mod G: G Hurwitz zeta values, all at s > 1.
    rho = np.arange(G)
    return complex(np.sum(np.exp(2j * np.pi * rho * g / G) * G ** -float(s) * zeta(s, (rho + q) / G)))


@pytest.fixture(scope="session")
def lerch_fold():
    """Independent oracle for the Lerch transcendent at grid angles 2*pi*g/G."""
    return _lerch_fold


@pytest.fixture(scope="session")
def suite():
    return suite_signals()


@pytest.fixture(scope="session")
def grids():
    return {n: make_grid(n) for n in (2, 8, 16)}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cache_patch(monkeypatch):
    """A monkeypatch for constants that stored tables and plans depend on.

    The store is cleared before the test and again after the constants are
    restored, so no entry built under a patched value outlives the test.
    """
    _cache.clear()
    yield monkeypatch
    monkeypatch.undo()
    _cache.clear()
