"""Determinism and contracts of the hot kernels."""

import numpy as np
import pytest

from trigspec import _kernels


def _case(J=400, P=97, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(J)
    b = rng.standard_normal(J)
    t = rng.uniform(0, 2 * np.pi, P)
    return 0.37, a, b, t


def test_deterministic_reruns():
    a0, a, b, t = _case()
    first = _kernels.synth(a0, a, b, t)
    second = _kernels.synth(a0, a, b, t)
    assert np.array_equal(first, second)


def test_dft_rejects_even_length():
    with pytest.raises(ValueError):
        _kernels.dft(np.zeros(4))


def test_synth_pure_harmonic():
    # Single harmonic: synth must reproduce cos/sin exactly up to rounding.
    t = np.linspace(0, 2 * np.pi, 11, endpoint=False)
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 0.0])
    vals = _kernels.synth(0.0, a, b, t)
    assert np.allclose(vals, np.cos(2 * t), atol=1e-14)


def test_synth_readonly_inputs():
    a0, a, b, t = _case(J=16, P=5)
    for arr in (a, b, t):
        arr.setflags(write=False)
    vals = _kernels.synth(a0, a, b, t)
    assert vals.shape == t.shape
