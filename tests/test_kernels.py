"""Determinism and contracts of the hot kernels."""

import json
from pathlib import Path

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


DFT_REFERENCE = Path(__file__).parent / "data" / "dft_reference.json"


@pytest.mark.parametrize("entry", json.loads(DFT_REFERENCE.read_text())["configs"],
                         ids=lambda entry: f"n{entry['n']}")
def test_dft_is_within_4eps_of_the_40_digit_sum(entry):
    # tools/dft_reference.py sums the same samples at 40 digits; the phase
    # is exact, so only the table entries and the sum itself round.
    values = np.array(entry["values"])
    assert values.shape == (2 * entry["n"] + 1,)
    _, a, b = _kernels.dft(values)
    tol = 4.0 * np.finfo(float).eps * float(entry["abs_scale"])
    for row in entry["coefficients"]:
        k = row["k"]
        assert abs(a[k - 1] - float(row["a"])) <= tol
        assert abs(b[k - 1] - float(row["b"])) <= tol


def test_dft_phase_cache_stays_within_its_bound():
    # A grid is cached only when all its row blocks fit: n = 2048 (293
    # blocks) is gathered per call and leaves the cache as it was, while
    # n = 256 (5 blocks) is cached whole and a repeat call is all hits.
    cache = _kernels._phase_block
    big = np.random.default_rng(2048).standard_normal(4097)
    before = cache.cache_info()
    first = _kernels.dft(big)
    assert cache.cache_info() == before
    values = np.random.default_rng(256).standard_normal(513)
    blocks = -(-256 // _kernels._dft_rows(513))
    assert blocks == 5
    cache.cache_clear()
    cold = _kernels.dft(values)
    assert cache.cache_info()[:2] == (0, blocks)
    warm = _kernels.dft(values)
    assert cache.cache_info()[:2] == (blocks, blocks)
    # Each cached block holds at most _DFT_CELLS cells, and the cache at
    # most _DFT_BLOCKS blocks.
    pairs = [cache(513, b) for b in range(blocks)]
    assert not any(arr.flags.writeable for pair in pairs for arr in pair)
    assert all(cos.nbytes + sin.nbytes <= _kernels._DFT_CELLS * 8 for cos, sin in pairs)
    assert cache.cache_info().maxsize * _kernels._DFT_CELLS * 8 <= 16 * 2**20
    for got, want in ((_kernels.dft(big), first), (warm, cold)):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


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
