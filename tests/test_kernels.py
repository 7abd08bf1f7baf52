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
    # n = 2048 has more row blocks than the cache keeps, so they cycle
    # through it; the most recent ones are all of this N.
    values = np.random.default_rng(2048).standard_normal(4097)
    first = _kernels.dft(values)
    cache = _kernels._phase_block
    kept = cache.cache_info().currsize
    blocks = -(-2048 // _kernels._dft_rows(4097))
    assert 0 < kept <= _kernels._DFT_BLOCKS < blocks
    before = cache.cache_info()
    # Block 0 (the table) stays, with the blocks last gathered.
    held = [cache(4097, 0), *(cache(4097, b) for b in range(blocks - kept + 1, blocks))]
    after = cache.cache_info()
    assert (after.hits - before.hits, after.misses) == (kept, before.misses)
    arrays = [arr for pair in held for arr in pair]
    assert not any(arr.flags.writeable for arr in arrays)
    bound = _kernels._DFT_BLOCKS * _kernels._DFT_CELLS * 8
    assert sum(arr.nbytes for arr in arrays) <= bound <= 16 * 2**20
    second = _kernels.dft(values)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1]) and np.array_equal(first[2], second[2])


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
