"""Determinism and contracts of the hot kernels."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from trigspec import _cache, _kernels


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


def _phase_entries():
    # The store's DFT entries: N -> (cos, sin).
    return {key[0]: value for (build, key), (value, _) in _cache._entries.items()
            if build is _kernels._phase_matrices}


def test_dft_phase_cache_stays_within_its_bound(cache_patch):
    # A grid's (n, N) phase matrices are one entry of the store when their
    # 16 nN bytes fit its budget, so n = 1023 is the largest grid stored:
    # n = 1024 is gathered per call and leaves the store as it was, while
    # n = 256 is stored whole and a repeat call reads it, building no table.
    assert 16 * 1023 * 2047 <= _cache._BUDGET < 16 * 1024 * 2049
    values = np.random.default_rng(256).standard_normal(513)
    cold = _kernels.dft(values)
    entries = _phase_entries()
    assert list(entries) == [513]
    cos, sin = entries[513]
    assert cos.shape == sin.shape == (256, 513)
    assert not (cos.flags.writeable or sin.flags.writeable)
    assert _cache.stored_bytes() == cos.nbytes + sin.nbytes == 16 * 256 * 513
    stored = dict(_cache._entries)
    big = np.random.default_rng(1024).standard_normal(2049)
    first = _kernels.dft(big)
    assert _cache._entries == stored and _cache.stored_bytes() == 16 * 256 * 513
    with mock.patch.object(_kernels, "_phase_table", side_effect=AssertionError):
        warm = _kernels.dft(values)
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
