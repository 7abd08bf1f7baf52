"""Closed-form series machinery against brute-force summation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from trigspec import _series

from loglog import fit_loglog_slope


@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_power_cos_series_matches_brute_force(s):
    k = np.arange(1.0, 400_000.0)
    # The brute sum is the limited side: its tail is below K^(1-s)/(s-1).
    tol = 2.0 * 400_000.0 ** (1 - s) / (s - 1) + 1e-12
    for t in (0.0, 0.31, 1.234, np.pi, 5.5):
        brute = float(np.sum(np.cos(k * t) / k**s))
        assert abs(_series.fourier_power_cos(s, t) - brute) < tol


@pytest.mark.parametrize("s", [1, 3, 5, 7])
def test_power_sin_series_matches_brute_force(s):
    k = np.arange(1.0, 400_000.0)
    for t in (0.31, 1.234, 2.9, 5.5):
        brute = float(np.sum(np.sin(k * t) / k**s))
        tol = 1e-5 if s == 1 else 5e-11  # s=1 brute truncation is the limit
        assert abs(_series.fourier_power_sin(s, t) - brute) < tol


def test_power_series_known_values():
    # zeta values at t = 0 and the sawtooth at s = 1.
    assert _series.fourier_power_cos(2, 0.0) == pytest.approx(np.pi**2 / 6, abs=1e-15)
    assert _series.fourier_power_cos(4, 0.0) == pytest.approx(np.pi**4 / 90, abs=1e-15)
    assert _series.fourier_power_sin(1, 1.0) == pytest.approx((np.pi - 1.0) / 2, abs=1e-14)


def test_power_series_parity_validation():
    with pytest.raises(ValueError):
        _series.fourier_power_cos(3, 0.5)
    with pytest.raises(ValueError):
        _series.fourier_power_sin(2, 0.5)


@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("s,step,offset,m_start", [
    (2, 5, 1.0, 1),
    (2, 5, -2.0, 1),
    (4, 17, 8.0, 3),
    (11, 33, -16.0, 2),
])
def test_progression_tail_matches_brute_force(s, step, offset, m_start, alternating):
    m_max = 2_000_000
    m = np.arange(m_start, m_max, dtype=float)
    terms = (m * step + offset) ** -float(s)
    if alternating:
        terms = terms * np.where(m.astype(np.int64) % 2 == 1, -1.0, 1.0)
    brute = float(np.sum(terms))
    exact = _series.progression_tail(s, step, offset, m_start, alternating)
    # Brute truncation dominates the comparison; alternating tails cancel.
    tail = (m_max * step + offset) ** (1.0 - s) / (step * (s - 1))
    tol = (0.6 * tail if alternating else 2.0 * tail) + 1e-12
    assert abs(exact - brute) < tol


def test_progression_tail_validation():
    with pytest.raises(ValueError):
        _series.progression_tail(1, 5, 1.0)
    with pytest.raises(ValueError):
        _series.progression_tail(2, 5, -6.0)


def test_hurwitz_tail_alternating():
    q = 0.8
    i = np.arange(0, 3_000_000, dtype=float)
    brute = float(np.sum((-1.0) ** i * (i + q) ** -3.0))
    assert abs(_series.hurwitz_tail(3, q, alternating=True) - brute) < 1e-13


def test_grid_total_variation_sawtooth():
    t = np.linspace(0, 2 * np.pi, 2**14, endpoint=False)
    vals = (np.pi - t) / 2.0
    # Slope contributes pi, the wrap-around jump contributes pi.
    assert _series.grid_total_variation(vals) == pytest.approx(2 * np.pi, rel=1e-3)


def test_fit_loglog_slope_exact_power():
    x = np.arange(10, 200, dtype=float)
    assert fit_loglog_slope(x, x**-3.5) == pytest.approx(-3.5, abs=1e-9)


def test_synth_folded_matches_direct():
    # Fold a short series onto a coarser grid and compare against direct eval.
    rng = np.random.default_rng(5)
    J, G = 40, 16
    a = rng.standard_normal(J)
    b = rng.standard_normal(J)
    W = np.zeros(G, dtype=complex)
    np.add.at(W, np.arange(1, J + 1) % G, a - 1j * b)
    vals = _series.synth_folded(W, a0=0.6)
    t = 2 * np.pi * np.arange(G) / G
    j = np.arange(1, J + 1)
    direct = 0.3 + np.cos(np.outer(t, j)) @ a + np.sin(np.outer(t, j)) @ b
    assert np.allclose(vals, direct, atol=1e-12)


# -- Lerch transcendent and polylogarithm on the unit circle ---------------------

# (G, g): theta = 2*pi*g/G covers 0, small angles, just inside +pi, just
# inside -pi (after reduction), and pi itself (reduced to -pi).
ANGLES = ((97, (0, 1, 24, 48, 49, 96)), (64, (0, 5, 31, 32, 33)))


# Non-integer orders cover both ends of s - round(s) in [-1/2, 1/2] and
# orders within 1e-9 and 1e-12 of an integer, where the pole pair of the
# expansion would cancel to 1e-7 and 1e-4 if it were not summed in closed form.
NEAR_INTEGER = [3 + 1e-9, 3 - 1e-9, 2 + 1e-12, 1.5, 3.5]


@pytest.mark.parametrize("s", [2, 2.5, 3, 3.7, 4, 6] + NEAR_INTEGER)
def test_lerch_unit_matches_residue_fold(s, lerch_fold):
    # lerch_unit is normalized to a first term of 1: q^s Phi(z, s, q).
    qs = [1.0] if s != int(s) else [1.0 / 129, 0.25, 0.5, 0.8, 128.0 / 129, 1.0]
    for G, gs in ANGLES:
        got = _series.lerch_unit(s, qs, 2.0 * np.pi * np.asarray(gs) / G)
        assert got.shape == (len(qs), len(gs))
        for i, q in enumerate(qs):
            for j, g in enumerate(gs):
                want = q**s * lerch_fold(s, q, g, G)
                assert abs(got[i, j] - want) <= 1e-13 * max(1.0, abs(want)), (q, g, G)


@pytest.mark.parametrize("s", [2, 2.5, 3, 3.7, 4, 6] + NEAR_INTEGER)
def test_polylog_unit_matches_residue_fold(s, lerch_fold):
    for G, gs in ANGLES:
        got = _series.polylog_unit(s, 2.0 * np.pi * np.asarray(gs) / G)
        for j, g in enumerate(gs):
            want = np.exp(2j * np.pi * g / G) * lerch_fold(s, 1.0, g, G)
            assert abs(got[j] - want) <= 1e-13, (g, G)


def test_polylog_unit_agrees_with_bernoulli_closed_forms():
    # The Bernoulli forms carry their own rounding: at s = 6 just below
    # t = 0 (x = t/2pi near 1) they are off by about 1.1e-14.
    t = np.linspace(-7.0, 7.0, 301)
    for s in (2, 4, 6):
        err = np.abs(_series.polylog_unit(s, t).real - _series.fourier_power_cos(s, t))
        assert np.max(err) < 3e-14
    for s in (3, 5):
        err = np.abs(_series.polylog_unit(s, t).imag - _series.fourier_power_sin(s, t))
        assert np.max(err) < 3e-14


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_polylog_unit_is_continuous_in_the_order(n):
    # Li_s moves by about 1e-14 between s = n and n + 1e-14; cancellation
    # in the pole pair would show as an error near 1e-2. s = 1 compares
    # with Li_1(e^(it)) = -log(1 - e^(it)).
    t = np.array([-3.0, -1e-3, 0.4, 1.0, 2.5, np.pi])
    if n == 1:
        want = -np.log(1.0 - np.exp(1j * t))
    else:
        want = _series.polylog_unit(n, t)
    for eps in (1e-14, -1e-14):
        if n + eps <= 1:
            continue
        assert np.max(np.abs(_series.polylog_unit(n + eps, t) - want)) <= 2e-13


def test_lerch_unit_step_keeps_large_orders_finite():
    # sum_m e^(i m theta) (j/(m N + j))^s at s = 151, N = 129: the unscaled
    # Phi(z, s, j/N) alone would be about (N/j)^s, past the float range,
    # and (m N + j)^-s below it.
    N, s = 129, 151
    j = np.array([1.0, 2.0, 64.0, 65.0, 100.0])
    theta = np.array([0.0, 0.3, -2.0, 3.1])
    got = _series.lerch_unit(s, j, theta, step=N)
    m = np.arange(4)
    for a, jj in enumerate(j):
        for b, th in enumerate(theta):
            want = np.sum(np.exp(1j * m * th) * (jj / (m * N + jj)) ** float(s))
            assert abs(got[a, b] - want) <= 1e-15 * abs(want)


def test_polylog_unit_keeps_shape():
    assert _series.polylog_unit(3, 0.5).shape == ()
    assert _series.polylog_unit(3, np.zeros((2, 3))).shape == (2, 3)
    assert _series.polylog_unit(3, 0.0) == pytest.approx(1.2020569031595942, rel=1e-15)


def test_lerch_unit_validation():
    with pytest.raises(ValueError):
        _series.lerch_unit(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        _series.lerch_unit(3, 0.0, 0.1)
    with pytest.raises(ValueError):
        _series.lerch_unit(3, 1.5, 0.1)
    with pytest.raises(ValueError):
        _series.lerch_unit(2.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        _series.lerch_unit(3, 0.5, np.inf)
    with pytest.raises(ValueError):
        _series.lerch_unit(3, 5.0, 0.1, step=4.0)
    with pytest.raises(ValueError):
        _series.lerch_unit(3, 0.5, 0.1, step=0.0)


@pytest.mark.parametrize("s", [2, 2.5, 3, 11])
def test_lerch_remainder_bound_is_far_below_rounding(s):
    assert 0.0 < _series.lerch_remainder_bound(s) < 1e-20


# -- powers of ratios ----------------------------------------------------------


@pytest.mark.parametrize("x", [2, 11, 101, 201, 1500, 2001])
def test_ratio_power_is_within_a_few_ulps(x):
    # Against (a/b)^x at 50 digits; the rounded quotient a/b raised to x
    # would carry up to x/2 ulps. Above x = 1000 the power is a product of
    # powers, which doubles the bound.
    rng = np.random.default_rng(int(x * 10))
    a = rng.integers(1, 300, 200)
    b = a + rng.integers(1, 300, 200)
    got = _series.ratio_power(a, b, x)
    ulps = 6 if x > 1000 else 3
    with localcontext() as ctx:
        ctx.prec = 50
        for ai, bi, value in zip(a.tolist(), b.tolist(), got.tolist()):
            exact = (Decimal(ai) / Decimal(bi)) ** Decimal(x)
            if exact < Decimal("1e-300"):
                continue
            assert abs(Decimal(value) - exact) <= ulps * Decimal(2) ** -53 * exact, (ai, bi)


def test_ratio_power_non_integer_needs_a_shared_binary_exponent():
    # 5 and 7 lie in [4, 8): their quotient is a quotient of mantissas.
    assert _series.ratio_power(5, 7, 2.5) == pytest.approx((5 / 7) ** 2.5, rel=1e-15)
    assert _series.ratio_power(3.0, 3.0, 7.25) == 1.0
    with pytest.raises(ValueError, match="binary exponent"):
        _series.ratio_power(5, 17, 2.5)


def test_ratio_power_scalars_equal_array_entries():
    a = np.arange(1, 300)
    b = 2 * a + 7
    arr = _series.ratio_power(a, b, 151)
    for ai, bi, value in zip(a.tolist(), b.tolist(), arr.tolist()):
        assert float(_series.ratio_power(ai, bi, 151)) == value


@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("s", [4, 7, 151])
def test_ratio_tail_matches_brute_force(s, alternating):
    k, j0, step = 5, 17, 13
    i = np.arange(200_000)
    sign = np.where(i % 2 == 1, -1.0, 1.0) if alternating else 1.0
    brute = math.fsum((sign * (k / (i * step + j0)) ** float(s)).tolist())
    got = _series.ratio_tail(s, k, j0, step, alternating)
    assert got == pytest.approx(brute, rel=1e-12, abs=1e-300)
