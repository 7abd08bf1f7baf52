"""Closed-form series machinery against brute-force summation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from trigspec import _series, trig_spline

from loglog import fit_loglog_slope
from variation import grid_total_variation


@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_power_cos_series_matches_brute_force(s):
    k = np.arange(1.0, 400_000.0)
    # The brute sum is the limited side: its tail is below K^(1-s)/(s-1).
    tol = 2.0 * 400_000.0 ** (1 - s) / (s - 1) + 1e-12
    for t in (0.0, 0.31, 1.234, np.pi, 5.5):
        brute = float(np.sum(np.cos(k * t) / k**s))
        assert abs(_series.fourier_power(s, t) - brute) < tol


@pytest.mark.parametrize("s", [1, 3, 5, 7])
def test_power_sin_series_matches_brute_force(s):
    k = np.arange(1.0, 400_000.0)
    for t in (0.31, 1.234, 2.9, 5.5):
        brute = float(np.sum(np.sin(k * t) / k**s))
        tol = 1e-5 if s == 1 else 5e-11  # s=1 brute truncation is the limit
        assert abs(_series.fourier_power(s, t) - brute) < tol


def test_power_series_known_values():
    # zeta values at t = 0 and the sawtooth at s = 1.
    assert _series.fourier_power(2, 0.0) == pytest.approx(np.pi**2 / 6, abs=1e-15)
    assert _series.fourier_power(4, 0.0) == pytest.approx(np.pi**4 / 90, abs=1e-15)
    assert _series.fourier_power(1, 1.0) == pytest.approx((np.pi - 1.0) / 2, abs=1e-14)


def test_power_series_validation():
    # The closed form is the cosine sum at even s and the sine sum at odd s,
    # so every integer s >= 1 has one; other orders are refused.
    for s in (0, 2.5, np.inf, np.nan, [2]):
        with pytest.raises(ValueError, match="integer s >= 1"):
            _series.fourier_power(s, 0.5)


@pytest.mark.parametrize("s,step,offset,m_start", [
    (2, 5, 1.0, 1),
    (2, 5, -2.0, 1),
    (4, 17, 8.0, 3),
    (11, 33, -16.0, 2),
])
def test_progression_tail_matches_brute_force(s, step, offset, m_start):
    m_max = 2_000_000
    m = np.arange(m_start, m_max, dtype=float)
    brute = float(np.sum((m * step + offset) ** -float(s)))
    exact = _series.progression_tail(s, step, offset, m_start)
    # Brute truncation dominates the comparison.
    tail = (m_max * step + offset) ** (1.0 - s) / (step * (s - 1))
    assert abs(exact - brute) < 2.0 * tail + 1e-12


def test_progression_tail_validation():
    with pytest.raises(ValueError):
        _series.progression_tail(1, 5, 1.0)
    with pytest.raises(ValueError):
        _series.progression_tail(2, 5, -6.0)
    # A NaN or infinite order used to return NaN.
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError, match="requires s > 1"):
            _series.progression_tail(s, 5, 1.0)


def test_hurwitz_tail_alternating():
    q = 0.8
    i = np.arange(0, 3_000_000, dtype=float)
    brute = float(np.sum((-1.0) ** i * (i + q) ** -3.0))
    assert abs(_series._hurwitz_tail(3, np.array(q), alternating=True) - brute) < 1e-13


def test_grid_total_variation_sawtooth():
    t = np.linspace(0, 2 * np.pi, 2**14, endpoint=False)
    vals = (np.pi - t) / 2.0
    # Slope contributes pi, the wrap-around jump contributes pi.
    assert grid_total_variation(vals) == pytest.approx(2 * np.pi, rel=1e-3)


def test_fit_loglog_slope_exact_power():
    x = np.arange(10, 200, dtype=float)
    assert fit_loglog_slope(x, x**-3.5) == pytest.approx(-3.5, abs=1e-9)


# -- Lerch transcendent and polylogarithm on the unit circle ---------------------

EPS = np.finfo(float).eps

# (G, g): theta = 2*pi*g/G covers 0, small angles, just inside +pi, just
# inside -pi (after reduction), and pi itself (reduced to -pi).
ANGLES = ((97, (0, 1, 24, 48, 49, 96)), (64, (0, 5, 31, 32, 33)))


# Non-integer orders cover both ends of s - round(s) in [-1/2, 1/2] and
# orders within 1e-9 and 1e-12 of an integer, where the pole pair of the
# expansion would cancel to 1e-7 and 1e-4 if it were not summed in closed form.
NEAR_INTEGER = [3 + 1e-9, 3 - 1e-9, 2 + 1e-12, 1.5, 3.5]


def lerch_rows(columns, theta, s, magnitudes=False):
    # The rows of the Lerch expansion of order s at the 1-D array theta, one
    # per row of `columns` (lerch_coefficients of (s, N) or any rows of it),
    # from its coefficients and singular term as lerch_coefficients states
    # them: even @ u^(0, 2, ...) + i odd @ u^(1, 3, ...) + lead * singular term.
    # With `magnitudes`, the sums of the terms' magnitudes instead: any order
    # of summing the terms rounds to a few eps times these, also where they
    # cancel (next to theta = +-pi).
    even, odd, lead = columns
    u = theta / np.pi
    sing = _series.lerch_singular(s, theta)
    if magnitudes:
        even, odd, lead, u, sing = (np.abs(x) for x in (even, odd, lead, u, sing))
    powers = u[None, :] ** np.arange(even.shape[1] + odd.shape[1])[:, None]
    odd_part = odd @ powers[1::2]
    if not magnitudes:
        odd_part = 1j * odd_part
    return even @ powers[0::2] + odd_part + np.multiply.outer(lead, sing)


def lerch_unit(s, N, theta):
    # The Lerch transcendent on the unit circle normalized to a first term
    # of 1, a^s Phi(e^(i theta), s, a) at a = q/N: one row per q = 1..N,
    # |theta| <= pi. It is e^(-i a theta) times the rows of the expansion,
    # the rows the spline engine sums.
    theta = np.asarray(theta, dtype=float)
    rows = lerch_rows(_series.lerch_coefficients(s, N), theta, s)
    a = np.arange(1.0, N + 1.0) / N
    return np.exp(-1j * np.multiply.outer(a, theta)) * rows


@pytest.mark.parametrize("s", [2, 2.5, 3, 3.7, 4, 6] + NEAR_INTEGER)
def test_lerch_unit_matches_residue_fold(s, lerch_fold):
    # The rows (N, q) give a = 1/129, 1/4, 1/2, 4/5, 128/129 and 1; angles
    # past pi enter as their reduction to [-pi, pi].
    rows = [(1, 1)] if s != int(s) else [(129, 1), (4, 1), (2, 1), (5, 4), (129, 128), (1, 1)]
    for G, gs in ANGLES:
        theta = 2.0 * np.pi * np.asarray(gs) / G
        for N, q in rows:
            got = lerch_unit(s, N, np.mod(theta + np.pi, 2.0 * np.pi) - np.pi)
            assert got.shape == (N, len(gs))
            a = q / N
            for j, g in enumerate(gs):
                want = a**s * lerch_fold(s, a, g, G)
                assert abs(got[q - 1, j] - want) <= 1e-13 * max(1.0, abs(want)), (a, g, G)


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
        err = np.abs(_series.polylog_unit(s, t).real - _series.fourier_power(s, t))
        assert np.max(err) < 3e-14
    for s in (3, 5):
        err = np.abs(_series.polylog_unit(s, t).imag - _series.fourier_power(s, t))
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
    got = lerch_unit(s, N, theta)[j.astype(int) - 1]
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
    # polylog_unit refuses a non-finite angle; the checks of s and N are
    # those of lerch_coefficients.
    with pytest.raises(ValueError):
        _series.polylog_unit(3, np.inf)


def test_lerch_series_is_lerch_unit_without_its_phase():
    # polylog_unit is e^(i theta) times e^(-i x) times the N = 1 row of the
    # Lerch series at x, theta reduced to [-pi, pi], over 5000 angles, -pi,
    # 0 and pi (reduced to -pi) among them, summed by Horner's rule. Each
    # angle alone gives its bits inside the array; the expansion refuses
    # angles beyond pi.
    theta = np.concatenate(([-np.pi, 0.0, np.pi],
                            np.random.default_rng(3).uniform(-np.pi, np.pi, 4997)))
    x = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    assert x[2] == -np.pi
    columns = _series.lerch_coefficients(3, 1)
    got = _series.polylog_unit(3, theta)
    want = np.exp(1j * theta) * (np.exp(-1j * x) * lerch_rows(columns, x, 3)[0])
    assert (np.abs(got - want) <= 4 * EPS * lerch_rows(columns, x, 3, magnitudes=True)[0]).all()
    for i in (0, 1, 2, 3, 4999):
        assert _series.polylog_unit(3, theta[i]).tobytes() == got[i].tobytes()
    with pytest.raises(ValueError, match="theta must be"):
        _series.lerch_singular(3, np.array([np.pi + 1e-9]))


@pytest.mark.parametrize("s,N", [(3, 5), (2.5, 1), (40, 17)])
def test_lerch_series_is_its_coefficients_and_singular_term(s, N):
    # The engines sum the expansion from these two: polylog_unit the N = 1
    # row, and the spline's cell table rows 1..N-1, as views of the table,
    # weighted and summed over first members by an FFT. With one weight of
    # 1 (or -i) at first member q, cell 0 of that table reads the real (or
    # imaginary) part of row q.
    theta = np.array([-np.pi, -1.0, 0.0, 0.4, np.pi])
    columns = even, odd, lead = _series.lerch_coefficients(s, N)
    assert even.shape[0] == odd.shape[0] == lead.size == N
    assert not (even.flags.writeable or odd.flags.writeable or lead.flags.writeable)
    assert _series.lerch_coefficients(s, float(N))[0] is even     # one table per (s, N)
    want = lerch_rows(columns, theta, s)
    tol = 4 * EPS * lerch_rows(columns, theta, s, magnitudes=True)
    if N == 1:
        got = _series.polylog_unit(s, theta)
        assert (np.abs(got - np.exp(1j * theta) * (np.exp(-1j * theta) * want[0])) <= tol[0]).all()
        return
    views = even[:-1], odd[:-1], lead[:-1]
    sing = _series.lerch_singular(s, theta)
    cells = np.zeros((theta.size, 1), dtype=np.int64)
    for q in range(1, N):
        for weight, part in ((1.0, np.real), (-1j, np.imag)):
            w = np.zeros(N - 1, dtype=complex)
            w[q - 1] = weight
            got = trig_spline._cell_table_sum(views, w, sing, theta, cells)[:, 0]
            assert (np.abs(got - part(want[q - 1])) <= tol[q - 1]).all(), (q, weight)


@pytest.mark.parametrize("s,N", [(4, 9), (7, 5), (2.5, 1)])
@pytest.mark.parametrize("terms", [1, 2, 3, 4, 7, "full", 500])
def test_lerch_coefficients_build_the_tables_first_powers(s, N, terms):
    # A table built to `terms` powers u^0..u^(terms-1) is the first columns
    # of the full table, bit for bit; a count at or past the full width
    # int(s) + 64 is the full table itself, cached once.
    even, odd, lead = full = _series.lerch_coefficients(s, N)
    width = even.shape[1] + odd.shape[1]
    assert width == int(s) + 64
    count = width if terms == "full" else terms
    got = _series.lerch_coefficients(s, N, count)
    R = min(count, width)
    assert got[0].shape == (N, (R + 1) // 2) and got[1].shape == (N, R // 2)
    assert np.array_equal(got[0], even[:, :(R + 1) // 2])
    assert np.array_equal(got[1], odd[:, :R // 2])
    assert np.array_equal(got[2], lead)
    for arr in got:
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert _series.lerch_coefficients(float(s), float(N), float(count))[0] is got[0]  # one per (s, N, R)
    if count >= width:
        assert all(a is b for a, b in zip(got, full))                  # the full table itself
    with pytest.raises(ValueError, match="terms must be"):
        _series.lerch_coefficients(s, N, 0)
    with pytest.raises(ValueError, match="requires s > 1"):
        _series.lerch_coefficients(1, N, count)


def test_lerch_coefficients_and_singular_term_validation():
    # NaN and inf used to reach int(s) and raise its ValueError or OverflowError.
    for s in (1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="requires s > 1"):
            _series.lerch_coefficients(s, 1)
    for N in (0, 2.5, np.inf, np.nan, [3], np.array([3])):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            _series.lerch_coefficients(3, N)
    with pytest.raises(ValueError, match="N = 1 only"):
        _series.lerch_coefficients(2.5, 2)
    with pytest.raises(ValueError, match="theta must be"):
        _series.lerch_singular(3, np.array([np.pi + 1e-9]))
    with pytest.raises(ValueError, match="theta must be"):
        _series.lerch_singular(3, np.zeros((2, 2)))


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
    got = _series._ratio_tail(s, k, j0, step, alternating)
    assert got == pytest.approx(brute, rel=1e-12, abs=1e-300)
