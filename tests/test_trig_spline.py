"""Spline construction, evaluation, unfolded spectrum and curvature."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigspec import (
    FilterVariant,
    KernelConfig,
    SampleVector,
    build_spline,
    curvature_functional,
    gain,
    harmonic_sum,
    interpolating_polynomial,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    sample,
    spline_eval,
    spline_fourier_coeff,
    spline_from_json,
    spline_to_json,
    true_coefficient,
    unfolded_spectrum,
    values_on_uniform_grid,
)
from trigspec.trig_spline import scattered_eval_bound, series_truncation

from loglog import fit_loglog_slope
from spline_checks import assert_spline_values_hold, long_harmonic_sum


def cfg(n, r, variant="abs-sinc", **kw):
    return KernelConfig(
        grid=make_grid(n), order=r, variant=FilterVariant.from_string(variant), **kw
    )


def spline_of(signal, n, r, variant="abs-sinc", **kw):
    c = cfg(n, r, variant, **kw)
    return build_spline(sample(signal, c.grid), c), c


CONSTANT = harmonic_sum([(0, 2.0, 0.0)])


# -- construction -------------------------------------------------------------


def test_constant_signal_gives_constant_spline():
    # The sampled constant leaves ~1 ulp of noise in the discrete
    # coefficients, so "all zero" means rounding scale here.
    for variant in ("abs-sinc", "inv-power"):
        spl, _ = spline_of(CONSTANT, 2, 3, variant)
        assert spl.a0 == pytest.approx(2.0, abs=1e-15)
        _, ca, cb = spl.fourier_series()
        assert np.max(np.abs(ca)) < 1e-14
        assert np.max(np.abs(cb)) < 1e-14
        for t in (0.0, 0.123, 4.0):
            assert spline_eval(spl, t) == pytest.approx(1.0, abs=1e-12)


def test_cosine_spline_coefficients_follow_folds():
    sig = harmonic_sum([(1, 1.0, 0.0)])
    spl, c = spline_of(sig, 2, 3)
    N = c.grid.N
    # a*_1 = 1; the series coefficients carry the gain at 1, N-1, N+1.
    _, ca, _ = spl.fourier_series()
    assert ca[0] == pytest.approx(gain(1, c), rel=1e-14)
    assert ca[N - 2] == pytest.approx(gain(N - 1, c), rel=1e-14)
    assert ca[N] == pytest.approx(gain(N + 1, c), rel=1e-14)
    nodes = values_on_uniform_grid(spl, N)
    assert np.max(np.abs(nodes - np.cos(c.grid.nodes))) < 1e-12


def test_node_interpolation_power_signal():
    sig = power_decay_cosine(6)
    spl, c = spline_of(sig, 8, 3)
    nodes = values_on_uniform_grid(spl, c.grid.N)
    samples = sample(sig, c.grid).values
    assert np.max(np.abs(nodes - samples)) < 1e-9


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power"])
@pytest.mark.parametrize("r", [1, 2, 10])
def test_node_interpolation_across_orders(variant, r):
    sig = power_decay_cosine(4)
    spl, c = spline_of(sig, 2, r, variant)
    nodes = values_on_uniform_grid(spl, c.grid.N)
    samples = sample(sig, c.grid).values
    assert np.max(np.abs(nodes - samples)) < 1e-12


def test_interpolation_with_constant_offset_inverse_power():
    # The constant class must pass through untouched for every family.
    sig = harmonic_sum([(0, 0.8, 0.0), (1, 0.5, -0.25), (6, -0.25, 1.0)], r=2)
    spl, c = spline_of(sig, 2, 1, "inv-power")
    nodes = values_on_uniform_grid(spl, c.grid.N)
    assert np.max(np.abs(nodes - sample(sig, c.grid).values)) < 1e-12


def test_grid_mismatch_rejected():
    sig = power_decay_cosine(4)
    with pytest.raises(ValueError):
        build_spline(sample(sig, make_grid(2)), cfg(3, 3))


# -- evaluation ---------------------------------------------------------------


def test_eval_periodicity():
    spl, _ = spline_of(power_decay_cosine(6), 2, 3)
    for t in (0.2, 1.9, 4.4):
        assert abs(spline_eval(spl, t) - spline_eval(spl, t + 2 * np.pi)) < 1e-12


def test_scattered_eval_matches_exact_grid_values():
    spl, c = spline_of(power_decay_cosine(6), 8, 3)
    G = 64
    exact = values_on_uniform_grid(spl, G)
    t = 2 * np.pi * np.arange(G) / G
    approx = spline_eval(spl, t)
    assert np.max(np.abs(exact - approx)) <= scattered_eval_bound(spl) + 1e-13


@pytest.mark.parametrize("variant", ["sinc", "abs-sinc", "inv-power"])
def test_scattered_eval_at_high_order_matches_series(variant):
    # At order 150 on N = 129, N^-s is below the float range and
    # zeta(s, 1/N) above it; the Lerch sums carry the scale inside their
    # coefficients. Gains fall like (j/k)^-151 past the band, so eight
    # periods of the coefficient law give the series to rounding.
    sig = harmonic_sum([(k, np.cos(k), np.sin(2 * k)) for k in range(1, 70)])
    spl, c = spline_of(sig, 64, 150, variant)
    js, ca, cb = unfolded_spectrum(spl, 8 * c.grid.N)
    t = np.linspace(0.0, 2 * np.pi, 37)
    series = spl.a0 / 2 + np.cos(np.outer(t, js)) @ ca + np.sin(np.outer(t, js)) @ cb
    assert np.max(np.abs(spline_eval(spl, t) - series)) <= 1e-12


def test_uniform_grid_fold_at_order_150_matches_scattered_values():
    # At order 150 on N = 129 with G = 64 (coprime, so fold step 64N),
    # (64N)^-151 underflows and zeta(151, q) overflows at the smallest
    # offsets; the fold forms neither, only powers of ratios below one.
    spl, c = spline_of(long_harmonic_sum(), 64, 150)
    assert_spline_values_hold(spl, sample(long_harmonic_sum(), c.grid), grids=(64, 1000))


def test_scattered_eval_at_order_170_interpolates():
    # At order 170 on N = 129, (N/pi)^171 overflows; the Lerch rows carry
    # only the in-band gain and (k/(N-k))^s.
    sig = long_harmonic_sum()
    for variant in ("sinc", "abs-sinc", "inv-power"):
        spl, c = spline_of(sig, 64, 170, variant)
        assert_spline_values_hold(spl, sample(sig, c.grid))


def test_high_order_bounds_are_finite_and_hold():
    # At orders 160 and 170 on N = 129 the truncation bound is finite and
    # the truncation is J = N: the members beyond it weigh (k/(N+k))^s at
    # most, below tail_tol. The truncated series then reproduces the
    # samples, and the scattered bound holds against the grid fold.
    sig = long_harmonic_sum()
    for order in (160, 170):
        spl, c = spline_of(sig, 64, order)
        J, bound = series_truncation(spl)
        assert J == c.grid.N and 0.0 <= bound < c.tail_tol
        a0, ca, cb = spl.fourier_series()
        js = np.arange(1, J + 1)
        phase = np.outer(c.grid.nodes, js)
        series = a0 / 2 + np.cos(phase) @ ca + np.sin(phase) @ cb
        samples = sample(sig, c.grid)
        assert np.max(np.abs(series - samples.values)) <= 1e-12 * np.max(np.abs(samples.values)) + bound
        assert_spline_values_hold(spl, samples)


@pytest.mark.parametrize("variant", ["sinc", "abs-sinc", "inv-power"])
def test_grid_at_order_100_on_1000_points_for_every_size(variant):
    # With P = 1000 / gcd(N, 1000), (P N)^-101 lies below the float range
    # for most of these sizes; the fold does not form it.
    for n in (*range(1, 17), 64):
        c = cfg(n, 100, variant)
        samples = SampleVector(c.grid, np.random.default_rng(n).standard_normal(c.grid.N))
        spl = build_spline(samples, c)
        grid = values_on_uniform_grid(spl, 1000)
        got = spline_eval(spl, 2 * np.pi * np.arange(1000) / 1000)
        tol = 1e-12 * np.max(np.abs(samples.values)) + scattered_eval_bound(spl)
        assert np.max(np.abs(got - grid)) <= tol, n


def test_uniform_grid_values_match_brute_series():
    # Independent check of the zeta fold: long direct summation of the
    # coefficient law on a grid size coprime to N.
    spl, c = spline_of(power_decay_cosine(6), 8, 3)
    G = 64
    J = 60_000
    js, ca, cb = unfolded_spectrum(spl, J)
    t = 2 * np.pi * np.arange(G) / G
    brute = spl.a0 / 2 + np.zeros(G)
    block = 4000
    for start in range(0, J, block):
        stop = min(start + block, J)
        phase = np.outer(t, js[start:stop])
        brute += np.cos(phase) @ ca[start:stop] + np.sin(phase) @ cb[start:stop]
    exact = values_on_uniform_grid(spl, G)
    assert np.max(np.abs(exact - brute)) < 1e-10


def test_signed_variant_folds_match_brute_series():
    # Odd-power signed gains alternate within each class; the folded grid
    # evaluation must agree with direct summation of the signed series on
    # grids of every parity regime (fold period odd, even, and coprime).
    sig = power_decay_cosine(4)
    spl, c = spline_of(sig, 8, 2, "sinc")
    N = c.grid.N
    nodes = values_on_uniform_grid(spl, N)
    assert np.max(np.abs(nodes - sample(sig, c.grid).values)) < 1e-12
    J = 120_000
    js, ca, cb = unfolded_spectrum(spl, J)
    for G in (3 * N, 2 * N, 64):
        t = 2 * np.pi * np.arange(G) / G
        brute = np.full(G, spl.a0 / 2)
        for start in range(0, J, 8000):
            stop = min(start + 8000, J)
            phase = np.outer(t, js[start:stop])
            brute += np.cos(phase) @ ca[start:stop] + np.sin(phase) @ cb[start:stop]
        exact = values_on_uniform_grid(spl, G)
        assert np.max(np.abs(exact - brute)) < 1e-9, G


def test_eval_rejects_non_finite():
    spl, _ = spline_of(power_decay_cosine(4), 2, 3)
    with pytest.raises(ValueError):
        spline_eval(spl, float("nan"))


# -- coefficient law ----------------------------------------------------------


def test_fourier_coeff_matches_series_exactly():
    spl, c = spline_of(power_decay_cosine(4), 8, 3)
    J, _ = series_truncation(spl)
    _, ca, cb = spl.fourier_series()
    assert len(ca) == len(cb) == J
    for j in (1, 5, 17, 30, J):
        a, b = spline_fourier_coeff(spl, j)
        assert a == ca[j - 1]
        assert b == cb[j - 1]


def test_fourier_coeff_beyond_band_is_gain_times_extension():
    sig = power_decay_sine(5)
    spl, c = spline_of(sig, 8, 3)
    N = c.grid.N
    from trigspec import extended_coefficient

    for j in (N + 3, 2 * N - 3, 4 * N + 1):
        a, b = spline_fourier_coeff(spl, j)
        ea, eb = extended_coefficient(spl.spectrum, j)
        g = gain(j, c)
        assert a == pytest.approx(g * ea, rel=1e-14, abs=1e-18)
        assert b == pytest.approx(g * eb, rel=1e-14, abs=1e-18)


def test_fourier_coeff_constant_class_is_zero():
    # The constant class enters only through a0: its harmonics carry none.
    spl, c = spline_of(power_decay_cosine(4), 2, 1, "inv-power")
    for m in (1, 2, 3):
        assert spline_fourier_coeff(spl, m * c.grid.N) == (0.0, 0.0)


def test_sinc_variant_zero_at_multiples_of_N():
    spl, c = spline_of(power_decay_cosine(4), 2, 3)
    assert spline_fourier_coeff(spl, c.grid.N) == (0.0, 0.0)


def test_coefficientwise_linearity():
    f = harmonic_sum([(1, 1.0, 0.5), (7, -0.4, 0.0)])
    g = harmonic_sum([(2, 0.3, -0.2), (7, 0.4, 1.0)])
    fg = harmonic_sum([(1, 1.0, 0.5), (2, 0.3, -0.2), (7, 0.0, 1.0)])
    c = cfg(2, 3)
    s_f = build_spline(sample(f, c.grid), c)
    s_g = build_spline(sample(g, c.grid), c)
    s_fg = build_spline(sample(fg, c.grid), c)
    _, fa, fb = s_f.fourier_series()
    _, ga, gb = s_g.fourier_series()
    _, fga, fgb = s_fg.fourier_series()
    assert np.allclose(fa + ga, fga, atol=1e-12)
    assert np.allclose(fb + gb, fgb, atol=1e-12)
    assert s_f.a0 + s_g.a0 == pytest.approx(s_fg.a0, abs=1e-12)


def test_smoothness_transfer_decay_slope():
    spl, c = spline_of(power_decay_cosine(6), 8, 3)
    N = c.grid.N
    js, ca, cb = unfolded_spectrum(spl, 8 * N)
    window = (js >= 2 * N) & (js % N != 0)
    slope = fit_loglog_slope(js[window], np.abs(ca[window]))
    assert abs(slope - (-4.0)) < 0.3


# -- unfolded spectrum ----------------------------------------------------------


def test_unfolded_in_band_rows_equal_series():
    spl, _ = spline_of(power_decay_cosine(4), 8, 3)
    js, ca, cb = unfolded_spectrum(spl, 8)
    _, sa, sb = spl.fourier_series()
    assert np.array_equal(ca, sa[:8])
    assert np.array_equal(cb, sb[:8])


def test_unfolded_constant_signal_all_zero():
    spl, _ = spline_of(CONSTANT, 2, 3)
    _, ca, cb = unfolded_spectrum(spl, 40)
    assert np.max(np.abs(ca)) < 1e-14
    assert np.max(np.abs(cb)) < 1e-14


def test_unfolded_partition_for_pure_harmonic():
    # cos t on N=5: the unfolded coefficients of the j = +-1 class sum to 1.
    spl, c = spline_of(harmonic_sum([(1, 1.0, 0.0)]), 2, 3)
    N = c.grid.N
    js, ca, _ = unfolded_spectrum(spl, 400 * N)
    mask = np.minimum(js % N, N - js % N) == 1
    from trigspec.spline_kernel import class_partition_terms

    _, remainder = class_partition_terms(1, c, 400)
    assert float(np.sum(ca[mask])) + remainder == pytest.approx(1.0, abs=1e-9)


def test_unfolding_recovers_coefficients_at_matching_order():
    # For a pure power signal whose decay matches the spline order the
    # coefficient law reproduces the true out-of-band coefficients almost
    # exactly; a lower order keeps the decay slope but overshoots the level
    # (frozen factor ~44 at j=20, computed from the closed forms).
    sig = power_decay_cosine(6)
    matched, _ = spline_of(sig, 8, 5, "inv-power")
    a20 = spline_fourier_coeff(matched, 20)[0]
    true20 = true_coefficient(sig, 20)[0]
    assert abs(a20 - true20) / true20 < 1e-3

    low, _ = spline_of(sig, 8, 3, "inv-power")
    ratio = spline_fourier_coeff(low, 20)[0] / true20
    assert 40.0 < ratio < 49.0


def test_unfolded_decay_slope_near_band():
    spl, c = spline_of(power_decay_cosine(6), 8, 3)
    N = c.grid.N
    js, ca, _ = unfolded_spectrum(spl, 4 * N)
    window = (js >= N) & (js % N != 0) & (ca != 0.0)
    slope = fit_loglog_slope(js[window], np.abs(ca[window]))
    assert abs(slope - (-4.0)) < 0.3


# -- curvature ------------------------------------------------------------------


def test_curvature_of_cosine():
    f = harmonic_sum([(1, 1.0, 0.0)])
    assert curvature_functional(f, 2) == pytest.approx(np.pi, rel=1e-12)


def test_curvature_of_constant_is_zero():
    assert curvature_functional(CONSTANT, 2) == 0.0
    assert curvature_functional(CONSTANT, 4) == 0.0


def test_curvature_rejects_odd_order():
    with pytest.raises(ValueError):
        curvature_functional(harmonic_sum([(1, 1.0, 0.0)]), 3)


def _curvature_partial_sum(spl, order, J):
    # pi * sum_{j <= J} j^(2 order) (a_j^2 + b_j^2), plus pi a0^2/2 at order 0,
    # summed exactly over the unfolded spectrum.
    js, ca, cb = unfolded_spectrum(spl, J)
    terms = js.astype(float) ** (2 * order) * (ca * ca + cb * cb)
    if order == 0:
        terms = np.append(terms, 0.5 * spl.a0 * spl.a0)
    return math.pi * math.fsum(terms.tolist())


def _curvature_bracket(spl, order, L=256):
    # (lower, upper) around the curvature of a spline, with no zeta: the
    # partial sum to J = L*N plus, for each class k, its members beyond J
    # (j = mN + k, m >= L; j = mN - k, m >= L + 1). Member j contributes
    # c_k (k/j)^e with c_k = k^(2 order)(a_k^2 + b_k^2) and e = 2(s - order),
    # a decreasing function of m, so its tail from m0 lies between the
    # integrals from m0 and from m0 - 1.
    cfg = spl.config
    N = cfg.grid.N
    e = 2 * (cfg.power - order)
    ks, ka, kb = unfolded_spectrum(spl, cfg.grid.n)
    k = ks.astype(float)
    c = k ** (2 * order) * (ka * ka + kb * kb)

    def integral(m0, off):
        base = m0 * N + off
        return (k / base) ** e * base / (N * (e - 1))

    partial = _curvature_partial_sum(spl, order, L * N)
    lower = math.fsum((c * (integral(L, k) + integral(L + 1, -k))).tolist())
    upper = math.fsum((c * (integral(L - 1, k) + integral(L, -k))).tolist())
    return partial + math.pi * lower, partial + math.pi * upper


def _assert_in_bracket(value, bracket, slack=1e-14):
    lower, upper = bracket
    assert lower * (1.0 - slack) <= value <= upper * (1.0 + slack), (value, bracket)


def test_curvature_lies_in_partial_sum_bracket():
    # The truncated series misses this bracket (by 1e-10 below it at the
    # default tail_tol), the closed form does not.
    spl, _ = spline_of(power_decay_cosine(6), 8, 3)
    _assert_in_bracket(curvature_functional(spl, 2), _curvature_bracket(spl, 2))


def test_curvature_ignores_tail_tol():
    values = {
        curvature_functional(spline_of(power_decay_cosine(6), 8, 3, tail_tol=tol)[0], 2)
        for tol in (1e-12, 1e-6, 1e-3)
    }
    assert len(values) == 1


@pytest.mark.parametrize("r,order", [(1, 2), (3, 4)])
def test_curvature_refuses_divergent_order(r, order):
    spl, _ = spline_of(power_decay_cosine(6), 8, r)
    with pytest.raises(ValueError, match="diverges"):
        curvature_functional(spl, order)


def _random_harmonic_sum(seed, size):
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((size, 2))
    return harmonic_sum([(j, a, b if j else 0.0) for j, (a, b) in enumerate(ab.tolist())])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["sinc", "abs-sinc", "inv-power"]),
    st.sampled_from([0, 2, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_curvature_sweep_lies_in_bracket(n, r, variant, order, seed, fill):
    assume(order <= r)
    N = 2 * n + 1
    sig = _random_harmonic_sum(seed, max(1, round(fill * 3 * N)))
    spl, _ = spline_of(sig, n, r, variant)
    _assert_in_bracket(curvature_functional(spl, order), _curvature_bracket(spl, order))
    # The signal itself is a finite series: Parseval over its term list.
    exact = math.fsum(
        (k ** (2 * order) * (a * a + b * b) if k else (0.5 * a * a if order == 0 else 0.0))
        for k, a, b in sig.terms
    )
    assert curvature_functional(sig, order) == pytest.approx(math.pi * exact, rel=1e-14)


@pytest.mark.parametrize("variant", ["sinc", "abs-sinc", "inv-power"])
def test_curvature_order_150_matches_partial_sum(variant):
    spl, c = spline_of(_random_harmonic_sum(3, 130), 64, 150, variant)
    for order in (0, 2, 4):
        value = curvature_functional(spl, order)
        assert math.isfinite(value)
        oracle = _curvature_partial_sum(spl, order, 40 * c.grid.N)
        assert value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("signal_name", ["power-cos-4", "power-cos-6", "power-sin-3"])
def test_spline_curves_less_than_polynomial(signal_name, suite):
    # Order-3 splines minimize the squared second derivative among
    # interpolants, so they sit strictly below the band-limited polynomial
    # whenever the signal has out-of-band energy.
    sig = suite[signal_name]
    c = cfg(8, 3, "inv-power")
    samples = sample(sig, c.grid)
    spl = build_spline(samples, c)
    poly = interpolating_polynomial(samples)
    assert curvature_functional(spl, 2) < curvature_functional(poly, 2)


def test_polynomial_interpolates_and_exposes_series():
    sig = power_decay_cosine(4)
    samples = sample(sig, make_grid(8))
    poly = interpolating_polynomial(samples)
    assert np.max(np.abs(poly.eval_on_uniform_grid(17) - samples.values)) < 1e-10
    a0, a, b = poly.fourier_series()
    assert len(a) == 8


# -- serialization ----------------------------------------------------------------


def test_json_round_trip_reproduces_spline():
    spl, c = spline_of(power_decay_sine(5), 8, 3)
    doc = json.loads(json.dumps(spline_to_json(spl)))
    assert set(doc) == {"r", "variant", "N", "J", "a0", "coeffs"}
    back = spline_from_json(doc)
    assert series_truncation(back)[0] == series_truncation(spl)[0] == doc["J"]
    _, back_a, back_b = back.fourier_series()
    _, ca, cb = spl.fourier_series()
    assert np.allclose(back_a, ca, atol=1e-13)
    assert np.allclose(back_b, cb, atol=1e-13)
    g = values_on_uniform_grid(back, 64)
    assert np.allclose(g, values_on_uniform_grid(spl, 64), atol=1e-12)


def test_json_constant_spline_rows_are_rounding_noise():
    spl, _ = spline_of(CONSTANT, 2, 3)
    doc = spline_to_json(spl)
    assert all(max(abs(a), abs(b)) < 1e-14 for _, a, b in doc["coeffs"])
    assert doc["a0"] == pytest.approx(2.0)
