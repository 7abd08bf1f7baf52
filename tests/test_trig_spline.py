"""Spline construction, evaluation, unfolded spectrum and curvature."""

import inspect
import json
import math
import sys
import threading
from collections import Counter
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from trigspec import (
    DiscreteSpectrum,
    FilterVariant,
    KernelConfig,
    SampleVector,
    TrigSpline,
    build_spline,
    class_table,
    curvature_functional,
    discrete_coeffs,
    extended_coefficient,
    gain,
    harmonic_sum,
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
from trigspec import _cache, _kernels, _series, spline_kernel, trig_spline
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


@pytest.mark.parametrize("n, r", [(4, 1), (4, 2), (8, 3), (8, 4), (32, 5)])
def test_splines_depend_on_the_gain_signs_only(n, r):
    # alpha_j = eps_j (k/j)^s / (1 + rho_k): the family reaches a spline only
    # through the signs eps_j, so the abs-sinc, inverse-power and (at odd r)
    # sinc splines of the same samples are one spline, bit for bit, built
    # from one class table. An even-r sinc spline is signed.
    grid = make_grid(n)
    rng = np.random.default_rng([n, r])
    samples = SampleVector(grid, rng.standard_normal(grid.N))
    splines = {v: build_spline(samples, KernelConfig(grid=grid, order=r, variant=v))
               for v in FilterVariant}
    ref = splines[FilterVariant.ABS_SINC_POWER]
    same = [splines[FilterVariant.INVERSE_POWER]]
    sinc = splines[FilterVariant.SINC_POWER]
    if sinc.config.signed:
        assert class_table(sinc.config) is not class_table(ref.config)
    else:
        same.append(sinc)
    # G = N has one angle, 0 unless signed; G = 1024 has 1024 on a grid of odd N.
    t = {P: rng.uniform(0.0, 2.0 * np.pi, P) for P in (40, 400)}

    def quantities(spline):
        doc = spline_to_json(spline)
        return [
            values_on_uniform_grid(spline, grid.N),
            values_on_uniform_grid(spline, 1024),
            *(spline_eval(spline, points) for points in t.values()),
            *unfolded_spectrum(spline, 4 * grid.N),
            np.array([doc["J"], doc["a0"]]),
            np.array(doc["coeffs"]),
        ]

    want = quantities(ref)
    for spline in same:
        assert class_table(spline.config) is class_table(ref.config)
        for got, expected in zip(quantities(spline), want):
            assert np.array_equal(got, expected)


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


def test_scattered_bound_is_zero_for_polynomial_splines():
    # Even s (odd r) or the signed family: the engine keeps columns 0..r,
    # and the columns it drops cancel in the sum over first members.
    # Abs-sinc and inverse power at even r keep the Lerch remainder.
    sig = power_decay_cosine(6)
    for r, variant in ((1, "abs-sinc"), (3, "inv-power"), (5, "sinc"), (2, "sinc"), (4, "sinc")):
        spl, _ = spline_of(sig, 8, r, variant)
        assert scattered_eval_bound(spl) == 0.0, (r, variant)
    for r, variant in ((2, "abs-sinc"), (2, "inv-power"), (10, "abs-sinc")):
        spl, c = spline_of(sig, 8, r, variant)
        k = np.arange(1, c.grid.n + 1)
        weight = np.abs(class_table(c).gains) * (k / c.grid.N) ** c.power
        mass = 2.0 * np.sum(weight * np.hypot(spl.spectrum.a, spl.spectrum.b))
        want = mass * _series.lerch_remainder_bound(c.power)
        assert 0.0 < scattered_eval_bound(spl) == pytest.approx(want, rel=1e-12), (r, variant)


@pytest.mark.parametrize("variant", ["sinc", "abs-sinc", "inv-power"])
@pytest.mark.parametrize("n, r", [(1, 1), (8, 1), (8, 2), (8, 3), (8, 10), (64, 40), (16, 200)])
def test_zero_angle_calls_read_column_0_of_the_full_table(n, r, variant):
    # A call whose angles are all 0 builds column 0 of the cell table alone,
    # one FFT row; at every cell it gives the bits of the full table of
    # R + 1 rows, which a call with one more angle builds.
    c = cfg(n, r, variant)
    N = c.grid.N
    columns = trig_spline._columns(c)
    rng = np.random.default_rng([n, r])
    w = rng.standard_normal(N - 1) + 1j * rng.standard_normal(N - 1)
    cells = np.arange(N)
    with mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as fft:
        theta = np.zeros(1)
        alone = trig_spline._cell_table_sum(columns, w, _series._lerch_singular(c.power, theta),
                                            theta, cells[None, :])
        assert fft.call_args.args[0].shape == (1, N)
        theta = np.array([0.0, 0.7])
        full = trig_spline._cell_table_sum(columns, w, _series._lerch_singular(c.power, theta),
                                           theta, np.stack((cells, cells)))
        R = columns[0].shape[1] + columns[1].shape[1]
        assert fft.call_args.args[0].shape == (R + 1, N)
    assert alone.tobytes() == full[:1].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.sampled_from([1, 3, 5, 7]),
       st.sampled_from(["sinc", "abs-sinc", "inv-power"]), st.integers(0, 2**32 - 1))
def test_odd_order_spline_is_scipys_periodic_interpolating_spline(n, r, variant, seed):
    # At even s = r + 1 every family gives the periodic spline of degree r
    # with knots at the nodes that interpolates the samples; SciPy builds
    # it from B-splines on the N + 1 knots, the first sample repeated at
    # 2 pi.
    c = cfg(n, r, variant)
    rng = np.random.default_rng(seed)
    samples = SampleVector(c.grid, rng.standard_normal(c.grid.N))
    spl = build_spline(samples, c)
    x = np.append(c.grid.nodes, 2 * np.pi)
    y = np.append(samples.values, samples.values[0])
    oracle = make_interp_spline(x, y, k=r, bc_type="periodic")
    t = rng.uniform(0.0, 2 * np.pi, 200)
    assert np.max(np.abs(spline_eval(spl, t) - oracle(t))) <= 1e-13 * np.max(np.abs(samples.values))


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
    # At order 150 on N = 129 with G = 64 (coprime, so 64 angles), a
    # Hurwitz fold of step 64N would meet (64N)^-151, which underflows, and
    # zeta(151, q), which overflows; the engine forms only powers of ratios
    # below one.
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
    # samples, and the scattered bound holds against grid values.
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
    # for most of these sizes; no value is formed from it.
    for n in (*range(1, 17), 64):
        c = cfg(n, 100, variant)
        samples = SampleVector(c.grid, np.random.default_rng(n).standard_normal(c.grid.N))
        spl = build_spline(samples, c)
        grid = values_on_uniform_grid(spl, 1000)
        got = spline_eval(spl, 2 * np.pi * np.arange(1000) / 1000)
        tol = 1e-12 * np.max(np.abs(samples.values)) + scattered_eval_bound(spl)
        assert np.max(np.abs(got - grid)) <= tol, n


def test_uniform_grid_values_match_brute_series():
    # Independent check of grid values: long direct summation of the
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
    # Odd-power signed gains alternate within each class; grid values must
    # agree with direct summation of the signed series on grids whose
    # number of distinct angles P = G/gcd(N, G) is odd, even, and G itself.
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


GRID_REFERENCE = Path(__file__).parent / "data" / "grid_reference.json"


@pytest.mark.parametrize(
    "entry", json.loads(GRID_REFERENCE.read_text())["configs"],
    ids=lambda e: f"n{e['n']}-r{e['order']}-{e['variant']}-G{e['G']}",
)
def test_grid_values_match_50_digit_fold(entry):
    # tools/gain_reference.py folds the whole series onto the grid with
    # mpmath; every value lies within 4 eps max|f| of it, the difference
    # taken exactly in decimal.
    c = cfg(entry["n"], entry["order"], entry["variant"])
    spectrum = DiscreteSpectrum(c.grid, entry["a0"], np.array(entry["a"]), np.array(entry["b"]))
    got = values_on_uniform_grid(TrigSpline(c, spectrum), entry["G"])
    refs = [Decimal(v) for v in entry["values"]]
    worst = max(abs(Decimal(g) - ref) for g, ref in zip(got.tolist(), refs))
    assert worst <= 4 * Decimal(2) ** -52 * max(abs(ref) for ref in refs)


def test_eval_rejects_non_finite():
    spl, _ = spline_of(power_decay_cosine(4), 2, 3)
    for t in (np.nan, np.inf, -np.inf, np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            spline_eval(spl, t)


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
    for j in (N + 3, 2 * N - 3, 4 * N + 1):
        a, b = spline_fourier_coeff(spl, j)
        ea, eb = extended_coefficient(spl.spectrum, j)
        g = gain(j, c)
        assert (a, b) == (g * ea, g * eb)


@pytest.mark.parametrize("variant,r", [("sinc", 2), ("sinc", 3), ("abs-sinc", 3), ("inv-power", 1)])
def test_unfolded_rows_are_gain_times_extension_bit_for_bit(variant, r, rng):
    # Off the constant class every row is the coefficient law itself,
    # signed zeros included; the constant class carries exact zeros.
    c = cfg(8, r, variant)
    a, b = rng.standard_normal((2, c.grid.n))
    a[::3] = 0.0
    b[1::2] = 0.0       # zero products, whose sign follows the gain's
    spl = TrigSpline(config=c, spectrum=DiscreteSpectrum(c.grid, rng.standard_normal(), a, b))
    js, ca, cb = unfolded_spectrum(spl, 6 * c.grid.N)
    ea, eb = extended_coefficient(spl.spectrum, js)
    g = gain(js, c)
    off = js % c.grid.N != 0
    for got, want in ((ca, g * ea), (cb, g * eb)):
        assert np.array_equal(got[off].view(np.int64), want[off].view(np.int64))
        assert np.all(got[~off].view(np.int64) == 0)


# -- the store of tables and plans ----------------------------------------------

# The builder of each kind of entry the store holds.
STORED_KINDS = {
    "dft": _kernels._dft_matrix,
    "shift": trig_spline._signed_shift,
    "class": spline_kernel._class_table,
    "lerch": _series._lerch_table,
    "law": trig_spline._law,
    "grid": trig_spline._grid_plan,
}


def _stored(build):
    # The store's entries of one builder, by key.
    return {key: value for (b, key), (value, _) in _cache._entries.items() if b is build}


def _bits(out):
    return [(np.shape(x), np.asarray(x).tobytes()) for x in out]


def _seeded_samples(c, count=2):
    rng = np.random.default_rng([c.grid.n, c.order, count])
    return [SampleVector(c.grid, rng.standard_normal(c.grid.N)) for _ in range(count)]


def _seeded_splines(c, count=2):
    return [build_spline(samples, c) for samples in _seeded_samples(c, count)]


def _store_calls(c, points):
    # (kind, call) pairs: each call of a sample vector reads entries of its kind.
    N = c.grid.N

    def spectrum(v):
        # A fresh vector, since a vector keeps its spectrum once computed.
        d = discrete_coeffs(SampleVector(v.grid, v.values))
        return d.a0, d.a, d.b

    def table(v):
        t = class_table(c)
        return t.gains, t.mirror_gains, t.norms

    def spline(v):
        return build_spline(v, c)

    calls = [("dft", spectrum), ("class", table),
             ("lerch", lambda v: (spline_eval(spline(v), points),)),
             ("shift", lambda v: (spline_eval(spline(v), points),))]
    calls += [("law", lambda v, J=J: unfolded_spectrum(spline(v), J)) for J in (1, N, 4 * N, 1000)]
    calls += [("grid", lambda v, G=G: (values_on_uniform_grid(spline(v), G),))
              for G in (1, 7, N, 3 * N, 64, 1000, 2048)]
    return calls


def test_warm_plans_give_the_cold_bits(cache_patch):
    # For every family at order 1 (a polynomial spline) and order 2 (log-type
    # unless signed), a call whose tables and plans another sample vector
    # built gives the bits of the same call on an empty store. Each call
    # runs under the store's budget, which keeps every entry here, and
    # under 128 bytes, which keeps only the smallest laws, so each of the
    # six kinds is seen stored and not stored (the phase shift is read by
    # the signed family only). G = 1 and N have one angle,
    # 0 in the unsigned families, where the cell table builds column 0
    # alone; G = 3N, 64, 1000 and 2048 have 3 to 2048 angles and build every
    # column. A last pass fills the store with every configuration at once,
    # so an entry read under another configuration's key would show.
    seen = {kind: set() for kind in STORED_KINDS}
    cases = []
    points = np.linspace(-1.0, 7.0, 50)
    for budget in (_cache._BUDGET, 128):
        cache_patch.setattr(_cache, "_BUDGET", budget)
        for variant in ("sinc", "abs-sinc", "inv-power"):
            for r in (1, 2):
                c = cfg(8, r, variant)
                first, second = _seeded_samples(c)
                for kind, call in _store_calls(c, points):
                    _cache.clear()
                    cold = _bits(call(second))
                    _cache.clear()
                    with mock.patch.object(trig_spline, "_cell_table_sum",
                                           wraps=trig_spline._cell_table_sum) as table:
                        call(first)
                    stored = bool(_stored(STORED_KINDS[kind]))
                    assert _bits(call(second)) == cold, (budget, variant, r, kind)
                    if kind == "grid":
                        stored = stored, not table.call_args.args[3].any()    # every angle 0
                    seen[kind].add(stored)
                    cases.append((first, second, call, cold))
    assert all(seen[kind] == {True, False} for kind in ("dft", "shift", "class", "lerch", "law"))
    assert seen["grid"] == {(stored, zero) for stored in (True, False) for zero in (True, False)}
    cache_patch.undo()
    _cache.clear()
    for first, _, call, _ in cases:
        call(first)
    for _, second, call, cold in cases:
        assert _bits(call(second)) == cold


def test_long_laws_are_built_block_by_block_with_the_same_bits():
    c = cfg(8, 2, "sinc")
    spl = _seeded_splines(c, 1)[0]
    js, ca, cb = unfolded_spectrum(spl, 2 * trig_spline._LAW_BLOCK + 100)
    whole = trig_spline._law_coefficients(trig_spline._law(c, js), spl.spectrum)
    assert _bits((ca, cb)) == _bits(whole)


@pytest.mark.parametrize("J", [1, 2**14, 2**14 + 1, 3 * 2**14 + 7, 2**18])
def test_unfolded_blocks_join_to_the_unfolded_spectrum(J):
    # Consecutive blocks of 2^14 indices, the last one shorter, whose rows
    # joined are the unfolded spectrum's: up to 2^14 read from a stored
    # law, above filled from these same blocks.
    c = cfg(8, 3, "inv-power")
    spl = _seeded_splines(c, 1)[0]
    blocks = list(trig_spline._blocks(spl, J))
    sizes = [js.size for js, _, _ in blocks]
    assert sizes[:-1] == [trig_spline._LAW_BLOCK] * (len(blocks) - 1)
    assert 1 <= sizes[-1] <= trig_spline._LAW_BLOCK
    joined = [np.concatenate(part) for part in zip(*blocks)]
    assert _bits(joined) == _bits(unfolded_spectrum(spl, J))


def test_returned_arrays_are_fresh_and_plans_are_read_only():
    _cache.clear()
    c = cfg(8, 2)
    spl = _seeded_splines(c, 1)[0]
    signed = _seeded_splines(cfg(8, 2, "sinc"), 1)[0]
    N = c.grid.N
    calls = [lambda: unfolded_spectrum(spl, 4 * N),
             *(lambda G=G: (values_on_uniform_grid(spl, G),) for G in (N, 64, 100)),
             lambda: (values_on_uniform_grid(signed, 64),)]
    for call in calls:
        first = call()
        want = _bits(first)
        for arr in first:
            arr[...] = 7
        assert _bits(call()) == want
    assert all(_stored(build) for build in STORED_KINDS.values())
    stored = [part for value, _ in _cache._entries.values()
              for part in (value if isinstance(value, tuple) else vars(value).values())]
    arrays = [part for part in stored if isinstance(part, np.ndarray)]
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    assert _cache.stored_bytes() == sum(arr.nbytes for arr in arrays)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 40), r=st.integers(1, 6),
       variant=st.sampled_from(["sinc", "abs-sinc", "inv-power"]),
       sizes=st.lists(st.integers(1, 3000), min_size=2, max_size=6, unique=True),
       budget=st.sampled_from([1 << 12, 1 << 15, 1 << 18]))
def test_the_store_stays_within_its_budget(cache_patch, n, r, variant, sizes, budget):
    # A budget that holds a few of the sweep's entries, so that entries are
    # evicted while other threads read them. More threads than cores build
    # splines, laws and grid values at random sizes, with a short switch
    # interval; every result keeps its single-threaded bits, the store's
    # arrays stay within the budget, and its count of them is exact.
    # Without the store's lock a thread could lose an entry between finding
    # and refreshing it and raise KeyError.
    cache_patch.setattr(_cache, "_BUDGET", budget)
    _cache.clear()
    c = cfg(n, r, variant)
    samples = _seeded_samples(c, 1)[0]

    def work(size):
        spl = build_spline(samples, c)
        return _bits((*unfolded_spectrum(spl, size), values_on_uniform_grid(spl, size)))

    want = {size: work(size) for size in sizes}
    assert 0 < _cache.stored_bytes() <= budget
    errors = []

    def run(seed):
        try:
            for size in np.random.default_rng(seed).choice(sizes, 30).tolist():
                if work(size) != want[size]:
                    errors.append(size)
        except Exception as exc:     # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _cache.stored_bytes() <= budget
    assert _cache.stored_bytes() == sum(size for _, size in _cache._entries.values())


def test_plan_caches_stay_within_their_bound(cache_patch):
    # A sweep of more law and grid plans than a 1 MiB budget holds: the
    # oldest are evicted, the store's arrays stay within the budget, and its
    # count of them is exact.
    budget = 1 << 20
    cache_patch.setattr(_cache, "_BUDGET", budget)
    sizes = (*range(1, 700, 9), 2000, 5000)
    for n, r, variant in ((1, 1, "sinc"), (8, 2, "abs-sinc"), (64, 3, "inv-power")):
        spl = _seeded_splines(cfg(n, r, variant), 1)[0]
        for size in sizes:
            unfolded_spectrum(spl, size)
            values_on_uniform_grid(spl, size)
            assert _cache.stored_bytes() <= budget
    plans = [len(_stored(STORED_KINDS[kind])) for kind in ("law", "grid")]
    assert all(plans) and sum(plans) < 2 * 3 * len(sizes)
    assert _cache.stored_bytes() == sum(size for _, size in _cache._entries.values())


def test_plan_caches_hold_under_threads(cache_patch):
    # More threads than cores read plans at random from more sizes than a
    # budget of half their bytes holds, so plans are evicted while others
    # read them, with a short switch interval; every result keeps its
    # single-threaded bits. Without the store's lock a thread could lose a
    # plan between finding and refreshing it and raise KeyError.
    c = cfg(2, 1)
    spl = _seeded_splines(c, 1)[0]
    sizes = range(1, 71)

    def both(size):
        return _bits((*unfolded_spectrum(spl, size), values_on_uniform_grid(spl, size)))

    want = {size: both(size) for size in sizes}
    budget = _cache.stored_bytes() // 2
    cache_patch.setattr(_cache, "_BUDGET", budget)
    _cache.clear()
    errors = []

    def work(seed):
        try:
            for size in np.random.default_rng(seed).choice(sizes, 2000).tolist():
                if both(size) != want[size]:
                    errors.append(size)
        except Exception as exc:     # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert 0 < _cache.stored_bytes() <= budget
    assert _cache.stored_bytes() == sum(size for _, size in _cache._entries.values())


def test_configurations_differing_only_in_tail_tol_share_their_plans():
    _cache.clear()
    tight = cfg(8, 3)
    loose = cfg(8, 3, tail_tol=1e-6)
    samples = SampleVector(tight.grid, np.random.default_rng(3).standard_normal(tight.grid.N))
    outs = []
    for c in (tight, loose):
        spl = build_spline(samples, c)
        outs.append(_bits((*unfolded_spectrum(spl, 4 * c.grid.N), values_on_uniform_grid(spl, 64))))
    assert outs[0] == outs[1]
    assert [len(_stored(STORED_KINDS[kind])) for kind in ("law", "grid")] == [1, 1]


def _clear_caches():
    # Every cache a spline's work fills: the store and the constant-class
    # normalizers.
    _cache.clear()
    spline_kernel._dc_sum.cache_clear()


def _public_series_calls(work):
    # Calls of each public _series function made by work(), through the
    # module attributes that every caller looks up at call time.
    names = [name for name, fn in vars(_series).items()
             if not name.startswith("_") and inspect.isfunction(fn)
             and fn.__module__ == _series.__name__]
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    patches = [mock.patch.object(_series, name, counting(name, getattr(_series, name)))
               for name in names]
    for patch in patches:
        patch.start()
    try:
        work()
    finally:
        for patch in patches:
            patch.stop()
    return counts


@pytest.mark.parametrize("n, r, variant", [(5, 3, "inv-power"), (5, 2, "abs-sinc"),
                                           (8, 2, "sinc"), (3, 1, "inv-power")])
def test_cached_builders_make_no_public_series_calls(n, r, variant):
    # The class table, the constant-class normalizer, the plans and the
    # Lerch table are built from private bodies, so a spline's work makes
    # the same public _series calls on empty caches as on warm ones: the
    # benchmark's traced call counts do not depend on cache state.
    c = cfg(n, r, variant)
    samples = SampleVector(c.grid, np.random.default_rng(n).standard_normal(c.grid.N))
    points = np.random.default_rng(r).uniform(0.0, 2.0 * np.pi, 9)

    def work():
        class_table(c)
        spl = build_spline(samples, c)
        unfolded_spectrum(spl, 44)
        values_on_uniform_grid(spl, 16)
        values_on_uniform_grid(spl, 1000)
        spline_eval(spl, points)

    _clear_caches()
    cold = _public_series_calls(work)
    warm = _public_series_calls(work)
    assert cold == warm
    assert cold["lerch_coefficients"] == 3      # one per evaluation: the count sees every call


@pytest.mark.parametrize("n, r, variant", [(5, 3, "abs-sinc"), (8, 2, "sinc"), (64, 3, "sinc")])
def test_cold_polynomial_evaluation_builds_only_r_plus_one_columns(cache_patch, n, r, variant):
    # A polynomial spline (s = r + 1 even, or the signed family) sums
    # expansion columns 0..r only, and its table is built to those columns:
    # one (s, N, r + 1) table, the full width never.
    c = cfg(n, r, variant)
    spl = _seeded_splines(c, 1)[0]
    _clear_caches()
    table = mock.Mock(wraps=_series._lerch_table)
    cache_patch.setattr(_series, "_lerch_table", table)
    values_on_uniform_grid(spl, 16)
    spline_eval(spl, np.linspace(0.0, 6.0, 200))
    assert {call.args for call in table.call_args_list} == {(float(c.power), c.grid.N, r + 1)}
    assert list(_stored(table)) == [(float(c.power), c.grid.N, r + 1)]


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
    poly = discrete_coeffs(samples)
    assert curvature_functional(spl, 2) < curvature_functional(poly, 2)


def test_polynomial_interpolates_and_exposes_series():
    sig = power_decay_cosine(4)
    samples = sample(sig, make_grid(8))
    poly = discrete_coeffs(samples)
    assert np.max(np.abs(poly(2.0 * np.pi * np.arange(17) / 17) - samples.values)) < 1e-10
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


def _spline_doc():
    spl, _ = spline_of(power_decay_sine(5), 8, 3)
    return json.loads(json.dumps(spline_to_json(spl)))


@pytest.mark.parametrize("N", [10, 1, 9.5])
def test_json_refuses_a_node_count_that_is_not_odd(N):
    # N = 10 used to build a spline on 9 nodes without a word.
    doc = _spline_doc()
    doc["N"] = N
    with pytest.raises(ValueError, match="'N'"):
        spline_from_json(doc)


def test_json_refuses_a_repeated_row_index():
    # A repeated row used to overwrite the first one silently.
    doc = _spline_doc()
    doc["coeffs"].append([doc["coeffs"][0][0], 1.0, 2.0])
    with pytest.raises(ValueError, match="'coeffs'"):
        spline_from_json(doc)


@pytest.mark.parametrize("coeffs", [
    [[1, 0.5, 0.25, 2, 0.125, 0.0]],  # used to be read as two rows
    [1, 0.5, 0.25],                   # used to be read as one row
    [[1, 0.5]],                       # these two failed in NumPy's reshape
    [[1, 0.5, 0.25, 0.0]],
    [[1, 0.5, 0.25], [2, 0.125]],
    [[[1, 0.5, 0.25]]],
    {"1": [0.5, 0.25]},
    "1,0.5,0.25",
    None,
], ids=["six-wide", "flat", "two-wide", "four-wide", "ragged", "nested", "dict", "string",
        "null"])
def test_json_refuses_coeffs_that_are_not_a_list_of_rows(coeffs):
    doc = _spline_doc()
    doc["coeffs"] = coeffs
    with pytest.raises(ValueError, match=r"field 'coeffs' must be a list of \[j, a_j, b_j\] rows"):
        spline_from_json(doc)


def test_json_refuses_a_row_index_of_zero():
    # Row 0 used to be ignored; a0 has its own field.
    doc = _spline_doc()
    doc["coeffs"].insert(0, [0, 1.0, 0.0])
    with pytest.raises(ValueError, match="'coeffs'"):
        spline_from_json(doc)
