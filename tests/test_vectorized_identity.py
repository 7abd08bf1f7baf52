"""The array code of spline construction against the scalar loops it replaced.

The tail-bound search, the Hurwitz fold and the direct DFT are written
over arrays, but each keeps the floating-point expressions and the
summation order of a per-class (or per-coefficient) loop. The loops are
kept here as oracles, and results must agree exactly (``==``), not
within a tolerance.

The same inputs also drive the agreement of the two exact evaluation
paths, Lerch-summed scattered points against the Hurwitz fold on a
uniform grid; they sum in different orders, so that check allows
rounding.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import (
    FilterVariant,
    KernelConfig,
    class_gain_sum,
    class_table,
    dc_class_gain_sum,
    filter_response,
    gain,
    make_grid,
    raw_gain,
    trig_spline,
)
from trigspec import _series
from trigspec import _kernels
from trigspec.sampling import DiscreteSpectrum, SampleVector

VARIANTS = list(FilterVariant)


# -- oracles: the scalar loops ------------------------------------------------


def loop_tail_bound(config, spectrum, table, L):
    s = config.power
    N = config.grid.N
    total = 0.0
    for k in range(1, config.grid.n + 1):
        w = abs(spectrum.a[k - 1]) + abs(spectrum.b[k - 1])
        if w == 0.0:
            continue
        alpha = abs(float(table.gains[k - 1]))
        plus = _series.ratio_tail(s, k, L * N + k, N)
        minus = _series.ratio_tail(s, k, (L + 1) * N - k, N)
        total += w * alpha * (plus + minus)
    return total


def loop_one_plus_rho(k, config):
    # The class sum over the in-band raw gain as one formula per class: one
    # plus both fold branches in ratio form. In the signed family the first
    # fold term of the plus branch (m = 1) is negative and that of the
    # minus branch positive.
    s = config.power
    N = config.grid.N
    plus, minus = _series.ratio_tail(s, k, np.array([N + k, N - k]), N, config.signed)
    rho = minus - plus if config.signed else plus + minus
    return 1.0 + rho


def loop_class_sum(k, config):
    return raw_gain(k, config) * loop_one_plus_rho(k, config)


def loop_build_search(config, spectrum):
    probe = filter_response(config, config.grid.n)
    for L in range(1, 65):
        bound = loop_tail_bound(config, spectrum, probe, L)
        if bound < config.tail_tol:
            return L, bound
    return 64, loop_tail_bound(config, spectrum, probe, 64)


def loop_folded_spectrum(spline, G):
    cfg = spline.config
    N = cfg.grid.N
    s = cfg.power
    spec = spline.spectrum
    P = G // math.gcd(N, G)
    PN = P * N
    W = np.zeros(G, dtype=complex)
    m0 = np.arange(1, P + 1, dtype=np.int64)
    for k in range(1, cfg.grid.n + 1):
        alpha = float(spline.table.gains[k - 1])
        astar = float(spec.a[k - 1])
        bstar = float(spec.b[k - 1])
        if astar == 0.0 and bstar == 0.0:
            continue
        W[k % G] += alpha * (astar - 1j * bstar)
        for branch in (1, -1):
            cfac = (astar - 1j * branch * bstar) * alpha
            j0 = m0 * N + branch * k
            if cfg.signed:
                sgn0 = np.where((j0 // N) % 2 == 1, -1.0, 1.0)
                tails = sgn0 * _series.ratio_tail(s, k, j0, PN, alternating=(P % 2 == 1))
            else:
                tails = _series.ratio_tail(s, k, j0, PN)
            np.add.at(W, np.mod(j0, G), cfac * tails)
    return W


def loop_dft(values):
    N = values.shape[0]
    n = (N - 1) // 2
    tj = 2.0 * np.pi * np.arange(N) / N
    scale = 2.0 / N
    a = np.empty(n)
    b = np.empty(n)
    for k in range(1, n + 1):
        a[k - 1] = scale * np.sum(values * np.cos(k * tj))
        b[k - 1] = scale * np.sum(values * np.sin(k * tj))
    return scale * np.sum(values), a, b


# -- inputs -------------------------------------------------------------------


@st.composite
def configs(draw, max_n=24, tiny_tol=True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.sampled_from([1, 2, 3, 5, 10]))
    variant = draw(st.sampled_from(VARIANTS))
    tol = draw(st.sampled_from([1e-12, 1e-300] if tiny_tol else [1e-12]))
    return KernelConfig(grid=make_grid(n), order=r, variant=variant, tail_tol=tol)


@st.composite
def spectra(draw, grid):
    """Seeded coefficients; none, about half or all of the classes are exactly zero."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.standard_normal(grid.n)
    b = rng.standard_normal(grid.n)
    zero = rng.random(grid.n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    b_only = rng.random(grid.n) < 0.3
    a = np.where(zero | b_only, 0.0, a)
    b = np.where(zero, 0.0, b)
    return DiscreteSpectrum(grid, float(rng.standard_normal()), a, b)


def build_from(spectrum, config):
    # build_spline samples -> spectrum step, replaced by a given spectrum so
    # that exact zero classes reach the search.
    samples = SampleVector(config.grid, np.zeros(config.grid.N))
    with mock.patch.object(trig_spline, "discrete_coeffs", lambda _: spectrum):
        return trig_spline.build_spline(samples, config)


# -- tests --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tail_search_matches_scalar_loop(data):
    config = data.draw(configs())
    spectrum = data.draw(spectra(config.grid))
    spline = build_from(spectrum, config)
    L, bound = loop_build_search(config, spectrum)
    assert trig_spline.series_truncation(spline) == (L * config.grid.N, bound)


def test_tail_search_cap_path_when_tolerance_unreachable():
    config = KernelConfig(
        grid=make_grid(5), order=1, variant=FilterVariant.ABS_SINC_POWER, tail_tol=1e-300
    )
    spectrum = DiscreteSpectrum(config.grid, 0.0, np.ones(5), np.zeros(5))
    spline = build_from(spectrum, config)
    J, tail_bound = trig_spline.series_truncation(spline)
    assert J == 64 * config.grid.N
    assert tail_bound == loop_build_search(config, spectrum)[1]
    assert tail_bound >= config.tail_tol


def _grid_size(kind, N, rng):
    # "one": P = 1 with G = 1; "divisor": P = 1 with G = N; "coprime": P = G;
    # "big": P > 4096, one class per fold block.
    if kind == "one":
        return 1
    if kind == "divisor":
        return N
    if kind == "coprime":
        G = int(rng.integers(2, 300))
    else:
        G = int(rng.integers(4097, 9000))
    while math.gcd(G, N) != 1:
        G += 1
    return G


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_spectrum_matches_per_class_loop(data):
    config = data.draw(configs(max_n=20, tiny_tol=False))
    spectrum = data.draw(spectra(config.grid))
    spline = build_from(spectrum, config)
    kind = data.draw(st.sampled_from(["one", "divisor", "coprime", "big"]))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    G = _grid_size(kind, config.grid.N, np.random.default_rng(seed))
    new = trig_spline._folded_spectrum(spline, G)
    old = loop_folded_spectrum(spline, G)
    assert np.array_equal(new, old)
    assert np.array_equal(
        trig_spline.values_on_uniform_grid(spline, G), _series.synth_folded(old, spline.a0)
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scattered_eval_matches_uniform_grid_values(data):
    config = data.draw(configs(max_n=64))
    spectrum = data.draw(spectra(config.grid))
    spline = build_from(spectrum, config)
    N = config.grid.N
    if data.draw(st.booleans()):
        G = _grid_size("coprime", N, np.random.default_rng(data.draw(st.integers(0, 2**16))))
    else:
        G = N * data.draw(st.integers(min_value=1, max_value=4))
    g = np.arange(G)
    got = trig_spline.spline_eval(spline, 2.0 * np.pi * g / G)
    want = trig_spline.values_on_uniform_grid(spline, G)
    # Both sides are exact up to rounding, which grows with the size of
    # the spectrum (and t = 2*pi*g/G itself is rounded).
    size = 0.5 * abs(spectrum.a0) + float(np.sum(np.hypot(spectrum.a, spectrum.b)))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, size)
    assert trig_spline.scattered_eval_bound(spline) < 1e-20 * max(1.0, size)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fold_blocks_span_many_classes(variant):
    # At N = 129, G = 64, 65 and 1000 give fold blocks of 64, 63 and 4 classes.
    config = KernelConfig(grid=make_grid(64), order=2, variant=variant)
    rng = np.random.default_rng(3)
    spectrum = DiscreteSpectrum(
        config.grid, 0.5, rng.standard_normal(64), rng.standard_normal(64)
    )
    spline = build_from(spectrum, config)
    for G in (64, 65, 1000):
        assert np.array_equal(
            trig_spline._folded_spectrum(spline, G), loop_folded_spectrum(spline, G)
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=1024), st.integers(min_value=0, max_value=2**32 - 1))
def test_dft_matches_per_coefficient_loop(n, seed):
    values = np.random.default_rng(seed).standard_normal(2 * n + 1)
    a0, a, b = _kernels.dft(values)
    la0, la, lb = loop_dft(values)
    assert a0 == la0
    assert np.array_equal(a, la)
    assert np.array_equal(b, lb)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("r", [1, 4])
def test_class_table_holds_the_scalar_values(variant, r):
    config = KernelConfig(grid=make_grid(9), order=r, variant=variant, tail_tol=1e-9)
    ct = class_table(config)
    for k in range(1, 10):
        assert ct.gains[k - 1] == gain(k, config)
        assert ct.raw_gains[k - 1] == raw_gain(k, config)
        assert ct.sums[k - 1] == loop_class_sum(k, config) == class_gain_sum(k, config)
    assert ct.dc_sum == dc_class_gain_sum(config)
    table = filter_response(config, 30)
    assert table.class_sums is ct.sums
    with pytest.raises(ValueError):
        ct.sums[0] = 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_class_table_sums_match_per_class_formula(variant):
    # The table's one array pass against the scalar formula, class by class.
    for order in [*range(1, 13), 40, 100, 150]:
        for n in range(1, 65):
            config = KernelConfig(grid=make_grid(n), order=order, variant=variant)
            raw = raw_gain(np.arange(1, n + 1), config)
            want = [raw[k - 1] * loop_one_plus_rho(k, config) for k in range(1, n + 1)]
            assert np.array_equal(class_table(config).sums, want), (n, order)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=3, max_value=101).filter(lambda N: N % 2 == 1),
    st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=6),
    st.booleans(),
)
def test_progression_tail_arrays_match_scalar_calls(s, N, m_starts, alternating):
    offsets = np.arange(-(N // 2), N // 2 + 1, dtype=float)[:, None]
    m = np.asarray(m_starts)[None, :]
    got = _series.progression_tail(s, N, offsets, m_start=m, alternating=alternating)
    assert got.shape == (offsets.size, m.size)
    for i, off in enumerate(offsets[:, 0]):
        for j, ms in enumerate(m_starts):
            want = _series.progression_tail(s, N, float(off), m_start=ms, alternating=alternating)
            assert got[i, j] == want


def test_progression_tail_array_validation():
    with pytest.raises(ValueError):
        _series.progression_tail(3, 5, np.array([1.0, 2.0]), m_start=np.array([1, 0]))
    with pytest.raises(ValueError):
        _series.progression_tail(3, 5, np.array([1.0, -6.0]), m_start=1)
