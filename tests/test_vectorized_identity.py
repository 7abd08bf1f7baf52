"""The array code of spline construction against the scalar loops it replaced.

The tail-bound search and the direct DFT are written over arrays, but
each keeps the floating-point expressions and the summation order of a
per-class (or per-coefficient) loop. The loops are kept here as oracles,
and results must agree exactly (``==``), not within a tolerance.

The Hurwitz fold of the whole series onto a uniform grid is kept here as
a per-class loop too, as the oracle of the evaluation engine; the two
sum in different orders, so that check allows rounding, as does the
agreement of scattered points with grid values.
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
    class_table,
    filter_response,
    gain,
    make_grid,
    raw_gain,
    trig_spline,
)
from trigspec import _series
from trigspec import _cache, _kernels
from trigspec.sampling import DiscreteSpectrum, SampleVector
from trigspec.spline_kernel import response_table_to_csv

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
        plus = _series._ratio_tail(s, k, L * N + k, N)
        minus = _series._ratio_tail(s, k, (L + 1) * N - k, N)
        total += w * alpha * (plus + minus)
    return total


def loop_one_plus_rho(k, config):
    # The class sum over the in-band raw gain as one formula per class: one
    # plus both fold branches in ratio form. In the signed family the first
    # fold term of the plus branch (m = 1) is negative and that of the
    # minus branch positive.
    s = config.power
    N = config.grid.N
    plus, minus = _series._ratio_tail(s, k, np.array([N + k, N - k]), N, config.signed)
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
                tails = sgn0 * _series._ratio_tail(s, k, j0, PN, alternating=(P % 2 == 1))
            else:
                tails = _series._ratio_tail(s, k, j0, PN)
            np.add.at(W, np.mod(j0, G), cfac * tails)
    return W


def folded_values(W, a0):
    # Values at t_g = 2 pi g/G of a0/2 + sum_j (a_j cos(jt) + b_j sin(jt))
    # from its residue-folded coefficients W[rho] = sum_{j = rho mod G} (a_j - i b_j).
    return len(W) * np.real(np.fft.ifft(W)) + 0.5 * a0


def loop_dft(values):
    # One coefficient at a time, with the phase k j reduced mod N in
    # integers and cos/sin of 2 pi m/N built from the nearest quarter turn.
    N = values.shape[0]
    n = (N - 1) // 2
    j = np.arange(N)
    q = (8 * j + N) // (2 * N)
    x = 0.5 * np.pi * (4 * j - q * N) / N
    c, s = np.cos(x), np.sin(x)
    cos = np.choose(q % 4, (c, -s, -c, s))
    sin = np.choose(q % 4, (s, c, -s, -c))
    scale = 2.0 / N
    a = np.empty(n)
    b = np.empty(n)
    for k in range(1, n + 1):
        m = k * j % N
        a[k - 1] = scale * np.sum(values * cos[m])
        b[k - 1] = scale * np.sum(values * sin[m])
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
    # "one": G = 1; "divisor": G = N, one angle for every node; "coprime":
    # G < 300 angles of one point each; "big": more than 4096 angles.
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
def test_uniform_grid_values_match_hurwitz_fold(data):
    n = data.draw(st.integers(min_value=1, max_value=64))
    order = data.draw(st.sampled_from([1, 2, 3, 5, 10, 40, 100, 150, 200]))
    config = KernelConfig(grid=make_grid(n), order=order, variant=data.draw(st.sampled_from(VARIANTS)))
    spectrum = data.draw(spectra(config.grid))
    spline = build_from(spectrum, config)
    kind = data.draw(st.sampled_from(["one", "divisor", "coprime", "big"]))
    G = _grid_size(kind, config.grid.N, np.random.default_rng(data.draw(st.integers(0, 2**16))))
    got = trig_spline.values_on_uniform_grid(spline, G)
    want = folded_values(loop_folded_spectrum(spline, G), spline.a0)
    size = 0.5 * abs(spectrum.a0) + float(np.sum(np.hypot(spectrum.a, spectrum.b)))
    assert np.max(np.abs(got - want)) <= 1e-14 * size


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_both_contraction_orders_match_hurwitz_fold(data):
    # The sum over residues runs through the cell table (R + 1 FFTs), R the
    # number of expansion columns the engine sums (r + 1 for a polynomial
    # spline), for any number P of distinct angles; P sits just below, at
    # and just above R + 1, for grids and for scattered points alike.
    n = data.draw(st.integers(min_value=1, max_value=64))
    order = data.draw(st.integers(min_value=1, max_value=200))
    config = KernelConfig(grid=make_grid(n), order=order, variant=data.draw(st.sampled_from(VARIANTS)))
    spectrum = data.draw(spectra(config.grid))
    spline = build_from(spectrum, config)
    N = config.grid.N
    even, odd, _ = _series.lerch_coefficients(config.power, N)
    R = config.power if config.power % 2 == 0 or config.signed else even.shape[1] + odd.shape[1]
    P = R + 1 + data.draw(st.sampled_from([-1, 0, 1]))
    # G = P d with d a divisor of N and N/d prime to P, so G/gcd(N, G) = P.
    d = data.draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    if math.gcd(N // d, P) != 1:
        d = N
    G = P * d
    g = np.random.default_rng(data.draw(st.integers(0, 2**16))).choice(G, P, replace=False)
    on_grid = trig_spline.values_on_uniform_grid(spline, G)
    scattered = trig_spline.spline_eval(spline, 2.0 * np.pi * g / G)
    want = folded_values(loop_folded_spectrum(spline, G), spline.a0)
    size = 0.5 * abs(spectrum.a0) + float(np.sum(np.hypot(spectrum.a, spectrum.b)))
    assert np.max(np.abs(on_grid - want)) <= 1e-14 * size
    # t = 2 pi g/G is rounded, which moves a value by up to about n^2 eps size.
    bound = trig_spline.scattered_eval_bound(spline)
    assert np.max(np.abs(scattered - on_grid[g])) <= bound + 1e-13 * max(1.0, size)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polynomial_splines_need_no_columns_above_r(data):
    # The engine keeps expansion columns 0..r where s is even or the family
    # is signed. With every column kept, the cell table's columns above r
    # read rounding there and only there: in the other families at
    # order <= 10 some column above r stands above it.
    n = data.draw(st.integers(min_value=1, max_value=64))
    order = data.draw(st.one_of(st.integers(min_value=1, max_value=10),
                                st.integers(min_value=11, max_value=200)))
    config = KernelConfig(grid=make_grid(n), order=order, variant=data.draw(st.sampled_from(VARIANTS)))
    spectrum = data.draw(spectra(config.grid))
    N = config.grid.N
    table = class_table(config)
    coeff = spectrum.a - 1j * spectrum.b
    w = np.concatenate((table.gains * coeff, (table.mirror_gains * np.conj(coeff))[::-1]))
    if config.signed:
        w *= np.exp(-1j * np.pi * np.arange(1, N) / N)
    even, odd, _ = _series.lerch_coefficients(config.power, N)
    R = even.shape[1] + odd.shape[1]
    Z = np.zeros((R, N), dtype=complex)
    Z[0::2, 1:] = even[:-1].T * w
    Z[1::2, 1:] = odd[:-1].T * (1j * w)
    above = np.abs(np.fft.ifft(Z, norm="forward").real[order + 1:])
    limit = 4 * np.finfo(float).eps * np.sum(np.abs(w))
    if config.power % 2 == 0 or config.signed:
        assert np.all(above <= limit)
    elif order <= 10 and np.any(w != 0):
        assert np.any(above > limit)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=1024), st.integers(min_value=0, max_value=2**32 - 1))
def test_dft_matches_per_coefficient_loop(n, seed):
    values = np.random.default_rng(seed).standard_normal(2 * n + 1)
    a0, a, b = _kernels.dft(values)
    la0, la, lb = loop_dft(values)
    assert a0 == la0
    assert np.array_equal(a, la)
    assert np.array_equal(b, lb)


def _assert_dft_matches_loop(n):
    values = np.random.default_rng(n).standard_normal(2 * n + 1)
    got = _kernels.dft(values)
    want = loop_dft(values)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_dft_rows_over_the_cell_budget_match_the_loop(cache_patch):
    # With a budget of 64 cells every grid below has rows of N > 64 cells,
    # one to a block: read as views of the stored stacked (2n+1, N) matrix
    # and, with the store's budget at 0, gathered from one table per call.
    # The stored entry does not depend on the block size, so it gives the
    # same bits after the cell budget is restored.
    cache_patch.setattr(_kernels, "_DFT_CELLS", 64)
    for n in (16, 40, 100):
        _assert_dft_matches_loop(n)
    stored = sorted(key for build, key in _cache._entries if build is _kernels._dft_matrix)
    assert stored == [(33,), (81,), (201,)]
    cache_patch.setattr(_cache, "_BUDGET", 0)
    for n in (16, 40, 100):
        _assert_dft_matches_loop(n)
    cache_patch.undo()
    _assert_dft_matches_loop(16)
    assert len(_cache._entries) == 3


def test_folded_values_match_direct_evaluation():
    # The oracle itself: a short series folded onto a coarser grid.
    rng = np.random.default_rng(5)
    J, G = 40, 16
    a = rng.standard_normal(J)
    b = rng.standard_normal(J)
    W = np.zeros(G, dtype=complex)
    np.add.at(W, np.arange(1, J + 1) % G, a - 1j * b)
    t = 2 * np.pi * np.arange(G) / G
    j = np.arange(1, J + 1)
    direct = 0.3 + np.cos(np.outer(t, j)) @ a + np.sin(np.outer(t, j)) @ b
    assert np.allclose(folded_values(W, 0.6), direct, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("r", [1, 4])
def test_class_table_holds_the_scalar_values(variant, r):
    config = KernelConfig(grid=make_grid(9), order=r, variant=variant, tail_tol=1e-9)
    ct = class_table(config)
    table = filter_response(config, 30)
    raw = raw_gain(np.arange(1, 10), config)
    for k in range(1, 10):
        assert ct.gains[k - 1] == gain(k, config)
        assert ct.norms[k - 1] == loop_one_plus_rho(k, config)
        assert raw[k - 1] == raw_gain(k, config)
        assert table.class_sums[k - 1] == loop_class_sum(k, config)
    # Sinc gains vanish at multiples of N, so their normalizer is 1;
    # inverse powers add to the constant class. The response CSV's H cell
    # at j = N holds it, and 17 digits give back its bits.
    N = config.grid.N
    dc_sum = float(response_table_to_csv(table).splitlines()[N].split(",")[3])
    assert (dc_sum == 1.0) == (variant is not FilterVariant.INVERSE_POWER)
    assert gain(N, config) == raw_gain(N, config) / dc_sum
    assert np.array_equal(table.class_sums, raw * ct.norms)
    for arr in (table.class_sums, ct.gains, ct.norms):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_class_table_sums_match_per_class_formula(variant):
    # The class table's one array pass, times the raw gains, against the
    # scalar formula, class by class.
    for order in [*range(1, 13), 40, 100, 150]:
        for n in range(1, 65):
            config = KernelConfig(grid=make_grid(n), order=order, variant=variant)
            raw = raw_gain(np.arange(1, n + 1), config)
            want = [raw[k - 1] * loop_one_plus_rho(k, config) for k in range(1, n + 1)]
            assert np.array_equal(filter_response(config, n).class_sums, want), (n, order)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=3, max_value=101).filter(lambda N: N % 2 == 1),
    st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=6),
)
def test_progression_tail_arrays_match_scalar_calls(s, N, m_starts):
    offsets = np.arange(-(N // 2), N // 2 + 1, dtype=float)[:, None]
    m = np.asarray(m_starts)[None, :]
    got = _series.progression_tail(s, N, offsets, m_start=m)
    assert got.shape == (offsets.size, m.size)
    for i, off in enumerate(offsets[:, 0]):
        for j, ms in enumerate(m_starts):
            assert got[i, j] == _series.progression_tail(s, N, float(off), m_start=ms)


def test_progression_tail_array_validation():
    with pytest.raises(ValueError):
        _series.progression_tail(3, 5, np.array([1.0, 2.0]), m_start=np.array([1, 0]))
    with pytest.raises(ValueError):
        _series.progression_tail(3, 5, np.array([1.0, -6.0]), m_start=1)
