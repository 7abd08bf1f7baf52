"""Grids, direct discrete coefficients, and the index-folding rules."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import (
    DiscreteSpectrum,
    FilterVariant,
    KernelConfig,
    build_spline,
    discrete_coeffs,
    extended_coefficient,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    sample,
)
from trigspec import _kernels
from trigspec._series import alias_fold
from trigspec.sampling import SampleVector, spectrum_to_csv


def python_dft_oracle(values):
    """Independent O(N^2) evaluation of the coefficient formulas (pure python)."""
    N = len(values)
    n = (N - 1) // 2
    a0 = 2.0 / N * sum(values)
    a = []
    b = []
    for k in range(1, n + 1):
        sa = sb = 0.0
        for j in range(N):
            tj = 2.0 * math.pi * j / N
            sa += values[j] * math.cos(k * tj)
            sb += values[j] * math.sin(k * tj)
        a.append(2.0 / N * sa)
        b.append(2.0 / N * sb)
    return a0, a, b


# -- grids --------------------------------------------------------------------


def test_grid_n1():
    g = make_grid(1)
    assert g.N == 3
    assert np.allclose(g.nodes, [0, 2 * np.pi / 3, 4 * np.pi / 3])


def test_grid_n2_third_node():
    assert make_grid(2).nodes[2] == pytest.approx(4 * np.pi / 5)


def test_grid_n16_last_node():
    g = make_grid(16)
    assert g.N == 33
    assert g.nodes[32] == pytest.approx(2 * np.pi * 32 / 33)


def test_grid_spacing_and_start():
    g = make_grid(7)
    assert g.nodes[0] == 0.0
    assert np.allclose(np.diff(g.nodes), 2 * np.pi / g.N)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_rejects_bad_n():
    with pytest.raises(ValueError):
        make_grid(0)


# -- sampling ------------------------------------------------------------------


def test_sample_constant_signal():
    sig = harmonic_sum([(0, 2.0, 0.0)])
    sv = sample(sig, make_grid(1))
    assert np.allclose(sv.values, 1.0)


def test_sample_cosine():
    sv = sample(harmonic_sum([(1, 1.0, 0.0)]), make_grid(2))
    assert np.allclose(sv.values, np.cos(sv.grid.nodes), atol=1e-15)


def test_sample_power_decay_matches_partial_sum():
    grid = make_grid(5)
    sv = sample(power_decay_cosine(4), grid)
    k = np.arange(1.0, 200_000.0)
    direct = np.array([np.sum(np.cos(k * t) / k**4) for t in grid.nodes])
    assert np.max(np.abs(sv.values - direct)) < 1e-13


def test_sample_accepts_black_box_callable():
    grid = make_grid(4)
    sv = sample(lambda t: np.cos(t) + 0.5, grid)
    assert np.allclose(sv.values, np.cos(grid.nodes) + 0.5)
    spec = discrete_coeffs(sv)
    assert spec.a[0] == pytest.approx(1.0, abs=1e-14)
    assert spec.a0 == pytest.approx(1.0, abs=1e-14)


def test_sample_reads_analytic_signals_on_their_grid(suite):
    # An analytic signal's nodes come from grid_values at G = N: exact
    # phases for a harmonic sum, the evaluate bits for a power signal; a
    # black box is still called on the nodes themselves.
    grid = make_grid(8)
    for sig in suite.values():
        assert np.array_equal(sample(sig, grid).values, sig.grid_values(grid.N))
    nodes = []
    sample(lambda t: nodes.append(t) or np.cos(t), grid)
    assert len(nodes) == 1 and nodes[0] is grid.nodes


def test_sample_calls_a_scalar_only_callable_node_by_node():
    # math.sin cannot take the node array: its TypeError sends sample to
    # one call per node.
    grid = make_grid(3)
    sv = sample(lambda t: math.sin(t), grid)
    assert np.array_equal(sv.values, [math.sin(t) for t in grid.nodes])


def test_sample_raises_again_for_a_broken_callable():
    # A callable that fails on the array and on a node raises at its first node.
    calls = []

    def broken(t):
        calls.append(t)
        raise TypeError("broken signal")

    with pytest.raises(TypeError, match="broken signal"):
        sample(broken, make_grid(3))
    assert len(calls) == 2


def test_sample_vector_validation():
    grid = make_grid(2)
    with pytest.raises(ValueError):
        SampleVector(grid, [1.0, 2.0])
    with pytest.raises(ValueError):
        SampleVector(grid, [1.0, 2.0, float("nan"), 0.0, 0.0])


# -- discrete coefficients -----------------------------------------------------


def test_dft_constant():
    spec = discrete_coeffs(sample(harmonic_sum([(0, 2.0, 0.0)]), make_grid(2)))
    assert spec.a0 == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(spec.a, 0.0, atol=1e-15)
    assert np.allclose(spec.b, 0.0, atol=1e-15)


def test_dft_pure_cosine_in_band():
    spec = discrete_coeffs(sample(harmonic_sum([(1, 1.0, 0.0)]), make_grid(2)))
    assert spec.a[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(spec.a0) < 1e-14
    assert abs(spec.a[1]) < 1e-14
    assert np.max(np.abs(spec.b)) < 1e-14


def test_dft_out_of_band_harmonic_folds_onto_band():
    # cos((N+1) t) agrees with cos(t) at every node of the N = 5 grid.
    spec = discrete_coeffs(sample(harmonic_sum([(6, 1.0, 0.0)]), make_grid(2)))
    assert spec.a[0] == pytest.approx(1.0, abs=1e-13)


def test_dft_agrees_with_python_oracle(rng):
    for n in (1, 2, 3, 4):
        values = rng.standard_normal(2 * n + 1)
        spec = discrete_coeffs(SampleVector(make_grid(n), values))
        a0, a, b = python_dft_oracle(list(values))
        assert abs(spec.a0 - a0) < 1e-13
        assert np.allclose(spec.a, a, atol=1e-13)
        assert np.allclose(spec.b, b, atol=1e-13)


def test_interpolating_polynomial_is_the_discrete_spectrum():
    # The discrete spectrum, called at t, is the band-limited interpolant.
    samples = sample(power_decay_cosine(4), make_grid(8))
    poly = discrete_coeffs(samples)
    assert isinstance(poly, DiscreteSpectrum)
    assert np.max(np.abs(poly(samples.grid.nodes) - samples.values)) < 1e-12
    assert type(poly(1.0)) is float
    assert poly(1.0 + 2.0 * np.pi) == pytest.approx(poly(1.0), abs=1e-14)


@pytest.mark.parametrize("G", [17, 64, 1000])
def test_spectrum_on_a_uniform_grid_is_its_synthesis(G):
    # Angle reduction leaves t = 2 pi g/G in [0, 2 pi) as it is, so the
    # spectrum called on the grid is its series, a0/2 first and then k = 1..n
    # in order, at those angles, bit for bit.
    poly = discrete_coeffs(sample(power_decay_cosine(4), make_grid(8)))
    t = 2.0 * np.pi * np.arange(G) / G
    a = np.concatenate(([0.5 * poly.a0], poly.a))
    b = np.concatenate(([0.0], poly.b))
    assert np.array_equal(poly(t), _kernels.point_series(np.arange(9), a, b, t))


def test_discrete_spectrum_rejects_non_finite_points():
    # inf used to reach np.mod, which warns and returns NaN; NaN passed through.
    poly = discrete_coeffs(sample(power_decay_cosine(4), make_grid(8)))
    for t in (np.nan, np.inf, -np.inf, np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            poly(t)


def test_reconstruction_at_nodes(rng):
    for n in (2, 8, 64):
        grid = make_grid(n)
        values = rng.standard_normal(grid.N)
        spec = discrete_coeffs(SampleVector(grid, values))
        assert np.max(np.abs(spec(grid.nodes) - values)) < 1e-10


# -- alias classes ---------------------------------------------------------------


def alias_class_oracle(j, N):
    """Alias class k and sine sign of one index, from the definition in Python integers."""
    res = j % N
    return min(res, N - res), (-1.0 if res > N // 2 else 1.0)


def test_alias_class_examples():
    N = 5
    assert alias_fold(N + 1, N) == (1, 1.0)
    assert alias_fold(N - 1, N) == (1, -1.0)
    assert alias_fold(3 * N, N)[0] == 0


def test_alias_class_validation():
    # An index without an alias class (below 1, or not an integer) is refused.
    spec = DiscreteSpectrum(make_grid(2), 0.0, [1.0, 0.0], [0.5, 0.0])
    for j in (0, -1, 1.5):
        with pytest.raises(ValueError, match="integer >= 1"):
            extended_coefficient(spec, j)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=40))
def test_alias_class_properties(j, n):
    N = 2 * n + 1
    k, sin_sign = alias_fold(j, N)
    assert 0 <= k <= n
    # Definition check: k is the distance to the nearest multiple of N.
    assert k == min(j % N, N - (j % N))
    assert (sin_sign == -1.0) == (j % N > n)
    # Folding is what the node values do: cosines coincide, sines pick up the sign.
    t = 2 * np.pi * np.arange(N) / N
    assert np.allclose(np.cos(j * t), np.cos(k * t), atol=1e-9)
    assert np.allclose(np.sin(j * t), sin_sign * np.sin(k * t), atol=1e-9)


@pytest.mark.parametrize("N", [3, 5, 17, 129])
def test_alias_fold_agrees_with_alias_class(N):
    js = np.arange(5 * N + 1)
    k, sin_sign = alias_fold(js, N)
    want = [alias_class_oracle(j, N) for j in js.tolist()]
    assert k.tolist() == [c[0] for c in want]
    assert sin_sign.tolist() == [c[1] for c in want]


# -- extended coefficients -------------------------------------------------------


@pytest.fixture
def toy_spectrum():
    grid = make_grid(2)
    return DiscreteSpectrum(grid, 0.0, [1.0, 0.0], [0.5, 0.0])


def test_extension_examples(toy_spectrum):
    N = toy_spectrum.grid.N
    assert extended_coefficient(toy_spectrum, N + 1) == (1.0, 0.5)
    assert extended_coefficient(toy_spectrum, N - 1) == (1.0, -0.5)
    assert extended_coefficient(toy_spectrum, 2 * N + 1) == (1.0, 0.5)


def test_extension_dc_class(toy_spectrum):
    grid = toy_spectrum.grid
    spec = DiscreteSpectrum(grid, 1.5, [1.0, 0.0], [0.5, 0.0])
    assert extended_coefficient(spec, grid.N) == (1.5, 0.0)


def test_extension_symmetries(rng):
    grid = make_grid(6)
    spec = DiscreteSpectrum(
        grid, rng.standard_normal(), rng.standard_normal(6), rng.standard_normal(6)
    )
    N = grid.N
    # Step N reproduces both components (the sign rule depends on j mod N);
    # reflection about a multiple of N flips the sine part only.
    for j in range(1, 4 * N + 1):
        assert extended_coefficient(spec, j) == extended_coefficient(spec, j + N)
    for j in range(1, N):
        a_j, b_j = extended_coefficient(spec, j)
        a_ref, b_ref = extended_coefficient(spec, N - j)
        assert a_j == a_ref
        assert b_j == -b_ref
        a_hi, b_hi = extended_coefficient(spec, 3 * N - j)
        assert (a_hi, b_hi) == (a_j, -b_j)


def test_extension_on_arrays_equals_single_indices(rng):
    grid = make_grid(6)
    spec = DiscreteSpectrum(
        grid, rng.standard_normal(), rng.standard_normal(6), rng.standard_normal(6)
    )
    js = np.arange(1, 5 * grid.N + 1)
    ea, eb = extended_coefficient(spec, js)
    assert ea.shape == eb.shape == js.shape
    for j, a, b in zip(js.tolist(), ea, eb):
        pair = extended_coefficient(spec, j)
        assert all(type(x) is float for x in pair)
        assert pair == (a, b)
        # Bit for bit, signed zeros included.
        assert np.signbit(pair[1]) == np.signbit(b)
    grid_2d = js.reshape(5, grid.N)
    assert np.array_equal(extended_coefficient(spec, grid_2d)[1], eb.reshape(5, grid.N))


@pytest.mark.parametrize("js", [[1, 0, 3], [2, -4], [1.0, 2.5], [[3, 0]]])
def test_extension_refuses_bad_indices_in_an_array(toy_spectrum, js):
    with pytest.raises(ValueError, match="integer >= 1"):
        extended_coefficient(toy_spectrum, np.array(js))


# -- CSV ---------------------------------------------------------------------------


def test_spectrum_csv_round_trip():
    # The written text reads back to the same floats: 17 significant digits.
    spec = discrete_coeffs(sample(power_decay_cosine(4), make_grid(3)))
    rows = list(csv.reader(io.StringIO(spectrum_to_csv(spec))))
    assert rows[0] == ["k", "a", "b"]
    k, a, b = np.array(rows[1:], dtype=float).T
    assert k.tolist() == [0, 1, 2, 3]
    assert a[0] == spec.a0 and b[0] == 0.0
    assert np.array_equal(a[1:], spec.a)
    assert np.array_equal(b[1:], spec.b)


# -- one DFT per sample vector ---------------------------------------------------


def _spectrum_bits(spec):
    return [np.float64(spec.a0).tobytes(), spec.a.tobytes(), spec.b.tobytes()]


def _config(grid, order):
    return KernelConfig(grid=grid, order=order, variant=FilterVariant.from_string("abs-sinc"))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), order=st.integers(1, 4),
       spectrum_first=st.booleans())
def test_a_sample_vector_keeps_one_spectrum(n, seed, order, spectrum_first):
    # The spline takes the spectrum its vector keeps, whichever call comes
    # first, and that spectrum has the bits of a fresh vector's.
    values = np.random.default_rng(seed).standard_normal(2 * n + 1)
    samples = SampleVector(make_grid(n), values)
    if spectrum_first:
        spec = discrete_coeffs(samples)
        spline = build_spline(samples, _config(samples.grid, order))
    else:
        spline = build_spline(samples, _config(samples.grid, order))
        spec = discrete_coeffs(samples)
    assert spec is spline.spectrum and discrete_coeffs(samples) is spec
    assert _spectrum_bits(spec) == _spectrum_bits(discrete_coeffs(SampleVector(samples.grid, values)))


def test_the_dft_runs_once_per_sample_vector():
    grid = make_grid(8)
    vectors = [SampleVector(grid, np.random.default_rng(i).standard_normal(grid.N)) for i in range(3)]
    with mock.patch.object(_kernels, "dft", wraps=_kernels.dft) as dft:
        for v in vectors:
            for order in (1, 3):
                discrete_coeffs(v)
                build_spline(v, _config(grid, order))
    assert dft.call_count == len(vectors)


def test_changing_the_callers_array_leaves_the_kept_spectrum():
    # The vector holds a copy of the caller's values, so writing to the
    # caller's array, before or after the first call, moves no bit.
    grid = make_grid(8)
    values = np.random.default_rng(5).standard_normal(grid.N)
    want = _spectrum_bits(discrete_coeffs(SampleVector(grid, values.copy())))
    samples = SampleVector(grid, values)
    values[:] = 0.0
    spec = discrete_coeffs(samples)
    values[:] = 1.0
    assert discrete_coeffs(samples) is spec
    assert _spectrum_bits(spec) == want
