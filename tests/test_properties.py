"""Property sweeps of the paper's identities over (n, r, variant, signal).

Signals are seeded harmonic sums of up to 3N terms at indices 0..3N, so
most draws put energy beyond the band and exercise the aliasing fold.
The identities are interpolation, partition of unity, the fold identity
and the agreement of grid and scattered evaluation. Each holds in exact
arithmetic; the tolerances leave rounding room of a few hundred ulps
relative to the data's scale. Interpolation and the grid agreement are
swept to n = 64 and order 200, where no configuration may be refused.
One property holds bit for bit: a value is a fixed function of its point,
so a point evaluated alone gives the bits it gives inside any array, for
splines, for every kind of signal, for the discrete spectrum and for the
overlay's band, constant-class and remainder parts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import (
    FilterVariant,
    KernelConfig,
    build_spline,
    discrete_coeffs,
    folded_coefficients,
    harmonic_sum,
    make_grid,
    sample,
    spline_eval,
    values_on_uniform_grid,
)
from trigspec.alias_analysis import band_component, dc_class_component, residual_component
from trigspec.signal_model import derivative_values, power_decay_cosine, power_decay_sine
from trigspec.spline_kernel import class_partition_terms
from trigspec.trig_spline import scattered_eval_bound

from spline_checks import assert_spline_values_hold, long_harmonic_sum


@st.composite
def configs(draw, max_n=24, max_order=40):
    grid = make_grid(draw(st.integers(min_value=1, max_value=max_n)))
    order = draw(st.integers(min_value=1, max_value=max_order))
    variant = draw(st.sampled_from(list(FilterVariant)))
    return KernelConfig(grid=grid, order=order, variant=variant)


@st.composite
def harmonic_sums(draw, grid):
    """A seeded sum of 1..3N distinct harmonics at indices 0..3N."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = 3 * grid.N
    ks = rng.choice(top + 1, size=int(rng.integers(1, top + 1)), replace=False)
    ab = rng.standard_normal((ks.size, 2))
    return harmonic_sum(
        (int(k), a, b if k else 0.0) for k, (a, b) in zip(ks, ab)
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spline_interpolates_its_samples(data):
    config = data.draw(configs(max_n=64, max_order=200))
    grid = config.grid
    samples = sample(data.draw(harmonic_sums(grid)), grid)
    spline = build_spline(samples, config)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(samples.values))))
    assert np.max(np.abs(values_on_uniform_grid(spline, grid.N) - samples.values)) <= tol
    assert np.max(np.abs(spline_eval(spline, grid.nodes) - samples.values)) <= tol


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scattered_eval_agrees_with_grid_values(data):
    config = data.draw(configs(max_n=64, max_order=200))
    grid = config.grid
    N = grid.N
    samples = sample(data.draw(harmonic_sums(grid)), grid)
    spline = build_spline(samples, config)
    # Grid sizes coprime to N or not: any size up to 4N, a multiple of N, N + 1.
    G = data.draw(st.one_of(
        st.integers(min_value=1, max_value=4 * N),
        st.integers(min_value=1, max_value=4).map(lambda m: m * N),
        st.just(N + 1),
    ))
    want = values_on_uniform_grid(spline, G)
    got = spline_eval(spline, 2.0 * np.pi * np.arange(G) / G)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(samples.values)))) + scattered_eval_bound(spline)
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("variant", list(FilterVariant))
@pytest.mark.parametrize("order", range(132, 201, 4))
def test_long_harmonic_sum_at_high_orders(order, variant):
    # The seeded 130-term sum at n = 64, where N^-s and (2N)^-s are
    # subnormal or zero: class sums formed from them would lose their fold
    # tails and the nodes would miss by up to 0.47.
    config = KernelConfig(grid=make_grid(64), order=order, variant=variant)
    samples = sample(long_harmonic_sum(), config.grid)
    assert_spline_values_hold(build_spline(samples, config), samples)


@settings(max_examples=30, deadline=None)
@given(configs())
def test_class_gains_partition_unity(config):
    for k in range(1, config.grid.n + 1):
        for m_terms in (1, 8, 64):
            partial, remainder = class_partition_terms(k, config, m_terms)
            assert abs(partial + remainder - 1.0) <= 1e-13, (k, m_terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fold_identity(data):
    grid = make_grid(data.draw(st.integers(min_value=1, max_value=24)))
    signal = data.draw(harmonic_sums(grid))
    spec = discrete_coeffs(sample(signal, grid))
    tol = 1e-12 * sum(math.hypot(a, b) for _, a, b in signal.terms)
    for k in range(grid.n + 1):
        rep = folded_coefficients(signal, grid, k)
        dft_a = spec.a0 if k == 0 else spec.a[k - 1]
        dft_b = 0.0 if k == 0 else spec.b[k - 1]
        assert abs(rep.folded_a - dft_a) <= tol, k
        assert abs(rep.folded_b - dft_b) <= tol, k


# -- a point alone and inside an array ----------------------------------------


@st.composite
def points(draw, N):
    """Seeded scattered points with nodes, cell midpoints, 0 and +-pi among them."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(min_value=1, max_value=24))
    t = rng.uniform(-20.0, 20.0, count)
    marks = 2.0 * np.pi * rng.integers(-2 * N, 2 * N, count) / (2 * N)
    special = np.array([0.0, np.pi, -np.pi, 2.0 * np.pi])
    return rng.permutation(np.concatenate((t, marks, special)))


def assert_each_point_alone_has_its_bits(values_at, t):
    inside = np.asarray(values_at(t))
    for i, x in enumerate(t):
        alone = np.asarray(values_at(x))
        assert alone.shape == () and alone.tobytes() == inside[i].tobytes(), x
    # And inside another array: the points reversed, as a 2-D block.
    block = np.asarray(values_at(t[::-1].reshape(1, -1)))
    assert block.tobytes() == inside[::-1].reshape(1, -1).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spline_values_do_not_depend_on_their_call(data):
    config = data.draw(configs(max_n=64, max_order=200))
    grid = config.grid
    spline = build_spline(sample(data.draw(harmonic_sums(grid)), grid), config)
    assert_each_point_alone_has_its_bits(lambda t: spline_eval(spline, t),
                                         data.draw(points(grid.N)))


# Integer p with and without a Bernoulli closed form (it needs p - order
# even for the cosine's even derivatives), non-integer p, and orders next to
# an integer, where the polylogarithm's pole pair is summed in closed form.
POWERS = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 2.5, 3.3, 4.75, 3.0 + 1e-9, 4.0 - 1e-9]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signal_values_do_not_depend_on_their_call(data):
    kind = data.draw(st.sampled_from(["harmonic", "cos", "sin"]))
    if kind == "harmonic":
        signal = data.draw(harmonic_sums(make_grid(data.draw(st.integers(1, 16)))))
        order = data.draw(st.integers(min_value=0, max_value=3))
    else:
        p = data.draw(st.sampled_from(POWERS))
        maker = power_decay_cosine if kind == "cos" else power_decay_sine
        signal = maker(p, r=0, variation=1.0)
        order = data.draw(st.sampled_from([q for q in range(4) if p - q > 1]))
    t = data.draw(points(17))
    assert_each_point_alone_has_its_bits(lambda x: derivative_values(signal, order, x), t)
    if order == 0:
        assert_each_point_alone_has_its_bits(signal, t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spectra_and_overlay_parts_do_not_depend_on_their_call(data):
    # The interpolating polynomial and the time-domain split are finite
    # series at scattered points (the power families' constant-class tail
    # is the signal at a scaled angle); each used to contract its terms by
    # BLAS, whose order depends on the number of points.
    grid = make_grid(data.draw(st.integers(min_value=1, max_value=256)))
    kind = data.draw(st.sampled_from(["harmonic", "cos", "sin"]))
    if kind == "harmonic":
        signal = data.draw(harmonic_sums(grid))
    else:
        maker = power_decay_cosine if kind == "cos" else power_decay_sine
        signal = maker(data.draw(st.sampled_from(POWERS)), r=0, variation=1.0)
    t = data.draw(points(grid.N))
    spectrum = discrete_coeffs(sample(signal, grid))
    for values_at in (spectrum,
                      lambda x: band_component(signal, grid.n, x),
                      lambda x: dc_class_component(signal, grid, x),
                      lambda x: residual_component(signal, grid, x)):
        assert_each_point_alone_has_its_bits(values_at, t)
