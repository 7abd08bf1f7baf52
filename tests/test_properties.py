"""Property sweeps of the paper's identities over (n, r, variant, signal).

Signals are seeded harmonic sums of up to 3N terms at indices 0..3N, so
most draws put energy beyond the band and exercise the aliasing fold.
The identities are interpolation, partition of unity, the fold identity
and the agreement of grid and scattered evaluation. Each holds in exact
arithmetic; the tolerances leave rounding room of a few hundred ulps
relative to the data's scale.
"""

import math

import numpy as np
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
from trigspec.spline_kernel import class_partition_terms
from trigspec.trig_spline import scattered_eval_bound


@st.composite
def configs(draw):
    grid = make_grid(draw(st.integers(min_value=1, max_value=24)))
    order = draw(st.integers(min_value=1, max_value=40))
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
    config = data.draw(configs())
    grid = config.grid
    samples = sample(data.draw(harmonic_sums(grid)), grid)
    spline = build_spline(samples, config)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(samples.values))))
    assert np.max(np.abs(values_on_uniform_grid(spline, grid.N) - samples.values)) <= tol
    assert np.max(np.abs(spline_eval(spline, grid.nodes) - samples.values)) <= tol


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scattered_eval_agrees_with_grid_values(data):
    config = data.draw(configs())
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
