"""Fold sums, their bounds, and the time-domain split of a sampled signal."""

from fractions import Fraction

import numpy as np
import pytest

from trigspec import (
    SmoothnessInfo,
    aliasing_error_bound,
    band_component,
    dc_class_component,
    discrete_coeffs,
    evaluate,
    folded_coefficients,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    residual_component,
    sample,
    time_domain_overlay_bound,
    true_coefficient,
)
from trigspec.alias_analysis import fold_report_table, fold_table_to_csv
from trigspec.errors import UnsupportedSignalError


def brute_fold_sum(p, N, k, m_max=1_000_000):
    """Oracle: directly summed fold series for a k^-p coefficient family."""
    m = np.arange(1.0, m_max + 1.0)
    return float(np.sum((m * N + k) ** -p + (m * N - k) ** -p))


# -- fold sums ----------------------------------------------------------------


def assert_float_fields(rep):
    assert type(rep.folded_a) is float and type(rep.folded_b) is float, rep


def test_fold_in_band_harmonic_is_exact():
    grid = make_grid(2)
    rep = folded_coefficients(harmonic_sum([(1, 1.0, 0.0)]), grid, 1)
    assert_float_fields(rep)
    assert rep.folded_a == 1.0
    assert rep.folded_b == 0.0


def test_fold_single_out_of_band_harmonic():
    grid = make_grid(2)  # N = 5
    rep = folded_coefficients(harmonic_sum([(6, 1.0, 0.0)]), grid, 1)
    assert rep.folded_a == 1.0


def test_fold_identity_power_cosine():
    grid = make_grid(2)
    sig = power_decay_cosine(4)
    spec = discrete_coeffs(sample(sig, grid))
    rep = folded_coefficients(sig, grid, 1)
    assert abs(rep.folded_a - spec.a[0]) < 1e-10
    rep0 = folded_coefficients(sig, grid, 0)
    assert abs(rep0.folded_a - spec.a0) < 1e-10


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_fold_identity_all_classes(p, n):
    grid = make_grid(n)
    sig = power_decay_cosine(p)
    spec = discrete_coeffs(sample(sig, grid))
    for k in range(0, n + 1):
        rep = folded_coefficients(sig, grid, k, tol=1e-12)
        assert_float_fields(rep)
        dft_a = spec.a0 if k == 0 else spec.a[k - 1]
        dft_b = 0.0 if k == 0 else spec.b[k - 1]
        assert abs(rep.folded_a - dft_a) < 1e-10, (p, n, k)
        assert abs(rep.folded_b - dft_b) < 1e-10, (p, n, k)


def test_fold_identity_power_sine():
    grid = make_grid(8)
    sig = power_decay_sine(3)
    spec = discrete_coeffs(sample(sig, grid))
    for k in (1, 4, 8):
        rep = folded_coefficients(sig, grid, k)
        assert_float_fields(rep)
        assert abs(rep.folded_b - spec.b[k - 1]) < 1e-10
        assert abs(rep.folded_a) < 1e-15


def test_fold_identity_every_suite_signal(suite):
    for name, sig in suite.items():
        for n in (2, 8, 16):
            grid = make_grid(n)
            spec = discrete_coeffs(sample(sig, grid))
            for k in range(0, n + 1):
                rep = folded_coefficients(sig, grid, k)
                assert_float_fields(rep)
                dft_a = spec.a0 if k == 0 else spec.a[k - 1]
                dft_b = 0.0 if k == 0 else spec.b[k - 1]
                assert abs(rep.folded_a - dft_a) < 1e-10 + 1e-12, (name, n, k)
                assert abs(rep.folded_b - dft_b) < 1e-10 + 1e-12, (name, n, k)


def exact_fold(signal, N, k):
    """Fold sums of a harmonic sum's class k in exact rational arithmetic."""
    fa = fb = Fraction(0)
    for j, a, b in signal.terms:
        if j % N == k:                 # j = mN + k, a_0 and the mN included
            fa += Fraction(a) * (2 if k == 0 and j > 0 else 1)
            fb += Fraction(b) if k else 0
        elif k and j % N == N - k:     # j = mN - k
            fa += Fraction(a)
            fb -= Fraction(b)
    return fa, fb


@pytest.mark.parametrize("seed", range(6))
def test_harmonic_fold_is_the_correctly_rounded_exact_sum(seed):
    # Every class holds several members, the constant class too: indices
    # up to 12N, a_0 among them, values spread over six decades so that a
    # left-to-right float sum would round more than once.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    grid = make_grid(n)
    N = grid.N
    ks = rng.choice(12 * N + 1, size=min(12 * N + 1, 8 * N), replace=False)
    ks = np.union1d(ks, [0, N, 3 * N, 7 * N])
    ab = rng.standard_normal((ks.size, 2)) * 10.0 ** rng.integers(-3, 3, (ks.size, 2))
    sig = harmonic_sum((int(k), a, b if k else 0.0) for k, (a, b) in zip(ks, ab))
    spec = discrete_coeffs(sample(sig, grid))
    scale = sum(abs(a) + abs(b) for _, a, b in sig.terms)
    for k in range(n + 1):
        rep = folded_coefficients(sig, grid, k)
        assert_float_fields(rep)
        fa, fb = exact_fold(sig, N, k)
        assert (rep.folded_a, rep.folded_b) == (float(fa), float(fb)), k
        dft_a = spec.a0 if k == 0 else spec.a[k - 1]
        dft_b = 0.0 if k == 0 else spec.b[k - 1]
        assert abs(rep.folded_a - dft_a) <= 1e-13 * scale, k
        assert abs(rep.folded_b - dft_b) <= 1e-13 * scale, k


def test_fold_rejects_black_box():
    with pytest.raises(UnsupportedSignalError):
        folded_coefficients(lambda t: 0.0, make_grid(2), 1)


@pytest.mark.parametrize("split", [
    lambda f: band_component(f, 4, 0.0),
    lambda f: residual_component(f, make_grid(4), 0.0),
], ids=["band", "residual"])
def test_time_domain_split_rejects_black_box(split):
    # Both used to fail on the callable's missing .kind with AttributeError.
    # Neither forms a fold sum, so the refusal names the coefficients alone.
    with pytest.raises(UnsupportedSignalError) as info:
        split(np.cos)
    assert str(info.value) == "the signal's Fourier coefficients must be known analytically"


def test_fold_rejects_bad_tol():
    # A NaN tolerance compares false with every rounding floor; it would certify anything.
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            folded_coefficients(power_decay_cosine(4), make_grid(2), 1, tol=tol)


# -- frequency-domain bound -----------------------------------------------------


def test_aliasing_bound_against_brute_force_oracle():
    # r=1, variation=1, N=5, k=1: the oracle value is the directly summed
    # series (1/pi) * sum_m [(5m+1)^-2 + (5m-1)^-2].
    oracle = brute_fold_sum(2.0, 5, 1) / np.pi
    assert oracle == pytest.approx(0.0454145, abs=2e-6)
    bound = aliasing_error_bound(1, make_grid(2), SmoothnessInfo(1, 1.0))
    assert bound == pytest.approx(oracle, abs=1e-6)


def test_aliasing_bound_zero_variation():
    assert aliasing_error_bound(2, make_grid(2), SmoothnessInfo(3, 0.0)) == 0.0


def test_aliasing_bound_r0_is_infinite():
    assert aliasing_error_bound(1, make_grid(2), SmoothnessInfo(0, 1.0)) == np.inf


def test_aliasing_bound_dominates_measurement():
    # p=6 in its r=4 class: the bound must cover the actual coefficient shift.
    sig = power_decay_cosine(6)
    for n in (2, 8):
        grid = make_grid(n)
        spec = discrete_coeffs(sample(sig, grid))
        for k in range(1, n + 1):
            measured = abs(true_coefficient(sig, k)[0] - spec.a[k - 1])
            assert measured <= aliasing_error_bound(k, grid, sig.smoothness), (n, k)


def test_aliasing_bound_band_validation():
    with pytest.raises(ValueError):
        aliasing_error_bound(3, make_grid(2), SmoothnessInfo(1, 1.0))


# -- time-domain components -------------------------------------------------------


def test_band_component_full_in_band():
    sig = harmonic_sum([(1, 1.0, 0.0)])
    for t in (0.0, 0.7, 3.1):
        assert band_component(sig, 2, t) == pytest.approx(np.cos(t), abs=1e-15)


def test_band_component_fully_out_of_band():
    sig = harmonic_sum([(6, 1.0, 0.0)])
    assert band_component(sig, 2, 0.9) == 0.0


def test_band_component_partial_sum_at_zero():
    assert band_component(power_decay_cosine(4), 2, 0.0) == pytest.approx(1.0625)


def test_band_component_rejects_non_finite_points():
    # inf used to reach cos, which warns.
    for t in (np.nan, np.inf, -np.inf, np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            band_component(power_decay_cosine(4), 2, t)


def test_dc_class_component_rejects_non_finite_points():
    grid = make_grid(2)
    for sig in (harmonic_sum([(5, 1.0, 0.0)]), power_decay_cosine(4)):
        for t in (np.nan, np.inf, -np.inf, np.array([0.5, np.inf])):
            with pytest.raises(ValueError, match="evaluation point must be finite"):
                dc_class_component(sig, grid, t)


def test_residual_in_band_is_zero(rng):
    sig = harmonic_sum([(1, 1.0, -0.5), (2, 0.3, 0.0)])
    grid = make_grid(2)
    for t in rng.uniform(0, 2 * np.pi, 100):
        assert abs(residual_component(sig, grid, float(t))) < 1e-14


def test_residual_single_out_of_band_harmonic():
    sig = harmonic_sum([(6, 1.0, 0.0)])
    grid = make_grid(2)
    for t in (0.0, 0.3, 2.2, 5.9):
        assert residual_component(sig, grid, t) == pytest.approx(np.cos(6 * t), abs=1e-15)


def test_residual_matches_series_oracle():
    # Independent oracle: directly summed out-of-band, non-constant-class series.
    sig = power_decay_cosine(4)
    grid = make_grid(2)
    N, n = grid.N, grid.n
    j = np.arange(n + 1, 3000)
    j = j[j % N != 0].astype(float)
    for t in (0.1, 1.0, 4.4):
        oracle = float(np.sum(np.cos(j * t) / j**4))
        assert abs(residual_component(sig, grid, t) - oracle) < 1e-9


def test_time_domain_split_identity_dense_grid():
    # f = band + residual + constant-class tail, everywhere.
    sig = power_decay_cosine(4)
    grid = make_grid(2)
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    lhs = evaluate(sig, t)
    rhs = (
        band_component(sig, grid.n, t)
        + residual_component(sig, grid, t)
        + dc_class_component(sig, grid, t)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("maker,p", [
    (power_decay_sine, 2.0),
    (power_decay_cosine, 3.0),
    (power_decay_cosine, 2.5),
])
def test_dc_class_component_without_bernoulli_form(maker, p, lerch_fold):
    # sum_m (mN)^-p trig(mNt) at t = 2*pi*g/G is N^-p Li_p(e^(iNt)), and Nt
    # is the grid angle of index N*g mod G.
    sig = maker(p, r=0, variation=1.0)
    grid = make_grid(3)
    N, G = grid.N, 30
    for g in range(G):
        h = N * g % G
        li = np.exp(2j * np.pi * h / G) * lerch_fold(p, 1.0, h, G)
        want = N**-p * (li.real if maker is power_decay_cosine else li.imag)
        assert abs(dc_class_component(sig, grid, 2.0 * np.pi * g / G) - want) <= 1e-14


@pytest.mark.parametrize("t", [0.7, np.linspace(0.0, 6.0, 5),
                               np.linspace(-9.0, 9.0, 6).reshape(2, 3)], ids=["scalar", "1-D", "2-D"])
@pytest.mark.parametrize("sig", [harmonic_sum([(1, 0.5, 0.25), (9, 1.0, 0.0), (18, 0.0, -0.5)]),
                                 power_decay_cosine(4)], ids=["harmonic", "power"])
def test_residual_component_is_the_split_and_keeps_the_shape_of_t(sig, t):
    # A harmonic sum used to lose the shape of a 2-D t in its constant-class
    # tail, and the split then failed to broadcast.
    grid = make_grid(4)
    got = residual_component(sig, grid, t)
    want = evaluate(sig, t) - band_component(sig, grid.n, t) - dc_class_component(sig, grid, t)
    assert np.shape(got) == np.shape(t) == np.shape(dc_class_component(sig, grid, t))
    assert np.array_equal(got, want)


def test_time_domain_split_identity_at_nodes():
    # At the nodes the folded polynomial replaces f, up to the constant fold.
    sig = power_decay_cosine(4)
    grid = make_grid(2)
    spec = discrete_coeffs(sample(sig, grid))
    fstar = spec(grid.nodes)
    dc_fold = (spec.a0 - true_coefficient(sig, 0)[0]) / 2.0
    split = (
        band_component(sig, grid.n, grid.nodes)
        + residual_component(sig, grid, grid.nodes)
        + dc_fold
    )
    assert np.max(np.abs(fstar - split)) < 1e-9


def test_overlay_bound_arithmetic():
    assert time_domain_overlay_bound(4, SmoothnessInfo(2, 1.0)) == pytest.approx(0.125)
    assert time_domain_overlay_bound(4, SmoothnessInfo(2, 0.0)) == 0.0


def test_overlay_bound_rejects_r0():
    with pytest.raises(ValueError):
        time_domain_overlay_bound(4, SmoothnessInfo(0, 1.0))


def test_overlay_bound_dominates_sup():
    sig = power_decay_cosine(6)
    grid = make_grid(8)
    spec = discrete_coeffs(sample(sig, grid))
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    sup = float(np.max(np.abs(band_component(sig, grid.n, t) - spec(t))))
    assert sup <= time_domain_overlay_bound(grid.n, sig.smoothness)


# -- report table ------------------------------------------------------------------


def test_fold_report_csv_columns():
    rows = fold_report_table(power_decay_cosine(4), make_grid(2))
    text = fold_table_to_csv(rows)
    header = text.splitlines()[0]
    assert header == (
        "k,a_star_fold,b_star_fold,a_star_dft,b_star_dft,"
        "abs_diff_a,abs_diff_b,bound8"
    )
    assert len(text.splitlines()) == 4  # header + k=0..2
