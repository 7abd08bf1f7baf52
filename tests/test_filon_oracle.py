"""Quadrature coefficients, their agreement with closed forms, and the bounds."""

import numpy as np
import pytest

from trigspec import (
    FilterVariant,
    KernelConfig,
    build_spline,
    cnorm_error_bound,
    estimate_diff_variation,
    filon_coeffs,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    quad_fourier_coeff,
    refined_error_bound,
    sample,
    spline_fourier_coeff,
    sup_distance,
    true_coefficient,
)
from trigspec.errors import QuadratureConvergenceError
from trigspec.filon_oracle import filon_table


def spline_of(signal, n, r, variant="abs-sinc"):
    c = KernelConfig(
        grid=make_grid(n), order=r, variant=FilterVariant.from_string(variant)
    )
    return build_spline(sample(signal, c.grid), c)


# -- quadrature ---------------------------------------------------------------


def test_quad_pure_harmonic():
    f = harmonic_sum([(3, 1.0, 0.0)])
    a, b = quad_fourier_coeff(f, 3)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert abs(b) < 1e-12


def test_quad_orthogonal_index_is_zero():
    f = harmonic_sum([(3, 1.0, 0.0)])
    a, b = quad_fourier_coeff(f, 2)
    assert abs(a) < 1e-12 and abs(b) < 1e-12


def test_quad_dc_coefficient():
    f = harmonic_sum([(0, 2.0, 0.0), (1, 0.5, 0.0)])
    a, b = quad_fourier_coeff(f, 0)
    assert a == pytest.approx(2.0, abs=1e-12)


def test_quad_exact_on_trig_polynomials(rng):
    # Degree < points/4 is integrated exactly by the periodic trapezoid rule.
    terms = [(int(k), float(rng.standard_normal()), float(rng.standard_normal()))
             for k in range(1, 60)]
    f = harmonic_sum(terms)
    for k in (1, 17, 59):
        a, b = quad_fourier_coeff(f, k)
        ta, tb = true_coefficient(f, k)
        assert a == pytest.approx(ta, abs=1e-12)
        assert b == pytest.approx(tb, abs=1e-12)


def test_quad_spline_matches_closed_form():
    # The module's central cross-check: quadrature over the spline's values
    # reproduces the coefficients its own series claims.
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 8, 3)
    N = spl.config.grid.N
    for k in range(1, 2 * N + 1, 3):
        qa, qb = quad_fourier_coeff(spl, k)
        ca, cb = spline_fourier_coeff(spl, k)
        assert abs(qa - ca) < 1e-8, k
        assert abs(qb - cb) < 1e-8, k


def test_quad_non_convergence_raises():
    # An integrand with jumps converges only like 1/G; ten doublings from
    # 1024 points cannot reach 1e-11.
    f = lambda t: np.sign(np.sin(np.asarray(t)) + 0.3)  # noqa: E731
    with pytest.raises(QuadratureConvergenceError) as err:
        quad_fourier_coeff(f, 1)
    last, previous = err.value.last, err.value.previous
    assert last is not None
    assert previous is not None
    # The two estimates are the ones the convergence test compared.
    assert max(abs(last[0] - previous[0]), abs(last[1] - previous[1])) > 1e-11


def test_filon_coeffs_pure_cosine():
    rows = filon_coeffs(harmonic_sum([(1, 1.0, 0.0)]), (1, 3))
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
    for _, a, b in rows[1:]:
        assert abs(a) < 1e-12 and abs(b) < 1e-12


def test_filon_coeffs_constant():
    rows = filon_coeffs(harmonic_sum([(0, 2.0, 0.0)]), (1, 4))
    for _, a, b in rows:
        assert abs(a) < 1e-12 and abs(b) < 1e-12


def test_filon_coeffs_spline_agreement():
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 8, 3)
    rows = filon_coeffs(spl, (1, 34))
    for k, a, b in rows:
        ca, cb = spline_fourier_coeff(spl, k)
        assert abs(a - ca) < 1e-8
        assert abs(b - cb) < 1e-8


# -- bounds --------------------------------------------------------------------


def test_cnorm_bound_arithmetic():
    assert cnorm_error_bound(0.0) == 0.0
    assert cnorm_error_bound(np.pi / 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cnorm_error_bound(-1.0)


def test_refined_bound_arithmetic():
    assert refined_error_bound(2, 2, 0.0) == 0.0
    assert refined_error_bound(2, 2, np.pi) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        refined_error_bound(0, 2, 1.0)


def test_cnorm_bound_dominates_coefficient_errors():
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 8, 3)
    sup = sup_distance(sig, spl)
    bound = cnorm_error_bound(sup)
    N = spl.config.grid.N
    for k in range(1, 4 * N + 1):
        ta, tb = true_coefficient(sig, k)
        ca, cb = spline_fourier_coeff(spl, k)
        measured = max(abs(ta - ca), abs(tb - cb))
        assert measured <= 1.1 * bound, k


def test_refined_bound_dominates_and_restores_decay():
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 8, 3)
    q = min(sig.smoothness.r, spl.config.order)
    dv = estimate_diff_variation(sig, spl, q)
    N = spl.config.grid.N
    measured = []
    ks = np.arange(2 * N, 8 * N + 1)
    for k in range(1, 8 * N + 1):
        ta, _ = true_coefficient(sig, k)
        ca, _ = spline_fourier_coeff(spl, k)
        if k >= 2 * N:
            measured.append(abs(ta - ca))
        assert abs(ta - ca) <= 1.1 * refined_error_bound(k, q, dv), k
    from loglog import fit_loglog_slope

    slope = fit_loglog_slope(ks, np.array(measured))
    assert slope <= -(q + 1) + 0.4


# -- sup distance -----------------------------------------------------------------


def test_sup_distance_identical_functions():
    f = harmonic_sum([(1, 1.0, 0.0)])
    assert sup_distance(f, f) == 0.0


def test_sup_distance_cosine_vs_zero():
    f = harmonic_sum([(1, 1.0, 0.0)])
    zero = harmonic_sum([])
    assert sup_distance(f, zero) == pytest.approx(1.0, abs=1e-6)


def test_sup_distance_improves_with_grid_size():
    sig = power_decay_cosine(4)
    sups = []
    for n in (2, 8, 16):
        spl = spline_of(sig, n, 3)
        sups.append(sup_distance(sig, spl))
    assert sups[0] > sups[1] > sups[2]


# -- table ------------------------------------------------------------------------


def test_filon_table_columns_and_bounds_hold():
    sig = power_decay_sine(5)
    spl = spline_of(sig, 8, 3)
    rows = filon_table(sig, spl, 20)
    assert set(rows[0]) == {
        "k", "a_hat", "b_hat", "a_true", "b_true", "cnorm_bound", "refined_bound"
    }
    for r in rows:
        measured = max(abs(r["a_true"] - r["a_hat"]), abs(r["b_true"] - r["b_hat"]))
        assert measured <= 1.1 * min(r["cnorm_bound"], r["refined_bound"])
    from trigspec.filon_oracle import filon_table_to_csv

    text = filon_table_to_csv(rows)
    assert text.splitlines()[0] == "k,a_hat,b_hat,a_true,b_true,cnorm_bound,refined_bound"
    assert len(text.splitlines()) == 21
