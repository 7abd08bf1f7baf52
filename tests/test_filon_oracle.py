"""Quadrature coefficients, their agreement with closed forms, and the bounds."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import (
    FilterVariant,
    KernelConfig,
    build_spline,
    cnorm_error_bound,
    curvature_functional,
    diff_variation_bound,
    discrete_coeffs,
    filon_coeffs,
    harmonic_sum,
    make_grid,
    power_decay_cosine,
    power_decay_sine,
    quad_fourier_coeff,
    refined_error_bound,
    sample,
    spline_fourier_coeff,
    suite_signals,
    sup_distance,
    true_coefficient,
    unfolded_spectrum,
    values_on_uniform_grid,
)
from trigspec import filon_oracle, trig_spline
from trigspec.errors import QuadratureConvergenceError
from trigspec.filon_oracle import filon_table

VARIANTS = ("sinc", "abs-sinc", "inv-power")


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


def test_quad_reads_a_discrete_spectrum_through_its_call():
    # Quadrature calls the spectrum at its grid angles and recovers the
    # spectrum's coefficients up to rounding.
    poly = discrete_coeffs(sample(power_decay_cosine(4), make_grid(8)))
    for k in range(1, 9):
        a, b = quad_fourier_coeff(poly, k)
        assert a == pytest.approx(poly.a[k - 1], abs=1e-14)
        assert b == pytest.approx(poly.b[k - 1], abs=1e-14)


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


def test_quad_ladder_ends_at_the_largest_grid(monkeypatch):
    # A ladder that would pass the largest grid ends as a spent doubling
    # budget does, with the last two estimates. The largest index starts
    # on the half-size grid, so it too reaches two grids; an index whose
    # first grid would be the largest, and so could never be compared
    # with a second one, is refused before any grid is built.
    monkeypatch.setattr(filon_oracle, "_MAX_POINTS", 4096)
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        return np.sign(np.sin(np.asarray(t)) + 0.3)

    with pytest.raises(QuadratureConvergenceError, match="on grids of up to 4096 points") as err:
        quad_fourier_coeff(f, 1)
    assert sizes == [1024, 2048, 4096]
    assert err.value.last is not None and err.value.previous is not None
    with pytest.raises(QuadratureConvergenceError) as err:
        quad_fourier_coeff(f, 64)
    assert sizes[3:] == [2048, 4096] and err.value.previous is not None
    with pytest.raises(ValueError, match=r"coefficient index k must be an integer in 0\.\.64"):
        quad_fourier_coeff(f, 65)
    assert len(sizes) == 5


def test_quad_converges_at_the_largest_index(monkeypatch):
    # k = 2^27 used to be accepted and could only end in a convergence
    # error with no previous estimate; the largest index now accepted
    # converges on a smooth integrand, on the last two grids.
    monkeypatch.setattr(filon_oracle, "_MAX_POINTS", 4096)
    sizes = []
    signal = harmonic_sum([(64, 0.5, -0.25), (3, 1.0, 0.0)])

    def f(t):
        sizes.append(np.size(t))
        return signal(t)

    a, b = quad_fourier_coeff(f, 64)
    assert sizes == [2048, 4096]
    assert a == pytest.approx(0.5, abs=1e-12) and b == pytest.approx(-0.25, abs=1e-12)


def test_quad_refuses_an_oversized_index_for_a_spline_too():
    # 10^12 used to reach a 2^45-point grid: a MemoryError for a callable,
    # a refusal naming `points` for a spline.
    spl = spline_of(power_decay_cosine(4), 2, 1)
    for fn in (harmonic_sum([(1, 1.0, 0.0)]), spl):
        with pytest.raises(ValueError, match="coefficient index k must be an integer in"):
            quad_fourier_coeff(fn, 10**12)


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


def test_filon_coeffs_reads_each_grid_once():
    # One sampler call and one FFT per grid, whatever the number of
    # indices: k = 1..32 start at 1024 points, k = 33, 34 at 2048.
    sizes = []
    signal = harmonic_sum([(3, 1.0, 0.5), (33, 0.25, 0.0)])

    def f(t):
        sizes.append(np.size(t))
        return signal(t)

    rows = filon_coeffs(f, (1, 34))
    assert sizes == [1024, 2048, 4096]
    ta, tb = true_coefficient(signal, np.arange(1, 35))
    assert np.allclose([a for _, a, _ in rows], ta, rtol=0, atol=1e-14)
    assert np.allclose([b for _, _, b in rows], tb, rtol=0, atol=1e-14)


def test_oracle_reads_a_scalar_only_callable_as_its_array_twin():
    # math.sin cannot take an array: quadrature and the sup distance used to
    # raise TypeError where sample called it point by point.
    def scalar(t):
        return math.sin(t) + 0.5 * math.cos(3 * t)

    def array(t):
        return np.sin(t) + 0.5 * np.cos(3 * t)

    for k in (0, 1, 3):
        assert quad_fourier_coeff(scalar, k) == pytest.approx(quad_fourier_coeff(array, k), abs=1e-15)
    rows = filon_coeffs(scalar, (0, 4))
    assert np.allclose(rows, filon_coeffs(array, (0, 4)), rtol=0, atol=1e-15)
    sig = power_decay_cosine(4)
    assert sup_distance(scalar, sig) == pytest.approx(sup_distance(array, sig), abs=1e-15)
    assert sup_distance(scalar, array) <= 1e-15


def test_quad_reads_a_spline_through_its_grid_values(monkeypatch):
    # The spline's values on each quadrature grid are values_on_uniform_grid's,
    # called through the module's own name (so a rebound name is the one
    # reached), and the coefficient is entry k of the grid's real FFT.
    spl = spline_of(power_decay_cosine(6), 8, 3)
    calls = []
    original = trig_spline.values_on_uniform_grid

    def counted(spline, points):
        calls.append(points)
        return original(spline, points)

    monkeypatch.setattr(trig_spline, "values_on_uniform_grid", counted)
    cache = {}
    a, b = quad_fourier_coeff(spl, 5, _cache=cache)
    assert calls == [1024, 2048] and sorted(cache) == calls
    spectrum = 2.0 / 2048 * np.fft.rfft(original(spl, 2048))
    assert (a, b) == (spectrum[5].real, -spectrum[5].imag)


# -- bounds --------------------------------------------------------------------


def test_cnorm_bound_arithmetic():
    assert cnorm_error_bound(0.0) == 0.0
    assert cnorm_error_bound(np.pi / 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cnorm_error_bound(-1.0)
    # NaN used to pass the sign test and return NaN; +inf is still a true bound.
    with pytest.raises(ValueError, match="sup error must be nonnegative"):
        cnorm_error_bound(np.nan)
    assert cnorm_error_bound(np.inf) == np.inf


def test_refined_bound_arithmetic():
    assert refined_error_bound(2, 2, 0.0) == 0.0
    assert refined_error_bound(2, 2, np.pi) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        refined_error_bound(0, 2, 1.0)
    with pytest.raises(ValueError, match="diff_variation must be nonnegative"):
        refined_error_bound(1, 1, np.nan)
    assert refined_error_bound(1, 1, np.inf) == np.inf


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
    dv = diff_variation_bound(sig, spl, q)
    N = spl.config.grid.N
    measured = []
    ks = np.arange(2 * N, 8 * N + 1)
    for k in range(1, 8 * N + 1):
        ta, _ = true_coefficient(sig, k)
        ca, _ = spline_fourier_coeff(spl, k)
        if k >= 2 * N:
            measured.append(abs(ta - ca))
        assert abs(ta - ca) <= refined_error_bound(k, q, dv), k
    from loglog import fit_loglog_slope

    slope = fit_loglog_slope(ks, np.array(measured))
    assert slope <= -(q + 1) + 0.4


def test_diff_variation_bound_holds_no_long_series():
    # The grid estimate it replaces folded 2^18 coefficients (4.2 MB
    # streamed, 31.6 MB whole); the bound reads 4N of them, and the jump
    # route at q = r one block of phases.
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 64, 3)
    for q in (2, 3):
        diff_variation_bound(sig, spl, q)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            diff_variation_bound(sig, spl, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, q


def test_diff_variation_refuses_a_q_that_is_not_an_integer_order():
    # q = 1.5 used to give a value between the q = 1 and q = 2 estimates.
    sig = power_decay_cosine(6)
    spl = spline_of(sig, 2, 3)
    for q in (1.5, -1, np.nan):
        with pytest.raises(ValueError, match="q must be >= 0"):
            diff_variation_bound(sig, spl, q)


def _second_differences(sig, n, variant):
    # (N/2 pi) sum |second differences of the samples|: the variation of
    # phi' of the piecewise-linear spline of order 1.
    spl = spline_of(sig, n, 1, variant)
    y = sample(sig, spl.config.grid).values
    return spl, spl.config.grid.N / (2 * np.pi) * np.sum(np.abs(np.roll(y, -1) - 2 * y + np.roll(y, 1)))


def _jumps_from_grid_values(spl, per_cell=6):
    # sum_i |d_i| from r-th differences of values on a grid of per_cell
    # points per cell: inside a cell phi is a polynomial of degree r, so
    # its r-th difference over h^r is phi^(r) there, up to rounding.
    cfg = spl.config
    N, r = cfg.grid.N, cfg.order
    G = N * per_cell
    v = values_on_uniform_grid(spl, G)
    h = 2 * np.pi / G
    # Cells start at the nodes, or at the midpoints for the signed family.
    start = np.arange(N) * per_cell + (per_cell // 2 if cfg.signed else 0)
    weights = [math.comb(r, t) * (-1) ** (r - t) for t in range(r + 1)]
    inside = sum(w * v[(start + t) % G] for t, w in enumerate(weights)) / h**r
    return np.sum(np.abs(inside - np.roll(inside, 1)))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 4, 16])
def test_jump_variation_at_order_one_is_the_samples_second_differences(n, variant):
    for name in ("power-cos-4", "power-sin-3", "harmonic-mixed"):
        spl, want = _second_differences(suite_signals()[name], n, variant)
        _, a, b = unfolded_spectrum(spl, n)
        got = filon_oracle._jump_variation(spl.config, a, b)
        assert got == pytest.approx(want, rel=1e-12), name


@pytest.mark.parametrize("r,variant", [(2, "sinc"), (3, "abs-sinc"), (3, "inv-power"), (4, "sinc")])
def test_jump_variation_matches_differences_of_grid_values(r, variant):
    # Polynomial configurations above order 1: the signed family at even
    # r (knots at the midpoints) and s = 4 (knots at the nodes).
    for name in ("power-cos-6", "harmonic-mixed"):
        spl = spline_of(suite_signals()[name], 8, r, variant)
        assert spl.config.polynomial
        _, a, b = unfolded_spectrum(spl, 8)
        got = filon_oracle._jump_variation(spl.config, a, b)
        assert got == pytest.approx(_jumps_from_grid_values(spl), rel=1e-7), name


def _explicit_difference_norm(sig, spl, q, J=2**20):
    # sqrt(2 pi) ||(f - phi)^(q+1)||_2 from its series summed to J.
    energy = []
    for js, a, b in trig_spline._blocks(spl, J):
        ta, tb = true_coefficient(sig, js)
        energy.append(js.astype(float) ** (2 * q + 2) * ((ta - a) ** 2 + (tb - b) ** 2))
    return math.sqrt(2 * np.pi) * math.sqrt(np.pi * math.fsum(np.concatenate(energy)))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_difference_route_dominates_the_explicit_series(n):
    # Where the difference route applies (q <= r - 1 and p > q + 3/2),
    # the bound is at least the norm of the series summed to 2^20, which
    # is below the whole norm, and within 2x of it on the suite signals
    # and on p = 4.5, whose tail takes the Minkowski form. Its V bounds
    # Var(f'') = int |sum sin(kt)/k^1.5| <= 2 pi zeta(3/2) = 16.4.
    signals = {**suite_signals(), "power-cos-4.5": power_decay_cosine(4.5, r=2, variation=17.0)}
    cases = 0
    for name, sig in signals.items():
        for variant, r in (("abs-sinc", 3), ("inv-power", 5), ("sinc", 2)):
            spl = spline_of(sig, n, r, variant)
            q = min(sig.smoothness.r, r - 1)
            if sig.p is not None and sig.p <= q + 1.5:
                continue
            explicit = _explicit_difference_norm(sig, spl, q)
            bound = diff_variation_bound(sig, spl, q)
            assert explicit <= bound <= 2 * explicit, (name, variant, r, q)
            cases += 1
    assert cases == 24


def _power_tail_reference(x, above, terms=64):
    # sum_{j > above} j^-x for an integer x >= 2: `terms` direct terms,
    # each 1/j^x correctly rounded (integer division), then the
    # Euler-Maclaurin remainder from a = above + terms + 1 in exact
    # rationals, through B_10. Its truncation is below 1e-20 relative here.
    a = above + terms + 1
    rest = Fraction(1, (x - 1) * a ** (x - 1)) + Fraction(1, 2 * a**x)
    rising = Fraction(x)                      # x (x + 1) ... (x + 2i - 2)
    for i, b in enumerate((Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                           Fraction(-1, 30), Fraction(5, 66)), start=1):
        rest += b / math.factorial(2 * i) * rising / a ** (x + 2 * i - 1)
        rising *= (x + 2 * i - 1) * (x + 2 * i)
    return math.fsum([1 / j**x for j in range(above + 1, a)] + [float(rest)])


@pytest.mark.parametrize("N", [3, 17, 129])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 7.5])
def test_energy_tail_is_one_hurwitz_value_within_4_eps(p, N):
    # The power-decay energy beyond J0 = 4N, sum_{j > J0} j^(2q+2) j^(-2p),
    # at every q where it converges (x = 2(p - q - 1) > 1).
    sig = power_decay_cosine(p, r=0, variation=1.0)
    cases = 0
    for q in range(int(p)):
        x = 2 * (p - q - 1)
        if x > 1:
            want = _power_tail_reference(int(x), 4 * N)
            got = filon_oracle._signal_energy(sig, q, 4 * N)
            assert abs(got - want) <= 4 * math.ulp(1.0) * want, (q, got, want)
            cases += 1
    assert cases == math.ceil(p - 1.5)


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power"])
def test_log_type_order_drops_to_r_minus_one(variant, r):
    # At even r, s = r + 1 is odd and the family unsigned: phi^(r) has
    # infinite variation, so no route gives a finite bound at q = r, and
    # the table takes q = r - 1.
    for name in ("power-cos-6", "harmonic-single"):
        sig = suite_signals()[name]
        spl = spline_of(sig, 8, r, variant)
        assert filon_oracle._shared_order(sig, spl.config) == r - 1
        assert diff_variation_bound(sig, spl, r) == math.inf
        dv = diff_variation_bound(sig, spl, r - 1)
        assert math.isfinite(dv)
        rows = filon_table(sig, spl, 20)
        assert [row["refined_bound"] for row in rows] == refined_error_bound(
            np.arange(1, 21), r - 1, dv).tolist()


def test_sum_route_for_a_signal_whose_norm_diverges():
    # p = 2.5 = q + 3/2 at q = 1: ||f''||_2 diverges, so only the sum route
    # V + sqrt(2 pi) ||phi''||_2 is finite, with ||phi''||_2^2 the
    # curvature functional of order 2. V bounds Var(f') for
    # f' = sum cos(kt)/k^1.5, decreasing on (0, pi): 2 (zeta(3/2) +
    # eta(3/2)) = 6.755...
    sig = power_decay_sine(2.5, r=1, variation=6.76)
    for variant in VARIANTS:
        spl = spline_of(sig, 8, 3, variant)
        assert filon_oracle._shared_order(sig, spl.config) == 1
        want = 6.76 + math.sqrt(2 * np.pi * curvature_functional(spl, 2))
        assert diff_variation_bound(sig, spl, 1) == pytest.approx(want, rel=1e-13)
        assert diff_variation_bound(sig, spl, 1) >= want


@st.composite
def filon_cases(draw):
    n = draw(st.integers(1, 64))
    r = draw(st.integers(1, 10))
    variant = draw(st.sampled_from(VARIANTS))
    if draw(st.booleans()):
        sig = suite_signals()[draw(st.sampled_from(sorted(suite_signals())))]
    else:
        N = 2 * n + 1
        ks = draw(st.lists(st.integers(0, 5 * N), min_size=1, max_size=6, unique=True))
        amp = st.floats(-1.0, 1.0, allow_nan=False)
        terms = [(k, draw(amp), draw(amp) if k else 0.0) for k in ks]
        sig = harmonic_sum(terms, r=draw(st.integers(0, 4)))
    return sig, n, r, variant


@settings(max_examples=60, deadline=None)
@given(filon_cases())
def test_no_coefficient_error_above_the_refined_bound(case):
    # The refined bound is proved, so it holds on every draw. The sup-norm
    # bound rests on a grid estimate of the sup and is not checked here: for
    # a constant signal its grid sees no difference at all, while the
    # spline's coefficients carry the samples' rounding.
    sig, n, r, variant = case
    spl = spline_of(sig, n, r, variant)
    for row in filon_table(sig, spl, 4 * spl.config.grid.N):
        measured = max(abs(row["a_true"] - row["a_hat"]), abs(row["b_true"] - row["b_hat"]))
        assert measured <= row["refined_bound"], row["k"]


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
    assert [r["k"] for r in rows] == list(range(1, 21))
