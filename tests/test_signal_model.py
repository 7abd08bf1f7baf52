"""Signal definitions, exact evaluation, coefficient access and the decay bound."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import zeta
from hypothesis import strategies as st

from trigspec import (
    SmoothnessInfo,
    coefficient_bound,
    evaluate,
    harmonic_sum,
    power_decay_cosine,
    power_decay_sine,
    signal_from_json,
    signal_to_json,
    true_coefficient,
)
from trigspec import _kernels, _series
from trigspec.signal_model import HARMONIC_SUM, AnalyticSignal, derivative_values, grid_values

from variation import grid_total_variation


def brute_power_eval(kind_cos, p, t, terms=400_000):
    """Independent partial-sum oracle for the power-decay families."""
    k = np.arange(1.0, terms + 1.0)
    if kind_cos:
        return float(np.sum(np.cos(k * t) / k**p))
    return float(np.sum(np.sin(k * t) / k**p))


# -- evaluation -------------------------------------------------------------


def test_eval_single_cosine_at_zero():
    sig = harmonic_sum([(1, 1.0, 0.0)])
    assert evaluate(sig, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_eval_sine_harmonic():
    sig = harmonic_sum([(2, 0.0, 1.0)])
    assert evaluate(sig, np.pi / 4) == pytest.approx(1.0, abs=1e-15)


def test_eval_power_cosine_zeta4():
    # Partial-sum oracle for the series at t=0, checked against the value
    # it must converge to (sum of k^-4).
    sig = power_decay_cosine(4)
    oracle = brute_power_eval(True, 4.0, 0.0)
    assert abs(oracle - np.pi**4 / 90) < 1e-10
    assert evaluate(sig, 0.0) == pytest.approx(1.0823232337, abs=1e-9)
    assert evaluate(sig, 0.0) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("p,maker,is_cos", [
    (2, power_decay_cosine, True),
    (4, power_decay_cosine, True),
    (6, power_decay_cosine, True),
    (3, power_decay_sine, False),
    (5, power_decay_sine, False),
])
def test_power_eval_matches_partial_sum_oracle(p, maker, is_cos):
    sig = maker(p)
    for t in (0.1, 1.7, 3.9, 6.0):
        oracle = brute_power_eval(is_cos, float(p), t)
        tol = 3.0 * 400_000.0 ** (1 - p) / (p - 1) + 1e-12
        assert abs(evaluate(sig, t) - oracle) < tol


def test_eval_periodicity():
    for sig in (power_decay_cosine(4), harmonic_sum([(3, 0.5, -1.0)])):
        for t in (0.3, 2.1, 5.0):
            assert abs(evaluate(sig, t) - evaluate(sig, t + 2 * np.pi)) < 1e-12


def test_eval_vectorized_matches_scalar():
    sig = power_decay_cosine(6)
    t = np.array([0.0, 1.0, 2.0])
    vec = evaluate(sig, t)
    assert vec.shape == (3,)
    for i, ti in enumerate(t):
        assert vec[i] == evaluate(sig, float(ti))


def test_eval_rejects_non_finite():
    for sig in (harmonic_sum([(1, 1.0, 0.0)]), power_decay_cosine(2.5, r=0, variation=1.0)):
        for t in (np.nan, np.inf, -np.inf, np.array([0.5, np.inf])):
            with pytest.raises(ValueError, match="evaluation point must be finite"):
                evaluate(sig, t)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_derivative_values_reject_non_finite(order, bad):
    # A harmonic sum, the Bernoulli closed forms (cosine p = 6: every
    # derivative is a series of matched parity), and the polylogarithm at
    # integer and non-integer order (sine p = 6 and p = 5.5).
    signals = (harmonic_sum([(1, 1.0, 0.0)]), power_decay_cosine(6),
               power_decay_sine(6, r=0, variation=1.0),
               power_decay_sine(5.5, r=0, variation=1.0))
    for sig in signals:
        for t in (bad, np.array([0.5, bad]), np.array([[0.0, 1.0], [bad, 2.0]])):
            with pytest.raises(ValueError, match="evaluation point must be finite"):
                derivative_values(sig, order, t)


def test_mismatched_parity_eval_feasible():
    # Sine with even p has no closed form; the truncated path must still
    # meet the 1e-14 tail contract when that is affordable.
    sig = power_decay_sine(4, r=1, variation=5.0)
    oracle = brute_power_eval(False, 4.0, 1.3)
    assert abs(evaluate(sig, 1.3) - oracle) < 1e-10


def test_mismatched_parity_eval_clausen_exact(lerch_fold):
    # Sine with p = 2 is the Clausen function Cl_2(t) = Im Li_2(e^(it)),
    # once refused as needing 1.6e9 truncated terms; its derivative
    # series of cosine p = 3 is the same function with a minus sign.
    sig = power_decay_sine(2, r=0, variation=5.0)
    cos3 = power_decay_cosine(3, r=1, variation=5.0)
    G = 96
    t = 2.0 * np.pi * np.arange(G) / G
    want = np.array([(np.exp(1j * x) * lerch_fold(2, 1.0, g, G)).imag for g, x in enumerate(t)])
    assert np.max(np.abs(evaluate(sig, t) - want)) <= 1e-13
    assert np.max(np.abs(derivative_values(cos3, 1, t) + want)) <= 1e-13


@pytest.mark.parametrize("name", ["harmonic-mixed", "power-cos-4"])
def test_zeroth_derivative_is_the_signal(name, suite):
    # harmonic-mixed has a constant term, which the zeroth derivative keeps.
    sig = suite[name]
    t = np.linspace(0.0, 2.0 * np.pi, 257)
    assert np.array_equal(derivative_values(sig, 0, t), evaluate(sig, t))


@pytest.mark.parametrize("p", [2, 2.5, 3, 4])
def test_power_decay_at_zero_is_zeta(p):
    # The series at t = 0 sums to zeta(p); the truncated sum that preceded
    # the polylogarithm missed its 1e-14 contract here at p = 3 (by 1.45e-13).
    cos = power_decay_cosine(p, r=0, variation=1.0)
    sin = power_decay_sine(p, r=0, variation=1.0)
    assert abs(evaluate(cos, 0.0) - zeta(p)) <= 1e-15 * zeta(p)
    assert evaluate(sin, 0.0) == 0.0


@pytest.mark.parametrize("p", [2.5, 3.7, 3 + 1e-9, 3 - 1e-9, 2 + 1e-12])
def test_non_integer_power_eval_matches_residue_fold(p, lerch_fold):
    G = 40
    t = 2.0 * np.pi * np.arange(G) / G
    li = np.array([np.exp(1j * x) * lerch_fold(p, 1.0, g, G) for g, x in enumerate(t)])
    cos = power_decay_cosine(p, r=0, variation=1.0)
    sin = power_decay_sine(p, r=0, variation=1.0)
    assert np.max(np.abs(evaluate(cos, t) - li.real)) <= 1e-13
    assert np.max(np.abs(evaluate(sin, t) - li.imag)) <= 1e-13


# -- coefficients -----------------------------------------------------------


@pytest.mark.parametrize("G", [1, 2, 17, 129, 4096])
def test_grid_values_of_a_harmonic_sum_take_exact_phases(G):
    # The terms in index order through the grid kernel, the constant as
    # a_0/2, at indices above G whose phases are reduced before rounding.
    terms = [(0, 0.8, 0.0), (1, 0.5, -0.25), (G + 2, 0.75, 0.5), (3 * G + 5, -0.25, 1.0)]
    sig = harmonic_sum(terms)
    ks, a, b = (np.array(col) for col in zip(*terms))
    values = grid_values(sig, G)
    assert np.array_equal(values, _kernels.grid_series(ks, a * np.where(ks == 0, 0.5, 1.0), b, G))
    angle = 2 * np.pi * (np.outer(ks, np.arange(G)) % G) / G
    reduced = (a * np.where(ks == 0, 0.5, 1.0)) @ np.cos(angle) + b @ np.sin(angle)
    assert np.max(np.abs(values - reduced)) <= 8 * np.finfo(float).eps * 3.65


@pytest.mark.parametrize("name", ["power-cos-2", "power-cos-4", "power-sin-3"])
def test_grid_values_of_a_power_signal_keep_the_evaluate_bits(name, suite):
    sig = suite[name]
    for G in (1, 17, 1024):
        t = 2.0 * np.pi * np.arange(G) / G
        assert np.array_equal(grid_values(sig, G), evaluate(sig, t))


@pytest.mark.parametrize("points", [0, -3, 2**32 + 1, 2.5, [4]])
def test_grid_values_refuse_a_bad_grid(points, suite):
    for sig in (suite["harmonic-mixed"], suite["power-cos-4"]):
        with pytest.raises(ValueError, match="points must be an integer"):
            grid_values(sig, points)


def test_true_coefficient_reads_terms():
    sig = harmonic_sum([(3, 2.0, -1.0)])
    assert true_coefficient(sig, 3) == (2.0, -1.0)
    assert true_coefficient(sig, 5) == (0.0, 0.0)


def test_true_coefficient_power_kinds():
    assert true_coefficient(power_decay_cosine(2), 4) == (0.0625, 0.0)
    assert true_coefficient(power_decay_sine(3), 2) == (0.0, 0.125)


def test_true_coefficient_constant_term():
    sig = harmonic_sum([(0, 2.0, 0.0)])
    assert true_coefficient(sig, 0) == (2.0, 0.0)
    assert evaluate(sig, 1.234) == pytest.approx(1.0, abs=1e-15)


@st.composite
def signals_and_indices(draw):
    """A signal of any kind, a node count N and indices to query.

    The indices mix k = 0, multiples of N and arbitrary indices, most of
    them absent from a harmonic sum's terms.
    """
    N = 2 * draw(st.integers(min_value=1, max_value=150)) + 1
    kind = draw(st.sampled_from(["harmonic", "cos", "sin"]))
    if kind == "harmonic":
        terms = draw(st.dictionaries(
            st.integers(min_value=0, max_value=6 * N),
            st.tuples(st.floats(-4, 4), st.floats(-4, 4)), max_size=12))
        sig = harmonic_sum((k, a, b if k else 0.0) for k, (a, b) in terms.items())
    else:
        p = draw(st.sampled_from([2.0, 2.5, 3.0, 3.55, 4.0, 5.0, 6.0]))
        maker = power_decay_cosine if kind == "cos" else power_decay_sine
        sig = maker(p, r=0, variation=1.0)
    index = st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=40).map(lambda m: m * N),
        st.integers(min_value=0, max_value=300_000),
    )
    return sig, draw(st.lists(index, min_size=1, max_size=30))


@settings(max_examples=200, deadline=None)
@given(signals_and_indices())
def test_true_coefficient_scalar_and_array_calls_agree_bitwise(case):
    sig, ks = case
    a, b = true_coefficient(sig, np.array(ks))
    assert a.shape == b.shape == (len(ks),)
    for i, k in enumerate(ks):
        sa, sb = true_coefficient(sig, k)
        assert type(sa) is float and type(sb) is float
        assert np.array([sa, sb]).tobytes() == np.array([a[i], b[i]]).tobytes(), k


def test_true_coefficient_refuses_bad_indices_in_an_array():
    sig = power_decay_cosine(4)
    for bad in ([1, -1], [1.5], np.array([2, 3.25])):
        with pytest.raises(ValueError):
            true_coefficient(sig, bad)


@pytest.mark.parametrize("name", ["harmonic-mixed", "power-cos-4", "power-sin-3"])
def test_decay_bound_array_matches_scalar_calls(name, suite):
    sig = suite[name]
    k = np.arange(1, 300)
    bound = coefficient_bound(sig.smoothness, k)
    assert bound.tolist() == [coefficient_bound(sig.smoothness, int(j)) for j in k]


# -- decay bound ------------------------------------------------------------


def test_coefficient_bound_arithmetic():
    assert coefficient_bound(SmoothnessInfo(1, np.pi), 2) == pytest.approx(0.25)
    assert coefficient_bound(SmoothnessInfo(0, 1.0), 1) == pytest.approx(
        1 / np.pi, abs=1e-15
    )


def test_coefficient_bound_rejects_zero_index():
    with pytest.raises(ValueError):
        coefficient_bound(SmoothnessInfo(1, 1.0), 0)


@pytest.mark.parametrize("name", [
    "harmonic-single", "harmonic-mixed", "power-cos-2", "power-cos-4",
    "power-cos-6", "power-sin-3", "power-sin-5",
])
def test_decay_bound_holds_for_suite(name, suite):
    sig = suite[name]
    for k in range(1, 65):
        a, b = true_coefficient(sig, k)
        bound = coefficient_bound(sig.smoothness, k)
        assert abs(a) <= bound + 1e-15, (name, k)
        assert abs(b) <= bound + 1e-15, (name, k)


def test_power_cos4_bound_dominates_a8():
    sig = power_decay_cosine(4)
    assert coefficient_bound(sig.smoothness, 8) >= 8.0**-4


# -- invariants -------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=6.28, allow_nan=False))
def test_linearity_of_harmonic_sums(t):
    f = harmonic_sum([(1, 1.0, 0.5), (4, -0.3, 0.2)])
    g = harmonic_sum([(2, 0.7, 0.0), (4, 0.3, 1.0)])
    fg = harmonic_sum([(1, 1.0, 0.5), (2, 0.7, 0.0), (4, 0.0, 1.2)])
    assert abs(evaluate(f, t) + evaluate(g, t) - evaluate(fg, t)) < 1e-12


def test_parseval_spot_check():
    # (1/pi) * integral of f^2 equals a0^2/2 + sum(a^2 + b^2); the integral
    # side uses a plain dense trapezoid, exact for this trig polynomial.
    sig = harmonic_sum([(0, 0.6, 0.0), (1, 1.0, -0.5), (5, 0.25, 0.75)])
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    quad = 2.0 * float(np.mean(evaluate(sig, t) ** 2))
    a0 = true_coefficient(sig, 0)[0]
    series = a0**2 / 2 + sum(
        a * a + b * b for k, a, b in sig.terms if k >= 1
    )
    assert abs(quad - series) < 1e-9


def estimate_derivative_variation(signal, order):
    """Total variation of the order-th derivative on 2**16 uniform points.

    The estimate converges from below for continuous derivatives.
    """
    t = np.linspace(0.0, _series.TWO_PI, 2**16, endpoint=False)
    return grid_total_variation(derivative_values(signal, order, t))


def test_variation_closed_forms_match_grid_estimate():
    # The supplied pi^2/2 for the parity-matched families and the exact
    # single-harmonic value are both reproduced by the grid derivation.
    for sig in (power_decay_cosine(4), power_decay_cosine(6), power_decay_sine(3)):
        est = estimate_derivative_variation(sig, sig.smoothness.r)
        assert est <= sig.smoothness.variation + 1e-6
        assert est == pytest.approx(sig.smoothness.variation, rel=1e-3)
    single = harmonic_sum([(3, 2.0, 0.0)], r=2)
    est = estimate_derivative_variation(single, 2)
    assert est == pytest.approx(single.smoothness.variation, rel=1e-3)
    assert est <= single.smoothness.variation + 1e-6


# -- construction and serialization -----------------------------------------


def test_duplicate_harmonics_rejected():
    with pytest.raises(ValueError):
        harmonic_sum([(1, 1.0, 0.0), (1, 0.5, 0.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_harmonic_coefficients_are_named(bad):
    # harmonic_sum forms the variation from the terms, and used to refuse
    # them as "variation must be finite and >= 0".
    message = "harmonic coefficients must be finite"
    for terms in ([(1, bad, 0.0)], [(2, 1.0, bad), (1, 1.0, 0.0)]):
        with pytest.raises(ValueError, match=message):
            harmonic_sum(terms)
        doc = {"kind": HARMONIC_SUM, "terms": [list(t) for t in terms], "p": None, "r": 1,
               "variation": 1.0}
        with pytest.raises(ValueError, match=message):
            signal_from_json(doc)
        with pytest.raises(ValueError, match=message):
            signal_from_json(json.dumps(doc))


def test_harmonic_sum_checks_each_coefficient_once(monkeypatch):
    # Each term's two coefficients pass the float contract once and the
    # variation once; the constructor used to check the terms a second time.
    checked = []
    real = _series.real
    monkeypatch.setattr(_series, "real", lambda x, message: checked.append(x) or real(x, message))
    terms = [(3, 1.0, 0.5), (1, -0.25, 0.0), (2, 0.0, 2.0)]
    sig = harmonic_sum(terms, r=2)
    assert len(checked) == 2 * len(terms) + 1
    assert sig.terms == tuple(sorted(terms))
    assert sig.smoothness.variation == sum(4.0 * k**3 * math.hypot(a, b) for k, a, b in sorted(terms))
    assert sig == AnalyticSignal(HARMONIC_SUM, terms, None, sig.smoothness)


def test_constructor_sorts_the_terms_by_integer_index():
    # Unsorted terms used to read (0, 0) at every index, through a binary
    # search over an unsorted list.
    sig = AnalyticSignal(HARMONIC_SUM, ((3, 1.0, 0.0), (1.0, 2.0, 0.5)), None,
                         SmoothnessInfo(1, 1.0))
    assert sig.terms == ((1, 2.0, 0.5), (3, 1.0, 0.0))
    assert type(sig.terms[0][0]) is int
    assert true_coefficient(sig, 1) == (2.0, 0.5) and true_coefficient(sig, 3) == (1.0, 0.0)


def test_power_decay_needs_p_above_one():
    with pytest.raises(ValueError):
        power_decay_cosine(1.0, r=0, variation=1.0)


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
@pytest.mark.parametrize("factory", [power_decay_cosine, power_decay_sine])
def test_power_decay_needs_a_finite_p(factory, p):
    # p = inf used to construct and then fail at evaluation with
    # OverflowError; p = NaN passed the p > 1 test the same way. Without r
    # and variation both used to be refused for want of a smoothness class,
    # which named the wrong argument.
    with pytest.raises(ValueError, match="finite p > 1"):
        factory(p, r=1, variation=1.0)
    with pytest.raises(ValueError, match="finite p > 1"):
        factory(p)


@pytest.mark.parametrize("factory,p", [(power_decay_cosine, 4), (power_decay_sine, 3),
                                       (power_decay_cosine, 3)])
def test_power_decay_refuses_half_a_smoothness_class(factory, p):
    # A lone r or variation used to be dropped silently in favour of the
    # closed-form class (r = p - 2, variation pi^2/2).
    for half in ({"r": 5}, {"variation": 100.0}):
        with pytest.raises(ValueError, match="both r and variation"):
            factory(p, **half)


def test_parity_mismatch_needs_explicit_smoothness():
    # The refusal asks for a declared class: a grid estimate of the
    # variation converges from below, so it is no upper bound.
    for factory, p in ((power_decay_cosine, 3), (power_decay_sine, 2.5)):
        with pytest.raises(ValueError, match="declare r and an upper bound on the variation"):
            factory(p)
    sig = power_decay_cosine(3, r=1, variation=4.1)
    assert sig.smoothness.r == 1


def test_smoothness_validation():
    with pytest.raises(ValueError):
        SmoothnessInfo(-1, 1.0)
    with pytest.raises(ValueError):
        SmoothnessInfo(1, float("inf"))


def test_json_round_trip():
    for sig in (
        harmonic_sum([(0, 0.8, 0.0), (2, 1.0, -0.5)], r=2),
        power_decay_cosine(4),
        power_decay_sine(3),
    ):
        doc = json.loads(json.dumps(signal_to_json(sig)))
        back = signal_from_json(doc)
        assert back == sig


def test_json_field_names_fixed():
    doc = signal_to_json(power_decay_cosine(4))
    assert set(doc) == {"kind", "terms", "p", "r", "variation"}
