"""Raw gains, class sums, normalized gains and the filter-response table."""

import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigspec import (
    FilterVariant,
    KernelConfig,
    build_spline,
    class_table,
    filter_response,
    gain,
    make_grid,
    raw_gain,
    sample,
)
from trigspec import spline_kernel
from trigspec.errors import DegenerateKernelError
from trigspec.spline_kernel import class_partition_terms, class_tails, response_table_to_csv

from loglog import fit_loglog_slope
from spline_checks import assert_spline_values_hold, class_gain_sum_direct, long_harmonic_sum


def cfg(n, r, variant, **kw):
    return KernelConfig(
        grid=make_grid(n), order=r, variant=FilterVariant.from_string(variant), **kw
    )


def class_sums(c):
    # H_k = sigma_k (1 + rho_k), k = 1..n: response data.
    return filter_response(c, c.grid.n).class_sums


def constant_class_sum(c):
    # The H cell of the response row j = N; 17 digits give back its bits.
    N = c.grid.N
    return float(response_table_to_csv(filter_response(c, N)).splitlines()[N].split(",")[3])


# -- raw gains ---------------------------------------------------------------


def test_sinc_gain_at_zero():
    assert raw_gain(0, cfg(2, 1, "sinc")) == 1.0
    assert raw_gain(0, cfg(2, 4, "abs-sinc")) == 1.0


def test_sinc_gain_vanishes_at_multiples_of_N():
    c = cfg(2, 3, "sinc")
    for m in (1, 2, 7):
        assert raw_gain(m * c.grid.N, c) == 0.0


def test_inverse_power_gain():
    assert raw_gain(2, cfg(2, 1, "inv-power")) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        raw_gain(0, cfg(2, 1, "inv-power"))


def test_signed_sinc_gain_signs():
    # Odd power: the sign flips with each block of N.
    c = cfg(2, 2, "sinc")  # power 3
    N = c.grid.N
    assert raw_gain(1, c) > 0
    assert raw_gain(N + 1, c) < 0
    assert raw_gain(2 * N + 1, c) > 0
    # Even power: no signs anywhere.
    c2 = cfg(2, 3, "sinc")
    assert raw_gain(N + 1, c2) > 0


def test_raw_gain_precision_at_large_index():
    # sin(pi j / N) must come from the folded residue, not the huge argument.
    c = cfg(8, 3, "abs-sinc")
    N = c.grid.N
    j = 10_000 * N + 3
    expected = (np.sin(np.pi * 3 / N) * N / (np.pi * j)) ** 4
    assert raw_gain(j, c) == pytest.approx(expected, rel=1e-12)


# -- class sums ----------------------------------------------------------------


def test_class_sum_inverse_power_matches_brute_oracle():
    # N=5, r=1, k=1: oracle is direct summation to m = 1e6.
    c = cfg(2, 1, "inv-power")
    oracle = class_gain_sum_direct(1, c, 1_000_000)
    assert oracle == pytest.approx(1.1426738, abs=1e-5)
    H = class_sums(c)[0]
    assert H == pytest.approx(1.1426740537, abs=1e-9)
    assert H == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power", "sinc"])
@pytest.mark.parametrize("r", [1, 2, 3, 10])
def test_class_sum_matches_direct_summation(variant, r):
    c = cfg(8, r, variant)
    for k in (1, 3, 8):
        direct = class_gain_sum_direct(k, c, 4000)
        # Direct truncation is the limited side; its tail is O(m^-r).
        tol = max(10.0 * 4000.0**-r, 1e-13)
        assert class_sums(c)[k - 1] == pytest.approx(direct, abs=tol)


def test_abs_sinc_class_sum_exceeds_own_gain():
    c = cfg(8, 3, "abs-sinc")
    sums = class_sums(c)
    for k in range(1, 9):
        assert sums[k - 1] > raw_gain(k, c) > 0


def test_signed_equals_abs_for_odd_order():
    # Odd order means even power: the sign disappears termwise.
    c_signed = cfg(2, 1, "sinc")
    c_abs = cfg(2, 1, "abs-sinc")
    assert np.array_equal(class_sums(c_signed), class_sums(c_abs))
    assert class_table(c_signed) is class_table(c_abs)


def test_no_degenerate_class_sums_in_scan():
    # Signed sinc with odd power is the only candidate for cancellation;
    # scanning all small configurations finds none (the alternating fold
    # series stays above the in-band gain).
    for n in range(1, 17):
        for r in (2, 4, 6, 8, 10):
            c = cfg(n, r, "sinc")
            for k, H in enumerate(class_sums(c), start=1):
                sigma_k = raw_gain(k, c)
                assert sigma_k > 0
                # The alternating fold series is positive, so H stays at or
                # above the in-band gain (equality only when the tail is
                # below machine epsilon).
                assert H >= sigma_k * (1.0 - 1e-12), (n, r, k)


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power", "sinc"])
def test_class_table_at_order_200_gives_exact_splines(variant):
    # At n = 64, order 200, (N/pi)^201 overflows and k^-201 underflows; the
    # in-band gains 1/(1 + rho_k) form neither, and the spline they make is
    # exact.
    c = cfg(64, 200, variant)
    gains = class_table(c).gains
    assert np.all(np.isfinite(gains))
    if not c.signed:
        assert np.all((gains > 0.0) & (gains <= 1.0))
    samples = sample(long_harmonic_sum(), c.grid)
    assert_spline_values_hold(build_spline(samples, c), samples)


@pytest.mark.parametrize("variant, error", [("sinc", DegenerateKernelError)])
def test_zero_class_sum_names_its_cause(variant, error):
    # A class sum that cancels to zero relative to its in-band raw gain
    # (1 + rho_k = 0) is a degenerate signed family.
    c = cfg(8, 2, variant)
    assert c.signed
    with pytest.raises(error, match="signed sinc family degenerated"):
        spline_kernel._check_class_sums(c.signed, np.zeros(c.grid.n))


def test_class_gain_sum_at_order_200_is_raw_gain_over_band_gain():
    # The class sum is output data, sigma_k (1 + rho_k); at order 200 it is
    # the in-band raw gain over the in-band gain, and the spline is exact.
    c = cfg(64, 200, "abs-sinc")
    for k in (1, 32, 64):
        assert class_sums(c)[k - 1] == pytest.approx(raw_gain(k, c) / gain(k, c), rel=1e-15)
    samples = sample(long_harmonic_sum(), c.grid)
    assert_spline_values_hold(build_spline(samples, c), samples, grids=(1000,))


def test_class_table_order_150_still_builds():
    for variant in ("abs-sinc", "inv-power", "sinc"):
        sums = class_sums(cfg(64, 150, variant))
        assert np.all(np.isfinite(sums)) and np.all(sums > 0)


def test_dc_class_sum():
    assert constant_class_sum(cfg(2, 3, "abs-sinc")) == 1.0
    c = cfg(2, 1, "inv-power")
    m = np.arange(1.0, 200_000.0)
    oracle = 1.0 + 2.0 * float(np.sum((m * c.grid.N) ** -2.0))
    assert constant_class_sum(c) == pytest.approx(oracle, abs=1e-5)
    # gain at a multiple of N is sigma_j over the same normalizer.
    assert raw_gain(c.grid.N, c) / gain(c.grid.N, c) == pytest.approx(oracle, abs=1e-5)


# -- normalized gains -------------------------------------------------------------


def test_gain_times_class_sum_is_raw_gain():
    c = cfg(8, 3, "abs-sinc")
    for j in (1, 5, 9, 20, 40):
        k = min(j % c.grid.N, c.grid.N - j % c.grid.N)
        assert gain(j, c) * class_sums(c)[k - 1] == pytest.approx(
            raw_gain(j, c), rel=1e-14
        )


@pytest.mark.parametrize("variant,r", [("sinc", 2), ("sinc", 3), ("abs-sinc", 3), ("inv-power", 1)])
def test_gains_on_arrays_equal_scalar_calls(variant, r):
    c = cfg(8, r, variant)
    js = np.arange(1, 5 * c.grid.N + 1)
    raw = raw_gain(js, c)
    alpha = gain(js, c)
    for j, want_raw, want_alpha in zip(js.tolist(), raw, alpha):
        assert type(raw_gain(j, c)) is float and type(gain(j, c)) is float
        assert raw_gain(j, c) == want_raw
        assert gain(j, c) == want_alpha
    assert raw_gain(js.reshape(5, -1), c).shape == (5, c.grid.N)


@pytest.mark.parametrize("j", [1.5, 0, -2, np.array([1, 2.5, 3]), np.array([[1, 0]])])
def test_gain_refuses_bad_indices(j):
    # A non-integer index used to be truncated: gain(1.5) returned gain(1).
    with pytest.raises(ValueError, match="integer harmonic indices"):
        gain(j, cfg(4, 3, "abs-sinc"))


def test_gain_takes_integral_floats_as_their_integers():
    c = cfg(4, 3, "abs-sinc")
    assert gain(2.0, c) == gain(2, c)
    assert np.array_equal(gain(np.array([1.0, 9.0]), c), gain(np.array([1, 9]), c))


def test_gain_zero_at_multiples_of_N_for_sinc():
    c = cfg(2, 3, "abs-sinc")
    assert gain(c.grid.N, c) == 0.0
    assert gain(3 * c.grid.N, c) == 0.0


def test_gain_positive_and_bounded_in_band():
    for variant in ("abs-sinc", "inv-power"):
        for r in (1, 3, 10):
            c = cfg(16, r, variant)
            gains = gain(np.arange(1, 17), c)
            assert np.all(gains > 0)
            assert np.all(gains <= 1.0)


def test_direct_summation_refuses_oversized_m_terms():
    c = cfg(2, 1, "inv-power")
    with pytest.raises(ValueError):
        class_partition_terms(1, c, 10**6 + 1)
    with pytest.raises(ValueError, match="m_terms"):
        class_partition_terms(1, c, -1)


def test_partition_terms_refuse_a_fractional_m_terms():
    # m_terms = 2.5 used to sum the members to m = 3 and the tail from
    # m = 3.5, so partial + remainder missed 1 by 2.1e-5.
    c = cfg(4, 3, "abs-sinc")
    for bad in (2.5, float("nan")):
        with pytest.raises(ValueError, match="m_terms"):
            class_partition_terms(2, c, bad)
    partial, remainder = class_partition_terms(2, c, 2.0)
    assert (partial, remainder) == class_partition_terms(2, c, 2)


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("with_table", [False, True])
def test_partition_terms_reject_class_outside_band(k, with_table):
    # With a table, k = 0 used to read class_sums[-1] and return (2.83, 0.0).
    c = cfg(4, 1, "abs-sinc")
    table = filter_response(c, 9) if with_table else None
    with pytest.raises(ValueError, match="1..n"):
        class_partition_terms(k, c, 64, table)


def test_partition_terms_refuse_a_table_of_another_configuration():
    # An order-1 table with an order-3 configuration used to give
    # partial + remainder = 0.9604 at n = 4, k = 1, m_terms = 8.
    c = cfg(4, 3, "abs-sinc")
    with pytest.raises(ValueError, match="another"):
        class_partition_terms(1, c, 8, filter_response(cfg(4, 1, "abs-sinc"), 4))
    with pytest.raises(ValueError, match="another"):
        class_partition_terms(1, c, 8, filter_response(cfg(5, 3, "abs-sinc"), 5))
    with pytest.raises(ValueError, match="another"):
        class_partition_terms(1, cfg(4, 2, "sinc"), 8, filter_response(cfg(4, 2, "abs-sinc"), 4))
    # Gain families with the same signs share their per-class data.
    table = filter_response(cfg(4, 3, "inv-power"), 4)
    assert class_partition_terms(1, c, 8, table) == class_partition_terms(1, c, 8)


def test_partition_of_unity_residue_cross_check():
    # alpha(1) computed directly equals 1 minus the summed rest of its class.
    c = cfg(16, 3, "abs-sinc")
    direct = gain(1, c)
    partial, remainder = class_partition_terms(1, c, 2000)
    rest = partial - direct + remainder
    assert direct == pytest.approx(1.0 - rest, abs=1e-9)


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power", "sinc"])
@pytest.mark.parametrize("r", [1, 3, 10])
def test_partition_of_unity(variant, r):
    c = cfg(8, r, variant)
    for k in (1, 4, 8):
        partial, remainder = class_partition_terms(k, c, 64)
        assert partial + remainder == pytest.approx(1.0, abs=1e-9)


# -- class tails -----------------------------------------------------------------

# Members of each branch summed directly; the rest is bounded.
_DIRECT_MEMBERS = 2000


def _branch_oracle(e, k, above, N, signed, sign):
    # (sum, bound on |error|) for one branch, j = mN + sign k, of class k's
    # tail above the cut: the first member is found by stepping, each term
    # is k^e / j^e correctly rounded (Python's integer division) and the
    # direct terms are added by math.fsum. The unsigned rest lies between
    # the integrals of (k/(j_M + xN))^e from x = 0 and from x = -1/2 (the
    # terms are convex in the member index), the alternating rest between
    # 0 and its first term.
    j = k if sign > 0 else N - k
    while j <= above:
        j += N
    members = range(j, j + _DIRECT_MEMBERS * N, N)
    terms = [(-1) ** (m // N if signed else 0) * (k**e / m**e) for m in members]
    direct = math.fsum(terms)
    j_rest = j + _DIRECT_MEMBERS * N
    if signed:
        first = k**e / j_rest**e
        mid, half = 0.0, first
    else:
        lo = k / (N * (e - 1)) * (k / j_rest) ** (e - 1)
        hi = k / (N * (e - 1)) * (k / (j_rest - N / 2)) ** (e - 1)
        mid, half = (lo + hi) / 2, (hi - lo) / 2 * (1 + 1e-12)
    size = math.fsum(map(abs, terms)) + abs(mid) + half
    return direct + mid, half + 32 * np.finfo(float).eps * size


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_tails_match_direct_sums(data):
    # Every cut from 0 to 8N, below k and between multiples of N included,
    # both sign patterns, and k as a scalar and inside an array.
    n = data.draw(st.integers(1, 64), label="n")
    N = 2 * n + 1
    e = data.draw(st.integers(2, 40), label="e")
    k = data.draw(st.integers(1, n), label="k")
    above = data.draw(st.integers(0, 8 * N), label="above")
    signed = data.draw(st.booleans(), label="signed")
    plus, minus = class_tails(e, k, above, N, signed)
    for got, sign in ((plus, 1), (minus, -1)):
        want, tol = _branch_oracle(e, k, above, N, signed, sign)
        assert abs(float(got) - want) <= tol, (sign, got, want, tol)
    ks = np.arange(1, n + 1)
    many = class_tails(e, ks, np.full(n, above), N, signed)
    assert [float(x[k - 1]) for x in many] == [float(plus), float(minus)]


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power", "sinc"])
@pytest.mark.parametrize("r", [1, 2, 10])
def test_class_table_normalizers_are_tails_above_k(variant, r):
    # 1 + rho_k is one plus the class's signed tails above k, bit for bit.
    c = cfg(9, r, variant)
    k = np.arange(1, 10)
    plus, minus = class_tails(c.power, k, k, c.grid.N, c.signed)
    assert class_table(c).norms.tobytes() == (1.0 + (plus + minus)).tobytes()


def test_abs_sinc_and_inverse_power_gains_coincide_off_dc():
    # |sin(pi j/N)| is constant on an alias class, so it cancels in the
    # normalization: both families give the same filter away from the
    # constant class.
    for r in (1, 3, 10):
        c_abs = cfg(8, r, "abs-sinc")
        c_inv = cfg(8, r, "inv-power")
        js = np.arange(1, 6 * 17)
        js = js[js % 17 != 0]
        assert np.allclose(
            gain(js, c_abs), gain(js, c_inv), rtol=1e-12, atol=1e-15
        )


GAIN_REFERENCE = Path(__file__).parent / "data" / "gain_reference.json"


def _reference_error(got, refs):
    # Largest |got - ref| / (4 eps |ref| + 2^-1074), computed exactly in
    # decimal: a reference below the float range may be matched by zero or
    # a subnormal, within one subnormal spacing.
    worst = Decimal(0)
    for value, text in zip(got.tolist(), refs):
        ref = Decimal(text)
        allowed = 4 * Decimal(2) ** -52 * abs(ref) + Decimal(2) ** -1074
        worst = max(worst, abs(Decimal(value) - ref) / allowed)
    return worst


@pytest.mark.parametrize(
    "entry", json.loads(GAIN_REFERENCE.read_text())["configs"],
    ids=lambda e: f"n{e['n']}-r{e['order']}-{e['variant']}",
)
def test_gains_match_40_digit_reference(entry):
    # tools/gain_reference.py evaluates sigma_j / H_k with mpmath; every gain
    # and every in-band gain 1/(1 + rho_k) lies within 4 eps of it.
    c = cfg(entry["n"], entry["order"], entry["variant"])
    js = np.arange(1, len(entry["gains"]) + 1)
    assert _reference_error(gain(js, c), entry["gains"]) <= 1
    assert _reference_error(class_table(c).gains, entry["band_gains"]) <= 1


# -- filter response ----------------------------------------------------------------


def test_response_monotone_decay_in_band():
    table = filter_response(cfg(16, 1, "abs-sinc"), 40)
    in_band = table.gains[:16]
    assert np.all(np.diff(in_band) < 0)
    assert table.gains[0] > table.gains[15]


def test_response_band_edge_ordering_increases_with_order():
    # At the last in-band harmonic the sharper filter is *closer* to the
    # ideal brick wall, so its gain is higher; the classic
    # steeper-lies-lower picture only holds beyond the band edge.
    tables = {
        r: filter_response(cfg(16, r, "abs-sinc"), 40) for r in (1, 3, 10)
    }
    edge = {r: t.gains[15] for r, t in tables.items()}
    assert edge[10] > edge[3] > edge[1]
    beyond = {r: t.gains[17] for r, t in tables.items()}  # j = n + 2
    assert beyond[10] < beyond[3] < beyond[1]


def test_response_class_partition_from_table():
    table = filter_response(cfg(2, 3, "abs-sinc"), 2000)
    N = table.config.grid.N
    js = np.arange(1, 2001)
    mask = np.minimum(js % N, N - js % N) == 1
    # Truncated class sum plus its exact remainder.
    _, remainder = class_partition_terms(1, table.config, 400)
    assert float(np.sum(table.gains[mask])) + remainder == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("variant", ["abs-sinc", "inv-power"])
@pytest.mark.parametrize("r", [1, 3, 10])
def test_gain_decay_slope(variant, r):
    c = cfg(8, r, variant)
    N = c.grid.N
    js = np.arange(2 * N, 16 * N + 1)
    js = js[js % N != 0]
    slope = fit_loglog_slope(js, gain(js, c))
    assert abs(slope - (-(1 + r))) < 0.3


def test_response_requires_band_coverage():
    with pytest.raises(ValueError):
        filter_response(cfg(16, 1, "abs-sinc"), 10)


def test_response_refuses_a_fractional_j_max():
    # j_max = 10.5 used to give a table of 11 gains labelled j_max = 10,
    # whose CSV then dropped the last gain.
    c = cfg(4, 1, "abs-sinc")
    for bad in (10.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="integer"):
            filter_response(c, bad)
    table = filter_response(c, 10.0)
    assert table.j_max == 10 and table.gains.size == 10


def test_response_csv_shape():
    table = filter_response(cfg(2, 1, "abs-sinc"), 12)
    lines = response_table_to_csv(table).splitlines()
    assert lines[0] == "j,k_class,sigma,H,alpha"
    assert len(lines) == 13
    # The j = N row sits in the constant class with zero gain.
    row = lines[5].split(",")
    assert row[1] == "0"
    assert float(row[4]) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(2, 0, "abs-sinc")
    with pytest.raises(ValueError):
        cfg(2, 1, "abs-sinc", tail_tol=0.0)
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        cfg(2, 1, "abs-sinc", tail_tol=float("nan"))
    with pytest.raises(ValueError):
        FilterVariant.from_string("nonsense")
