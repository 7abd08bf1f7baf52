"""One integer contract: every index, count and order the package takes passes `_series.integers`.

Each site refuses a fractional, infinite or NaN value and one below its
lowest (or above its highest) with its own ValueError message; the array
sites refuse 2^63, outside int64, too. A value the contract accepts
reaches the computation as an integer. Its float twin, `_series.reals`,
holds for the float fields read from JSON and the terms of a harmonic
sum: each refuses a numeric string, a non-finite value and a list with
its own message, and a value it accepts is stored as a float.
"""

import math
import re

import numpy as np
import pytest

from trigspec import _series
from trigspec.alias_analysis import (
    aliasing_error_bound,
    band_component,
    folded_coefficients,
    time_domain_overlay_bound,
)
from trigspec.filon_oracle import (
    diff_variation_bound,
    filon_coeffs,
    quad_fourier_coeff,
    refined_error_bound,
)
from trigspec.sampling import (
    discrete_coeffs,
    extended_coefficient,
    make_grid,
    sample,
    uniform_values,
)
from trigspec.signal_model import (
    HARMONIC_SUM,
    POWER_DECAY_COSINE,
    AnalyticSignal,
    SmoothnessInfo,
    coefficient_bound,
    derivative_values,
    harmonic_sum,
    power_decay_cosine,
    signal_from_json,
    true_coefficient,
)
from trigspec.spline_kernel import (
    FilterVariant,
    KernelConfig,
    class_partition_terms,
    class_tails,
    filter_response,
    gain,
    raw_gain,
)
from trigspec.trig_spline import (
    build_spline,
    curvature_functional,
    spline_fourier_coeff,
    spline_from_json,
    spline_to_json,
    unfolded_spectrum,
    values_on_uniform_grid,
)

GRID = make_grid(4)
CONFIG = KernelConfig(grid=GRID, order=3, variant=FilterVariant.ABS_SINC_POWER)
SIGNAL = power_decay_cosine(4)
COSINE = harmonic_sum([(1, 1.0, 0.0)], r=3)
SPECTRUM = discrete_coeffs(sample(SIGNAL, GRID))
SPLINE = build_spline(sample(SIGNAL, GRID), CONFIG)
SPLINE_DOC = spline_to_json(SPLINE)
SIGNAL_DOC = {"kind": HARMONIC_SUM, "terms": [[1, 1.0, 0.0]], "p": None, "r": 1,
              "variation": 4.0}


def _spline_doc(**fields):
    return {**SPLINE_DOC, **fields}


def _rows(j):
    # A coeffs list with one row per index in j.
    return [[x, 0.5, 0.0] for x in np.atleast_1d(j).tolist()]


# (site, call of the integer argument x, lowest, highest or None, message,
# whether the site takes an index array).
SITES = [
    ("UniformGrid n", make_grid, 1, 2**24, "grid parameter n must be an integer in 1..16777216",
     False),
    ("extended_coefficient j", lambda x: extended_coefficient(SPECTRUM, x), 1, None,
     "extended index must be an integer >= 1", True),
    ("SmoothnessInfo r", lambda x: SmoothnessInfo(r=x, variation=1.0), 0, None,
     "smoothness order r must be >= 0", False),
    ("AnalyticSignal term index",
     lambda x: AnalyticSignal(HARMONIC_SUM, ((x, 1.0, 0.0),), None, SmoothnessInfo(1, 1.0)),
     0, None, "harmonic indices must be integers >= 0", False),
    ("harmonic_sum term index", lambda x: harmonic_sum([(x, 1.0, 0.0)]), 0, None,
     "harmonic indices must be integers >= 0", False),
    ("signal_from_json term index",
     lambda x: signal_from_json({**SIGNAL_DOC, "terms": [[x, 1.0, 0.0]]}), 0, None,
     "harmonic indices must be integers >= 0", False),
    ("signal_from_json r", lambda x: signal_from_json({**SIGNAL_DOC, "r": x}), 0, None,
     "smoothness order r must be >= 0", False),
    ("AnalyticSignal.fourier_series j_max", lambda x: SIGNAL.fourier_series(x), 0, None,
     "j_max must be an integer >= 0", False),
    ("derivative_values order", lambda x: derivative_values(SIGNAL, x, 0.5), 0, None,
     "derivative order must be an integer >= 0", False),
    ("true_coefficient k", lambda x: true_coefficient(SIGNAL, x), 0, None,
     "coefficient index must be an integer >= 0", True),
    ("coefficient_bound k", lambda x: coefficient_bound(SIGNAL.smoothness, x), 1, None,
     "decay bound is defined for integer k >= 1", True),
    ("KernelConfig order",
     lambda x: KernelConfig(grid=GRID, order=x, variant=FilterVariant.ABS_SINC_POWER), 1, None,
     "spline order must be an integer >= 1", False),
    ("raw_gain j", lambda x: raw_gain(x, CONFIG), 0, None, "harmonic index must be >= 0", True),
    ("gain j", lambda x: gain(x, CONFIG), 1, None,
     "gain is defined for integer harmonic indices j >= 1", True),
    ("filter_response j_max", lambda x: filter_response(CONFIG, x), GRID.n, None,
     "j_max must be an integer covering the band (j_max >= n)", False),
    ("class_partition_terms k", lambda x: class_partition_terms(x, CONFIG, 8), 1, GRID.n,
     "class representative k must lie in 1..n", False),
    ("class_partition_terms m_terms", lambda x: class_partition_terms(1, CONFIG, x), 0, 10**6,
     "m_terms must be an integer in 0..1000000", False),
    ("class_tails e", lambda x: class_tails(x, 1, 0, 9), 2, None,
     "exponent e must be an integer >= 2", False),
    ("class_tails k", lambda x: class_tails(4, x, 0, 9), 1, 4,
     "class k must be an integer in 1..(N - 1)/2", True),
    ("class_tails above", lambda x: class_tails(4, 1, x, 9), 0, 2**51,
     "cut above must be an integer in 0..2251799813685248", True),
    ("class_tails N", lambda x: class_tails(4, 1, 0, x), 3, 2**25 + 1,
     "N must be an integer in 3..33554433", False),
    ("values_on_uniform_grid points", lambda x: values_on_uniform_grid(SPLINE, x), 1, 2**32,
     "points must be an integer in 1..4294967296", False),
    ("uniform_values points", lambda x: uniform_values(SIGNAL, x), 1, 2**32,
     "points must be an integer in 1..4294967296", False),
    ("spline_fourier_coeff j", lambda x: spline_fourier_coeff(SPLINE, x), 1, None,
     "coefficient index must be an integer >= 1", False),
    ("unfolded_spectrum j_max", lambda x: unfolded_spectrum(SPLINE, x), 1, 2**32,
     "j_max must be an integer in 1..4294967296", False),
    ("curvature_functional order", lambda x: curvature_functional(SPLINE, x), 0, None,
     "derivative order must be an even integer >= 0", False),
    ("spline_from_json N", lambda x: spline_from_json(_spline_doc(N=x)), 3, None,
     "field 'N' must be an odd integer >= 3", False),
    ("spline_from_json r", lambda x: spline_from_json(_spline_doc(r=x)), 1, None,
     "spline order must be an integer >= 1", False),
    ("spline_from_json row index",
     lambda x: spline_from_json(_spline_doc(coeffs=_rows(x))), 1, None,
     "field 'coeffs' needs distinct integer row indices >= 1", True),
    ("folded_coefficients k", lambda x: folded_coefficients(SIGNAL, GRID, x), 0, GRID.n,
     "band class k must lie in 0..n", True),
    ("aliasing_error_bound k", lambda x: aliasing_error_bound(x, GRID, SIGNAL.smoothness), 1,
     GRID.n, "band index k must lie in 1..n", True),
    ("band_component n", lambda x: band_component(SIGNAL, x, 0.5), 1, None,
     "band size n must be an integer >= 1", False),
    ("time_domain_overlay_bound n", lambda x: time_domain_overlay_bound(x, SIGNAL.smoothness), 1,
     None, "n must be an integer >= 1", False),
    ("quad_fourier_coeff k", lambda x: quad_fourier_coeff(COSINE, x), 0, 2**26,
     "coefficient index k must be an integer in 0..67108864", False),
    ("filon_coeffs k_range", lambda x: filon_coeffs(COSINE, (0, x)), 0, None,
     "k_range must be a pair of integers >= 0", False),
    ("refined_error_bound k", lambda x: refined_error_bound(x, 1, 1.0), 1, None,
     "bound is defined for integer k >= 1", True),
    ("refined_error_bound q", lambda x: refined_error_bound(1, x, 1.0), 0, None,
     "q must be >= 0", False),
    ("diff_variation_bound q", lambda x: diff_variation_bound(COSINE, SPLINE, x), 0, None,
     "q must be >= 0", False),
]
IDS = [site[0] for site in SITES]


def _bad_values(lowest, highest, array):
    bad = [2.5, math.inf, -math.inf, math.nan, lowest - 1, float(lowest - 1), "3",
           np.array(["3"])]
    if highest is not None:
        bad += [highest + 1, highest + 0.5]
    if array:
        # 2^63 lies outside int64, as a uint64 array and as a float.
        bad += [2**63, np.array([lowest, 2**63]), np.array([lowest, 2.0**63])]
        bad += [np.array([lowest, x]) for x in (2.5, math.inf, math.nan, lowest - 1)]
    else:
        # A scalar site refuses a one-entry list or array: spline_fourier_coeff
        # used to return the first entry's pair.
        bad += [[lowest], np.array([lowest])]
    return bad


@pytest.mark.parametrize("site, call, lowest, highest, message, array", SITES, ids=IDS)
def test_every_site_refuses_what_is_not_an_integer_in_range(site, call, lowest, highest,
                                                            message, array):
    for x in _bad_values(lowest, highest, array):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(x)


@pytest.mark.parametrize("site, call, lowest, highest, message, array", SITES, ids=IDS)
def test_every_site_takes_its_lowest_and_highest(site, call, lowest, highest, message, array):
    # An integral float is its integer; the fold count is kept small.
    for x in (lowest, float(lowest), np.int64(lowest)):
        call(x)
    if highest is not None and highest <= 64:
        call(highest)


def test_filon_coeffs_refuses_a_range_that_is_not_a_pair():
    # (1, 2, 3) used to fail on unpacking, with "too many values to unpack".
    for k_range in ((1, 2, 3), (1,), 5):
        with pytest.raises(ValueError, match="k_range must be a pair of integers >= 0"):
            filon_coeffs(COSINE, k_range)


def _bits(out):
    # Shape and bytes of a result: an array or a pair of arrays.
    return [(part.shape, part.tobytes()) for part in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("fn", [
    lambda j: gain(j, CONFIG),
    lambda j: extended_coefficient(SPECTRUM, j),
    lambda j: true_coefficient(SIGNAL, j),
    lambda j: true_coefficient(COSINE, j),
], ids=["gain", "extended_coefficient", "true_coefficient power", "true_coefficient sum"])
def test_integer_and_float_index_arrays_give_the_same_bits(fn):
    js = np.array([[1, 2, 9, 10], [11, 27, 45, 1000]], dtype=np.int64)
    assert _bits(fn(js)) == _bits(fn(js.astype(float)))
    assert _bits(fn(js))[0][0] == js.shape


def test_integers_returns_a_python_int_or_an_int64_array():
    for x in (7, 7.0, np.int64(7), np.float32(7.0), np.array(7)):
        out = _series.integers(x, 0, "bad")
        assert type(out) is int and out == 7
    arr = np.arange(5, dtype=np.int64)
    assert _series.integers(arr, 0, "bad") is arr        # no copy on the fast path
    for x in ([1.0, 2.0], np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint64)):
        out = _series.integers(x, 0, "bad")
        assert out.dtype == np.int64 and out.tolist() == [1, 2]
    assert _series.integers(np.zeros((0, 3)), 1, "bad").shape == (0, 3)
    assert _series.integers(2**63 - 1, 0, "bad") == 2**63 - 1


@pytest.mark.parametrize("x", [2**63, -(2**63) - 1, 2**70, np.array([2**70]), 2.0**63,
                               np.array([2**63], dtype=np.uint64), -(2.0**64), None])
def test_integers_refuses_values_outside_int64(x):
    with pytest.raises(ValueError, match="^bad$"):
        _series.integers(x, -(2**63), "bad")


def test_orders_are_stored_as_python_ints():
    # A float order used to be stored as given, and written to JSON as 3.0.
    config = KernelConfig(grid=GRID, order=3.0, variant=FilterVariant.ABS_SINC_POWER)
    assert type(config.order) is int and config == CONFIG
    assert type(SmoothnessInfo(r=np.int64(2), variation=1.0).r) is int
    spline = build_spline(sample(SIGNAL, GRID), config)
    assert spline_to_json(spline) == SPLINE_DOC and type(spline_to_json(spline)["r"]) is int


POWER_DOC = {"kind": POWER_DECAY_COSINE, "terms": [], "p": 4.0, "r": 2, "variation": 4.0}


def _coeffs_with(x):
    # SPLINE_DOC's rows with the first row's cosine value replaced by x.
    rows = [list(row) for row in SPLINE_DOC["coeffs"]]
    rows[0][1] = x
    return rows


# (site, call of the float argument x, its value as stored, message).
FLOAT_SITES = [
    ("signal_from_json term a", lambda x: signal_from_json({**SIGNAL_DOC, "terms": [[1, x, 0.0]]}),
     lambda s: s.terms[0][1], "harmonic coefficients must be finite"),
    ("signal_from_json term b", lambda x: signal_from_json({**SIGNAL_DOC, "terms": [[1, 0.0, x]]}),
     lambda s: s.terms[0][2], "harmonic coefficients must be finite"),
    ("signal_from_json p", lambda x: signal_from_json({**POWER_DOC, "p": x}), lambda s: s.p,
     "power-decay kinds need a finite p > 1"),
    ("signal_from_json variation", lambda x: signal_from_json({**SIGNAL_DOC, "variation": x}),
     lambda s: s.smoothness.variation, "variation must be finite and >= 0"),
    ("harmonic_sum term a", lambda x: harmonic_sum([(1, x, 0.0)]), lambda s: s.terms[0][1],
     "harmonic coefficients must be finite"),
    ("spline_from_json a0", lambda x: spline_from_json(_spline_doc(a0=x)),
     lambda s: s.spectrum.a0, "coefficients must be finite"),
    ("spline_from_json row value", lambda x: spline_from_json(_spline_doc(coeffs=_coeffs_with(x))),
     None, "coefficients must be finite"),
]
FLOAT_IDS = [site[0] for site in FLOAT_SITES]


@pytest.mark.parametrize("site, call, stored, message", FLOAT_SITES, ids=FLOAT_IDS)
def test_every_float_site_refuses_what_is_not_a_finite_number(site, call, stored, message):
    # '1.0', '4.0' and '4' used to be parsed by float(); 10^400 is an
    # integer beyond the float range.
    for x in ("1.0", "4.0", "4", np.array(["4.0"]), None, math.inf, -math.inf, math.nan, 10**400,
              [4.0], np.array([4.0]), np.array(4.0)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(x)


@pytest.mark.parametrize("site, call, stored, message", FLOAT_SITES, ids=FLOAT_IDS)
def test_every_float_site_takes_a_number_as_a_float(site, call, stored, message):
    for x in (4.0, 4, np.float64(4.0), np.float32(4.0), np.int64(4), np.uint64(4)):
        built = call(x)
        if stored is not None:
            assert type(stored(built)) is float and stored(built) == 4.0
