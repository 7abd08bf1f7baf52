"""Periodic test signals with analytically known Fourier coefficients.

Every later identity and bound in the package is checked against these
signals, so the module keeps evaluation *exact*: finite harmonic sums are
summed term by term, and the power-decay families use Bernoulli-polynomial
closed forms whenever the decay exponent's parity matches the series
(cosine with even integer p, sine with odd integer p). Every other
exponent, integer or not, is the real or imaginary part of the
polylogarithm Li_p(e^(it)), also a closed form exact to rounding.

On the uniform grid 2*pi*g/G (:func:`grid_values`, which sampling, the
quadrature oracle and the CLI use) a harmonic sum takes exact phases:
cos/sin(2*pi*m/G) read from a table at m = k*g mod G, reduced in integers
(``_kernels.grid_series``), so each value lies within (3 + M/2) eps
sum_k (|a_k| + |b_k|) of the exact sum of its M terms, the k = 0 term
counted as a_0/2. At any other points, and for every derivative, it goes
through the one scattered evaluator, ``_kernels.point_series``: each term
is a cos(kt) + b sin(kt) of the rounded product kt, added in index order,
so a point has the same bits alone as inside any array.

A signal carries its smoothness class: the order ``r`` of the derivative
that still has bounded variation, and an upper bound on that variation.
Those two numbers feed every decay and aliasing bound downstream.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _series

HARMONIC_SUM = "HarmonicSum"
POWER_DECAY_COSINE = "PowerDecayCosine"
POWER_DECAY_SINE = "PowerDecaySine"

_KINDS = (HARMONIC_SUM, POWER_DECAY_COSINE, POWER_DECAY_SINE)
_VARIATION = "variation must be finite and >= 0"


@dataclass(frozen=True)
class SmoothnessInfo:
    """Smoothness class of a periodic signal.

    Attributes
    ----------
    r : int
        Order of the derivative with bounded variation (r >= 0).
    variation : float
        Upper bound on the total variation of that derivative over one
        period.
    """

    r: int
    variation: float

    def __post_init__(self):
        r = _series.integer(self.r, 0, "smoothness order r must be >= 0")
        object.__setattr__(self, "r", r)
        if _series.real(self.variation, _VARIATION) < 0:
            raise ValueError(_VARIATION)


@dataclass(frozen=True)
class AnalyticSignal:
    """A 2*pi-periodic signal with closed-form Fourier coefficients.

    Use the factory functions :func:`harmonic_sum`,
    :func:`power_decay_cosine` and :func:`power_decay_sine` rather than
    the constructor. Instances are immutable and safe to share.
    """

    kind: str
    terms: tuple  # ((k, a_k, b_k), ...) sorted by integer k for HarmonicSum; () otherwise
    p: float | None
    smoothness: SmoothnessInfo
    # The terms as read-only arrays (int64 k, float a_k, float b_k), built
    # once; empty for the power-decay kinds.
    term_arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.kind == HARMONIC_SUM:
            object.__setattr__(self, "terms", _sorted_terms(self.terms))
        else:
            object.__setattr__(self, "p", _check_power(self.p))
            if self.terms:
                raise ValueError("power-decay kinds take no term list")
        columns = tuple(zip(*self.terms)) or ((), (), ())
        arrays = tuple(np.array(c, dtype=d) for c, d in zip(columns, (np.int64, float, float)))
        for x in arrays:
            x.setflags(write=False)
        ks, _, b = arrays
        # The terms are sorted, so a repeated index follows its first row.
        if ks.size and ks[0] == 0 and b[0] != 0.0:
            raise ValueError("the k=0 term carries only a cosine coefficient")
        repeated = ks[1:][ks[1:] == ks[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate harmonic index {repeated[0]}")
        object.__setattr__(self, "term_arrays", arrays)

    # -- evaluation ------------------------------------------------------

    def __call__(self, t):
        return evaluate(self, t)

    def true_coefficient(self, k):
        return true_coefficient(self, k)

    def grid_values(self, points):
        return grid_values(self, points)

    def fourier_series(self, j_max=None):
        """Truncated coefficient view (a0, a[1..j_max], b[1..j_max]).

        For harmonic sums the default j_max is the largest harmonic (an
        exact view); power-decay kinds must say how far to truncate.
        """
        if j_max is None:
            if self.kind != HARMONIC_SUM:
                raise ValueError("specify j_max for power-decay kinds")
            j_max = max((k for k, _, _ in self.terms), default=1)
        j_max = _series.integer(j_max, 0, "j_max must be an integer >= 0")
        a, b = true_coefficient(self, np.arange(1, j_max + 1))
        return true_coefficient(self, 0)[0], a, b


def _power_eval(kind, p, t):
    """``sum_{k>=1} k^-p cos(kt)`` (cosine kind) or ``... sin(kt)`` (sine kind).

    Bernoulli closed forms where the parity matches, Re/Im Li_p(e^(it))
    otherwise; shape follows t.
    """
    if _parity_matched(kind, p):
        return _series.fourier_power(int(p), t)
    li = _series.polylog_unit(p, t)
    return li.real if kind == POWER_DECAY_COSINE else li.imag


def evaluate(signal, t):
    """Signal value f(t); scalar in, scalar out; arrays pass through.

    Raises a domain error on non-finite input. 2*pi-periodicity is exact
    because angles are reduced before evaluation.
    """
    vals = derivative_values(signal, 0, t)
    return vals if np.ndim(t) else float(vals)


def grid_values(signal, points):
    """Signal values at t_g = 2*pi*g/G, g = 0..G-1, G = points.

    A harmonic sum is evaluated with exact phases by
    ``_kernels.grid_series`` over its terms in index order, the k = 0 term
    as a_0/2, each value within (3 + M/2) eps sum_k (|a_k| + |b_k|) of the
    exact sum of its M terms. A power-decay signal is :func:`evaluate` at
    the points 2*pi*g/G, with the same bits. `points` is an integer in
    1..2^32, refused with ValueError before anything is allocated.
    """
    top = _kernels._MAX_GRID
    G = _series.integer(points, 1, f"points must be an integer in 1..{top}", top)
    if signal.kind != HARMONIC_SUM:
        return evaluate(signal, 2.0 * np.pi * np.arange(G) / G)
    ks, a, b = signal.term_arrays
    return _kernels.grid_series(ks, np.where(ks == 0, 0.5 * a, a), b, G)


def true_coefficient(signal, k):
    """Exact Fourier coefficients (a_k, b_k); k = 0 gives (a_0, 0).

    k is an index or an index array: a pair of floats or a pair of arrays
    shaped like k. Powers go through the ``np.power`` ufunc, so an index
    gives the same bits alone as inside an array.
    """
    k = _series.integers(k, 0, "coefficient index must be an integer >= 0")
    if signal.kind == HARMONIC_SUM:
        # The sorted term arrays with a sentinel row (-1, 0, 0), which every
        # index absent from the sum reads.
        ks, a, b = (np.append(x, y) for x, y in zip(signal.term_arrays, (-1, 0.0, 0.0)))
        at = np.searchsorted(ks[:-1], k)
        at = np.where(ks[at] == k, at, ks.size - 1)
        a, b = a[at], b[at]
    else:
        mag = np.where(k == 0, 0.0, np.power(np.maximum(k, 1).astype(float), -signal.p))
        zeros = np.zeros(np.shape(k))
        a, b = (mag, zeros) if signal.kind == POWER_DECAY_COSINE else (zeros, mag)
    return (a, b) if np.ndim(k) else (float(a), float(b))


def coefficient_bound(smoothness, k):
    """Decay bound (1/pi) * variation / k^(r+1), valid for |a_k| and |b_k|.

    Defined for k >= 1 only; k is an index or an index array, as in
    :func:`true_coefficient`.
    """
    k = _series.integers(k, 1, "decay bound is defined for integer k >= 1")
    power = np.power(np.asarray(k, dtype=float), smoothness.r + 1)
    bound = smoothness.variation / (math.pi * power)
    return bound if np.ndim(k) else float(bound)


# -- factories -----------------------------------------------------------


def harmonic_sum(terms, r=1):
    """Finite harmonic sum with exact smoothness bookkeeping.

    Parameters
    ----------
    terms : iterable of (k, a_k, b_k)
        Harmonic indices (k=0 allowed for the constant coefficient) and
        coefficients.
    r : int
        Smoothness order to declare. The variation of the r-th derivative
        is bounded by ``sum_k 4 k^(r+1) sqrt(a_k^2+b_k^2)`` (exact for a
        single harmonic, subadditive upper bound otherwise).
    """
    terms = _sorted_terms(terms)
    variation = sum(
        4.0 * k ** (r + 1) * math.hypot(a, b) for k, a, b in terms if k >= 1
    )
    return AnalyticSignal(
        kind=HARMONIC_SUM,
        terms=terms,
        p=None,
        smoothness=SmoothnessInfo(r=r, variation=variation),
    )


_SAWTOOTH_VARIATION = math.pi**2 / 2.0  # integral of |pi - t|/2 over one period


def _sorted_terms(terms):
    # The (k, a_k, b_k) rows of a harmonic sum, sorted by integer index k,
    # checked before harmonic_sum forms the variation from them.
    index = "harmonic indices must be integers >= 0"
    coefficient = "harmonic coefficients must be finite"
    return tuple(sorted(
        (_series.integer(k, 0, index), _series.real(a, coefficient), _series.real(b, coefficient))
        for k, a, b in terms
    ))


def _parity_matched(kind, p):
    # An integer p whose parity matches the kind: even for the cosine, odd
    # for the sine (inf and NaN match neither).
    return p % 2 == (0 if kind == POWER_DECAY_COSINE else 1)


def _check_power(p):
    # p as a float, refused unless it is a finite number > 1.
    message = "power-decay kinds need a finite p > 1"
    p = _series.real(p, message)
    if not p > 1.0:
        raise ValueError(message)
    return p


def _power_signal(kind, p, r, variation):
    p = _check_power(p)
    if (r is None) != (variation is None):
        raise ValueError("pass both r and variation, or neither")
    if r is None:
        if not _parity_matched(kind, p):
            raise ValueError(
                "smoothness (r, variation) must be supplied explicitly for this p; "
                "the smoothness class is derived only for parity-matched integer p, "
                "so declare r and an upper bound on the variation of the r-th derivative"
            )
        # The (p-1)-th derivative is the sawtooth sum sin(kt)/k up to sign, so the
        # (p-2)-th derivative has variation integral |pi - t|/2 dt = pi^2/2 exactly.
        r, variation = int(p) - 2, _SAWTOOTH_VARIATION
    return AnalyticSignal(kind, (), p, SmoothnessInfo(r, _series.real(variation, _VARIATION)))


def power_decay_cosine(p, r=None, variation=None):
    """Signal with a_k = k^-p, b_k = 0 (p > 1).

    For even integer p the smoothness class (r = p-2, variation = pi^2/2)
    is derived in closed form; otherwise pass both `r` and `variation`.
    Passing only one of them is refused.
    """
    return _power_signal(POWER_DECAY_COSINE, p, r, variation)


def power_decay_sine(p, r=None, variation=None):
    """Signal with b_k = k^-p, a_k = 0 (p > 1); closed-form class for odd integer p."""
    return _power_signal(POWER_DECAY_SINE, p, r, variation)


# -- derivatives ----------------------------------------------------------


def derivative_values(signal, order, t):
    """Values of the order-th derivative of the signal at points t.

    Derivatives are taken termwise (k^order with a quarter-period phase
    shift), never by finite differences. A harmonic sum's terms go through
    ``_kernels.point_series`` in index order, so a point has the same bits
    alone as inside any array. Every point must be finite, or ValueError.
    """
    t = _series.finite_points(t)
    order = _series.integer(order, 0, "derivative order must be an integer >= 0")
    rot = order % 4
    if signal.kind == HARMONIC_SUM:
        ks, a, b = signal.term_arrays
        # Python's float(k) ** order (NumPy rounds k^order otherwise past
        # 2^53): 0^0 = 1 keeps a_0/2 at order 0 and 0^order = 0 drops it
        # after. Scaling the pair leaves a cos + b sin itself at order 0.
        scale = np.power(ks.astype(float).astype(object), order).astype(float)
        ka, kb = _series.rotate_pair(scale * np.where(ks == 0, 0.5 * a, a), scale * b, rot)
        return _kernels.point_series(ks, ka, kb, t)
    s = signal.p - order
    if s <= 1:
        raise ValueError("derivative series no longer converges absolutely")
    base_cos = signal.kind == POWER_DECAY_COSINE
    # Termwise derivative rotates cos->-sin->-cos->sin (and sin->cos->-sin->-cos).
    ka, kb = _series.rotate_pair(1.0 if base_cos else 0.0, 0.0 if base_cos else 1.0, rot)
    if kb == 0.0:
        return ka * _power_eval(POWER_DECAY_COSINE, s, t)
    return kb * _power_eval(POWER_DECAY_SINE, s, t)


# -- serialization ---------------------------------------------------------


def signal_to_json(signal):
    """JSON document with the fixed field names kind/terms/p/r/variation."""
    return {
        "kind": signal.kind,
        "terms": [[k, a, b] for k, a, b in signal.terms],
        "p": signal.p,
        "r": signal.smoothness.r,
        "variation": signal.smoothness.variation,
    }


def signal_from_json(doc):
    """Inverse of :func:`signal_to_json`; accepts a dict or a JSON string."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc["kind"]
    smooth = SmoothnessInfo(r=doc["r"], variation=_series.real(doc["variation"], _VARIATION))
    if kind == HARMONIC_SUM:
        return AnalyticSignal(kind=kind, terms=doc["terms"], p=None, smoothness=smooth)
    return AnalyticSignal(kind=kind, terms=(), p=doc["p"], smoothness=smooth)


# -- reference suite -------------------------------------------------------


def suite_signals():
    """The named signal suite used by the acceptance checks."""
    return {
        "harmonic-single": harmonic_sum([(1, 1.0, 0.0)], r=3),
        "harmonic-mixed": harmonic_sum(
            [(0, 0.8, 0.0), (1, 0.5, -0.25), (3, 0.75, 0.5), (6, -0.25, 1.0)], r=2
        ),
        "power-cos-2": power_decay_cosine(2),
        "power-cos-4": power_decay_cosine(4),
        "power-cos-6": power_decay_cosine(6),
        "power-sin-3": power_decay_sine(3),
        "power-sin-5": power_decay_sine(5),
    }
