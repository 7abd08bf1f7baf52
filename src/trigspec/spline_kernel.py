"""Spectral filter factors for the interpolating trigonometric spline.

Each harmonic j gets a raw gain sigma_j (one of three families, all
decaying like j^-(1+r)), and each alias class k gets the sum of its
members' raw gains. Dividing a harmonic's raw gain by its class sum
yields the normalized gain alpha(r, j): by construction the gains of an
alias class sum to one, which is exactly what makes the spline built
from them interpolate the samples. Plotted over j, the normalized gains
are the amplitude response of a low-pass filter with cutoff at the band
edge and a roll-off slope set by the order r.

Class sums are series over all fold terms; they are evaluated in closed
form through Hurwitz zeta tails, so results carry no truncation error.
They depend only on the grid, the order and the gain family, so each
configuration's per-class data is computed once (:func:`class_table`).
A direct truncated summation is kept alongside as an independent
cross-check path.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _series
from ._wire import csv_text
from .errors import DegenerateKernelError
from .sampling import alias_class

_H_GUARD = 1e-12
# Largest fold index a direct class summation accepts; larger requests are
# refused before their index arrays are allocated.
_M_TERMS_CAP = 10**6


class FilterVariant(enum.Enum):
    """Raw-gain family: signed sinc power, absolute sinc power, inverse power."""

    SINC_POWER = "sinc"
    ABS_SINC_POWER = "abs-sinc"
    INVERSE_POWER = "inv-power"

    @classmethod
    def from_string(cls, text):
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(
            f"unknown variant {text!r}; expected one of "
            f"{', '.join(m.value for m in cls)}"
        )


@dataclass(frozen=True)
class KernelConfig:
    """Spline order, grid and gain family, plus the accuracy knob ``tail_tol``.

    ``tail_tol`` only sets the length of a spline's truncated series,
    ``fourier_series()`` and the rows of its JSON document; evaluation
    and every closed-form path are exact and ignore it.
    """

    grid: object
    order: int
    variant: FilterVariant
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.order < 1 or self.order != int(self.order):
            raise ValueError("spline order must be an integer >= 1")
        if self.tail_tol <= 0:
            raise ValueError("tail_tol must be positive")

    @property
    def power(self):
        """Decay exponent s = 1 + order shared by all gain families."""
        return self.order + 1

    @property
    def signed(self):
        """True when raw gains can change sign (odd power of the signed sinc)."""
        return self.variant is FilterVariant.SINC_POWER and self.power % 2 == 1


def raw_gain(j, config):
    """The damping factor sigma applied to harmonic j before normalization.

    Sinc families use sinc(pi j / N) raised to the power 1+r with
    sinc(0) = 1, hitting exact zeros at multiples of N; the inverse-power
    family uses j^-(1+r) and rejects j = 0.
    """
    arr = raw_gain_array(np.asarray([j], dtype=float), config)
    return float(arr[0])


def raw_gain_array(j, config):
    """Vectorized :func:`raw_gain`; j is an integer array."""
    j = np.asarray(j, dtype=float)
    if np.any(j < 0):
        raise ValueError("harmonic index must be >= 0")
    s = config.power
    N = config.grid.N
    if config.variant is FilterVariant.INVERSE_POWER:
        if np.any(j == 0):
            raise ValueError("inverse-power gain is undefined at j = 0")
        return j**-float(s)
    res = np.mod(j, N)
    nz = res != 0
    # |sin(pi j/N)| from the folded residue keeps precision at large j;
    # exact zeros at nonzero multiples of N, sinc(0) = 1.
    mag = np.zeros(j.shape)
    mag[nz] = np.sin(np.pi * res[nz] / N) * N / (np.pi * j[nz])
    mag[j == 0] = 1.0
    out = mag**s
    if config.signed:
        flips = np.where((j.astype(np.int64) // N) % 2 == 1, -1.0, 1.0)
        out = out * flips
    return out


def _class_magnitude(k, config):
    # Common |sin| factor of every member of class k (1 for inverse power).
    if config.variant is FilterVariant.INVERSE_POWER:
        return 1.0
    N = config.grid.N
    return (math.sin(math.pi * k / N) * N / math.pi) ** config.power


def class_gain_sum(k, config):
    """Sum of raw gains over alias class k (the interpolation normalizer).

    Exact: the fold series sigma_k + sum_m (sigma_{mN+k} + sigma_{mN-k})
    reduces to Hurwitz zeta tails because |sin| is constant on a class.
    """
    if k < 1 or k > config.grid.n:
        raise ValueError("class representative k must lie in 1..n")
    s = config.power
    N = config.grid.N
    F = _class_magnitude(k, config)
    if config.signed:
        plus = _series.progression_tail(s, N, float(k), alternating=True)
        minus = _series.progression_tail(s, N, float(-k), alternating=True)
        bracket = float(k) ** -s + plus - minus
    else:
        bracket = (
            float(k) ** -s
            + _series.progression_tail(s, N, float(k))
            + _series.progression_tail(s, N, float(-k))
        )
    return F * bracket


def class_gain_sum_direct(k, config, m_terms):
    """Truncated direct summation of the class sum over fold indices m <= m_terms.

    This is the oracle path; ``m_terms`` above 10**6 is refused.
    """
    if m_terms > _M_TERMS_CAP:
        raise ValueError(f"m_terms exceeds the cap of {_M_TERMS_CAP}")
    m = np.arange(1, m_terms + 1, dtype=float)
    N = config.grid.N
    total = raw_gain(k, config)
    total += float(
        np.sum(raw_gain_array(m * N + k, config) + raw_gain_array(m * N - k, config))
    )
    return total


def dc_class_gain_sum(config):
    """Normalizer for the constant class: 1 + 2 sum_m sigma_{mN}.

    Exactly 1 for the sinc families (their gains vanish at multiples of
    N); finite and slightly above 1 for the inverse-power family.
    """
    if config.variant is FilterVariant.INVERSE_POWER:
        s = config.power
        return 1.0 + 2.0 * _series.progression_tail(s, config.grid.N, 0.0)
    return 1.0


@dataclass(frozen=True)
class FilterTable:
    """Normalized gains alpha for j = 1..j_max plus the per-class sums."""

    config: KernelConfig
    class_sums: np.ndarray = field(repr=False)  # H_k, k = 1..n
    dc_class_sum: float
    gains: np.ndarray = field(repr=False)  # alpha_j, j = 1..j_max
    j_max: int

    def gain_at(self, j):
        if 1 <= j <= self.j_max:
            return float(self.gains[j - 1])
        return gain(j, self.config)


@dataclass(frozen=True)
class ClassTable:
    """Per-class data of one (grid, order, variant), for k = 1..n.

    ``magnitudes`` holds F_k, the |sin| factor shared by every member of
    class k (1 for inverse power); ``raw_gains`` the in-band raw gain
    sigma_k; ``sums`` the validated class sums H_k; ``dc_sum`` the
    constant-class normalizer. The arrays are read-only.
    """

    magnitudes: np.ndarray = field(repr=False)
    raw_gains: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)
    dc_sum: float


def class_table(config):
    """The :class:`ClassTable` of ``config``, computed once per configuration.

    Entries are the scalar :func:`class_gain_sum`, :func:`raw_gain` and
    class-magnitude values, so every consumer sees the same bits as a
    direct call. ``tail_tol`` does not enter.
    """
    return _class_table(config.grid, config.order, config.variant)


@lru_cache(maxsize=64)
def _class_table(grid, order, variant):
    config = KernelConfig(grid=grid, order=order, variant=variant)
    ks = range(1, grid.n + 1)
    arrays = (
        np.array([_class_magnitude(k, config) for k in ks]),
        np.array([raw_gain(k, config) for k in ks]),
        _validated_class_sums(config),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return ClassTable(*arrays, dc_sum=dc_class_gain_sum(config))


def _validated_class_sums(config):
    sums = np.array(
        [class_gain_sum(k, config) for k in range(1, config.grid.n + 1)]
    )
    # Degeneracy means cancellation: the class sum collapsing relative to
    # the in-band raw gain (conceivable only for the signed family). An
    # absolute threshold would reject healthy high-order tables whose
    # gains are legitimately tiny.
    scale = raw_gain_array(np.arange(1, config.grid.n + 1), config)
    if np.any(np.abs(sums) <= _H_GUARD * np.abs(scale)):
        bad = 1 + int(np.argmin(np.abs(sums) / np.abs(scale)))
        raise DegenerateKernelError(
            f"class sum for k={bad} collapsed to {sums[bad - 1]:.3e} "
            f"(raw gain {scale[bad - 1]:.3e}); the signed sinc family degenerated"
        )
    return sums


def gain(j, config):
    """Normalized gain alpha(r, j) = sigma_j / (class sum of j's alias class)."""
    arr = gain_array(np.asarray([j]), config)
    return float(arr[0])


def gain_array(j, config):
    """Vectorized :func:`gain` over an integer index array (j >= 1)."""
    j = np.asarray(j, dtype=np.int64)
    if np.any(j < 1):
        raise ValueError("gain is defined for harmonic indices j >= 1")
    ct = class_table(config)
    N = config.grid.N
    res = np.mod(j, N)
    k = np.minimum(res, N - res)
    denom = np.where(k == 0, ct.dc_sum, ct.sums[np.maximum(k, 1) - 1])
    return raw_gain_array(j, config) / denom


def filter_response(config, j_max):
    """Gain table for j = 1..j_max (the low-pass amplitude response data).

    Requires j_max >= n so the whole band is covered.

    Around the band edge, for the abs-sinc and inverse-power families, a
    member j of class k has alpha(r, j) = (k/j)^(1+r) alpha(r, k):

    - at j = n the gain rises strictly with the order r, since
      alpha(r, n) = 1 / (1 + sum_m [(n/(mN-n))^(1+r) + (n/(mN+n))^(1+r)])
      and every ratio in the sum is below 1;
    - at j = n+1 (alpha = (n/(n+1))^(1+r) alpha(r, n)) the order of the
      curves depends on n, and for larger n the inversion reaches a few
      harmonics further;
    - further out steeper orders lie lower (the sinc families tie at
      their exact zeros, j a multiple of N). At n = 16 the orders 1, 3
      and 10 are ordered so from j = n+2 on.

    The signed sinc family is not ordered across r even at j = n: at
    n = 16, alpha(2, n) = 0.5627 exceeds alpha(3, n) = 0.5523.
    """
    if j_max < config.grid.n:
        raise ValueError("j_max must cover the band (j_max >= n)")
    ct = class_table(config)
    gains = gain_array(np.arange(1, j_max + 1), config)
    gains.setflags(write=False)
    return FilterTable(
        config=config,
        class_sums=ct.sums,
        dc_class_sum=ct.dc_sum,
        gains=gains,
        j_max=int(j_max),
    )


def class_partition_terms(k, config, m_terms, table=None):
    """Truncated gain sum over class k plus its exact remainder.

    Returns ``(partial, remainder)`` with partial the directly summed
    alpha over the class members up to fold index m_terms and remainder
    the closed-form value of everything beyond. Their sum is 1 up to
    rounding: the partition-of-unity property.
    """
    if table is not None:
        if k < 1 or k > config.grid.n:
            raise ValueError("class representative k must lie in 1..n")
        H = float(table.class_sums[k - 1])
    else:
        H = class_gain_sum(k, config)
    partial = class_gain_sum_direct(k, config, m_terms)
    N = config.grid.N
    s = config.power
    F = _class_magnitude(k, config)
    if config.signed:
        rem = F * (
            _series.progression_tail(s, N, float(k), m_start=m_terms + 1, alternating=True)
            - _series.progression_tail(s, N, float(-k), m_start=m_terms + 1, alternating=True)
        )
    else:
        rem = F * (
            _series.progression_tail(s, N, float(k), m_start=m_terms + 1)
            + _series.progression_tail(s, N, float(-k), m_start=m_terms + 1)
        )
    return partial / H, rem / H


def response_table_to_csv(table):
    """CSV with header ``j,k_class,sigma,H,alpha`` for j = 1..j_max."""
    cfg = table.config
    N = cfg.grid.N
    js = np.arange(1, table.j_max + 1)
    sig = raw_gain_array(js, cfg)
    rows = []
    for j in js:
        cls = alias_class(int(j), N)
        H = table.dc_class_sum if cls.k == 0 else float(table.class_sums[cls.k - 1])
        rows.append([int(j), cls.k, sig[j - 1], H, table.gains[j - 1]])
    return csv_text(["j", "k_class", "sigma", "H", "alpha"], rows)
