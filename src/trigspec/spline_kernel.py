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
from .errors import DegenerateKernelError, SeriesPrecisionError

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

    ``tail_tol`` sets only the truncated series of ``fourier_series()``
    and the rows of ``.spline.json``; evaluation, the curvature functional
    and every other closed-form path are exact and ignore it.
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
    family uses j^-(1+r) and rejects j = 0. j is an integer or an integer
    array; a scalar gives a float, an array an array of its shape.
    """
    j_in = np.asarray(j, dtype=float)
    j = np.atleast_1d(j_in)
    if np.any(j < 0):
        raise ValueError("harmonic index must be >= 0")
    s = config.power
    N = config.grid.N
    if config.variant is FilterVariant.INVERSE_POWER:
        if np.any(j == 0):
            raise ValueError("inverse-power gain is undefined at j = 0")
        out = j**-float(s)
    else:
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
    return out if j_in.ndim else float(out[0])


def _class_magnitude(k, config):
    # Common |sin| factor of every member of class k (1 for inverse power).
    if config.variant is FilterVariant.INVERSE_POWER:
        return 1.0
    N = config.grid.N
    try:
        return (math.sin(math.pi * k / N) * N / math.pi) ** config.power
    except OverflowError:
        raise SeriesPrecisionError(
            f"class magnitude for k={k} leaves the float range "
            f"(n={config.grid.n}, order {config.order}, {config.variant.value})"
        ) from None


def class_gain_sum(k, config):
    """Sum of raw gains over alias class k (the interpolation normalizer).

    Exact: the fold series sigma_k + sum_m (sigma_{mN+k} + sigma_{mN-k})
    reduces to Hurwitz zeta tails because |sin| is constant on a class.
    The value is the class table's entry, so a configuration whose table
    is refused raises its error here too.
    """
    if k < 1 or k > config.grid.n:
        raise ValueError("class representative k must lie in 1..n")
    return float(class_table(config).sums[k - 1])


def _branch_tails(config, k, m_start=1):
    # (plus, signed minus): the fold members of class k beyond the band,
    # sum over m >= m_start of (mN + k)^-s and of (mN - k)^-s, both
    # without the factor F_k. The signed family alternates in m and enters
    # the minus branch negated, so class sums are k^-s + plus + minus.
    s = config.power
    N = config.grid.N
    alternating = config.signed
    plus = _series.progression_tail(s, N, k, m_start=m_start, alternating=alternating)
    minus = _series.progression_tail(s, N, -k, m_start=m_start, alternating=alternating)
    return plus, -minus if alternating else minus


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
        np.sum(raw_gain(m * N + k, config) + raw_gain(m * N - k, config))
    )
    return total


def dc_class_gain_sum(config):
    """Normalizer for the constant class: 1 + 2 sum_m sigma_{mN}.

    Exactly 1 for the sinc families (their gains vanish at multiples of
    N); finite and slightly above 1 for the inverse-power family.
    """
    return class_table(config).dc_sum


@dataclass(frozen=True)
class FilterTable:
    """Normalized gains alpha for j = 1..j_max plus the per-class sums."""

    config: KernelConfig
    class_sums: np.ndarray = field(repr=False)  # H_k, k = 1..n
    dc_class_sum: float
    gains: np.ndarray = field(repr=False)  # alpha_j, j = 1..j_max
    j_max: int


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

    One array pass over k = 1..n builds every entry; ``tail_tol`` does
    not enter. A table whose entries left the float range, or whose
    signed class sums cancelled, is refused.
    """
    return _class_table(config.grid, config.order, config.variant)


@lru_cache(maxsize=64)
def _class_table(grid, order, variant):
    config = KernelConfig(grid=grid, order=order, variant=variant)
    s = config.power
    ks = range(1, grid.n + 1)
    # F_k and k^-s by Python's scalar **: NumPy's array power differs from
    # it in the last bit for some inputs, and these bits reach the CSVs.
    magnitudes = np.array([_class_magnitude(k, config) for k in ks])
    in_band = np.array([float(k) ** -s for k in ks])
    plus, minus = _branch_tails(config, np.arange(1.0, grid.n + 1))
    sums = magnitudes * (in_band + plus + minus)
    raw_gains = raw_gain(np.arange(1, grid.n + 1), config)
    _check_class_sums(config, raw_gains, sums)
    if variant is FilterVariant.INVERSE_POWER:
        dc_sum = 1.0 + 2.0 * _series.progression_tail(s, grid.N, 0.0)
    else:
        dc_sum = 1.0
    for arr in (magnitudes, raw_gains, sums):
        arr.setflags(write=False)
    return ClassTable(magnitudes, raw_gains, sums, dc_sum)


def _check_class_sums(config, scale, sums):
    # scale holds the in-band raw gains sigma_k, sums the class sums H_k.
    # In-band raw gains are finite and nonzero, and so are the class sums
    # of the positive families; a zero or non-finite value there left the
    # float range. A zero signed class sum is cancellation, checked below.
    lost = (
        (scale == 0.0)
        | ~np.isfinite(scale)
        | ~np.isfinite(sums)
        | (not config.signed and sums == 0.0)
    )
    if np.any(lost):
        bad = 1 + int(np.argmax(lost))
        raise SeriesPrecisionError(
            f"class k={bad} left the float range (raw gain {scale[bad - 1]:.3e}, "
            f"class sum {sums[bad - 1]:.3e}; n={config.grid.n}, order {config.order}, "
            f"{config.variant.value})"
        )
    # Degeneracy means cancellation: the class sum collapsing relative to
    # the in-band raw gain, which only the signed family can do. An
    # absolute threshold would reject healthy high-order tables whose
    # gains are legitimately tiny.
    if config.signed and np.any(np.abs(sums) <= _H_GUARD * np.abs(scale)):
        bad = 1 + int(np.argmin(np.abs(sums) / np.abs(scale)))
        raise DegenerateKernelError(
            f"class sum for k={bad} collapsed to {sums[bad - 1]:.3e} "
            f"(raw gain {scale[bad - 1]:.3e}); the signed sinc family degenerated"
        )


def gain(j, config):
    """Normalized gain alpha(r, j) = sigma_j / (class sum of j's alias class).

    j is an integer >= 1 or an integer array; a scalar gives a float, an
    array an array of its shape.
    """
    j_in = np.asarray(j, dtype=np.int64)
    j = np.atleast_1d(j_in)
    if np.any(j < 1):
        raise ValueError("gain is defined for harmonic indices j >= 1")
    ct = class_table(config)
    _, denom = _class_normalizers(j, config.grid.N, ct.sums, ct.dc_sum)
    out = raw_gain(j, config) / denom
    return out if j_in.ndim else float(out[0])


def _class_normalizers(j, N, sums, dc_sum):
    # Alias class k of each harmonic j (0 for multiples of N) and its class sum.
    k, _ = _series.alias_fold(j, N)
    return k, np.where(k == 0, dc_sum, sums[np.maximum(k, 1) - 1])


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
    gains = gain(np.arange(1, j_max + 1), config)
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
    rounding: the partition-of-unity property. The class sum is read from
    ``table`` when one is given, else from the class table.
    """
    if k < 1 or k > config.grid.n:
        raise ValueError("class representative k must lie in 1..n")
    ct = class_table(config)
    H = float((ct.sums if table is None else table.class_sums)[k - 1])
    partial = class_gain_sum_direct(k, config, m_terms)
    plus, minus = _branch_tails(config, float(k), m_start=m_terms + 1)
    return partial / H, ct.magnitudes[k - 1] * (plus + minus) / H


def response_table_to_csv(table):
    """CSV with header ``j,k_class,sigma,H,alpha`` for j = 1..j_max."""
    cfg = table.config
    js = np.arange(1, table.j_max + 1)
    k, H = _class_normalizers(js, cfg.grid.N, table.class_sums, table.dc_class_sum)
    rows = zip(js.tolist(), k.tolist(), raw_gain(js, cfg), H, table.gains)
    return csv_text(["j", "k_class", "sigma", "H", "alpha"], rows)
