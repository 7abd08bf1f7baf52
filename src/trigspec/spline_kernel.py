"""Spectral filter factors for the interpolating trigonometric spline.

Each harmonic j gets a raw gain sigma_j (one of three families, all
decaying like j^-(1+r)), and each alias class k gets the sum of its
members' raw gains. Dividing a harmonic's raw gain by its class sum
yields the normalized gain alpha(r, j): by construction the gains of an
alias class sum to one, which is exactly what makes the spline built
from them interpolate the samples. Plotted over j, the normalized gains
are the amplitude response of a low-pass filter with cutoff at the band
edge and a roll-off slope set by the order r.

Only ratios enter the gains. |sin(pi j/N)| is the same on every member
of a class, so a member j of class k has

    alpha_j = eps_j (k/j)^s / (1 + rho_k),
    rho_k = sum_{m>=1} [eps_{mN+k} (k/(mN+k))^s + eps_{mN-k} (k/(mN-k))^s],

with s = r + 1 and eps_j the sign of sigma_j (-1 on odd blocks of N in
the signed family, else 1). Every term of rho_k lies below one, so the
gains stay in the float range at any order. rho_k is evaluated in
closed form, each branch's first term apart and the rest as a Hurwitz
zeta tail, so results carry no truncation error. It depends only on the
grid, the order and the gain family, so each configuration's per-class
data is computed once (:func:`class_table`). The class sums
H_k = sigma_k (1 + rho_k) are output data; a direct truncated summation
of them is kept alongside as an independent cross-check path.
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _series
from ._wire import csv_text
from .errors import DegenerateKernelError

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


def class_gain_sum(k, config):
    """Sum of raw gains over alias class k (the interpolation normalizer).

    Exact: the fold series sigma_k + sum_m (sigma_{mN+k} + sigma_{mN-k})
    is sigma_k (1 + rho_k), with rho_k in closed form because |sin| is
    constant on a class. The value is the class table's entry, so a
    configuration whose table is refused raises its error here too.
    """
    if k < 1 or k > config.grid.n:
        raise ValueError("class representative k must lie in 1..n")
    return float(class_table(config).sums[k - 1])


def _branch_tails(config, k, m_start=1):
    # (plus, minus): the fold members of class k with m >= m_start as
    # signed ratios to the in-band member, sum eps_j (k/j)^s over
    # j = mN + k and over j = mN - k. The signed family's sign is (-1)^m
    # on the plus branch and -(-1)^m on the minus branch, so rho_k is
    # plus + minus at m_start = 1.
    s = config.power
    N = config.grid.N
    signed = config.signed
    plus = _series.ratio_tail(s, k, m_start * N + k, N, signed)
    minus = _series.ratio_tail(s, k, m_start * N - k, N, signed)
    if not signed:
        return plus, minus
    sign = -1.0 if m_start % 2 else 1.0
    return sign * plus, -sign * minus


def _member_ratios(j, k, config):
    # eps_j (k/j)^s for members j of classes k >= 1: alpha_j / alpha_k.
    out = _series.ratio_power(k, j, config.power)
    if config.signed:
        out = np.where((j // config.grid.N) % 2 == 1, -out, out)
    return out


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
    class_sums: np.ndarray = field(repr=False)  # H_k = sigma_k (1 + rho_k), k = 1..n
    dc_class_sum: float
    gains: np.ndarray = field(repr=False)  # alpha_j, j = 1..j_max
    j_max: int


@dataclass(frozen=True)
class ClassTable:
    """Per-class data of one (grid, order, variant), for k = 1..n.

    ``gains`` holds the in-band gains alpha_k = 1/(1 + rho_k), the factor
    every member of class k carries (alpha_j = eps_j (k/j)^s alpha_k);
    ``raw_gains`` the in-band raw gains sigma_k; ``sums`` the class sums
    H_k = sigma_k (1 + rho_k), output data only, which underflow with
    sigma_k at high orders; ``dc_sum`` the constant-class normalizer. The
    arrays are read-only.
    """

    gains: np.ndarray = field(repr=False)
    raw_gains: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)
    dc_sum: float


def class_table(config):
    """The :class:`ClassTable` of ``config``, computed once per configuration.

    One array pass over k = 1..n builds every entry; ``tail_tol`` does
    not enter. A signed table whose class sums cancelled is refused.
    """
    return _class_table(config.grid, config.order, config.variant)


@lru_cache(maxsize=64)
def _class_table(grid, order, variant):
    config = KernelConfig(grid=grid, order=order, variant=variant)
    k = np.arange(1, grid.n + 1)
    plus, minus = _branch_tails(config, k)
    one_plus_rho = 1.0 + (plus + minus)
    _check_class_sums(config, one_plus_rho)
    gains = 1.0 / one_plus_rho
    raw_gains = raw_gain(k, config)
    sums = raw_gains * one_plus_rho
    if variant is FilterVariant.INVERSE_POWER:
        dc_sum = 1.0 + 2.0 * _series.progression_tail(config.power, grid.N, 0.0)
    else:
        dc_sum = 1.0
    for arr in (gains, raw_gains, sums):
        arr.setflags(write=False)
    return ClassTable(gains, raw_gains, sums, dc_sum)


def _check_class_sums(config, one_plus_rho):
    # Degeneracy is cancellation: the class sum collapsing relative to the
    # in-band raw gain, 1 + rho_k near zero, which only the signed family
    # can do (rho_k > 0 in the others).
    if config.signed and np.any(np.abs(one_plus_rho) <= _H_GUARD):
        bad = 1 + int(np.argmin(np.abs(one_plus_rho)))
        raise DegenerateKernelError(
            f"class sum for k={bad} collapsed to {one_plus_rho[bad - 1]:.3e} times its "
            f"in-band raw gain; the signed sinc family degenerated"
        )


def gain(j, config):
    """Normalized gain alpha(r, j) = sigma_j / (class sum of j's alias class).

    It is formed as eps_j (k/j)^s alpha_k for a member j of class k, and
    as sigma_j over the constant-class normalizer for multiples of N. j
    is an integer >= 1 or an integer array; a scalar gives a float, an
    array an array of its shape.
    """
    j_in = np.asarray(j, dtype=np.int64)
    j = np.atleast_1d(j_in)
    if np.any(j < 1):
        raise ValueError("gain is defined for harmonic indices j >= 1")
    ct = class_table(config)
    k, _ = _series.alias_fold(j, config.grid.N)
    dc = k == 0
    out = _member_ratios(j, k, config) * ct.gains[np.maximum(k, 1) - 1]
    if np.any(dc):
        out[dc] = raw_gain(j[dc], config) / ct.dc_sum
    return out if j_in.ndim else float(out[0])


def _class_normalizers(j, N, sums, dc_sum):
    # Alias class k of each harmonic j (0 for multiples of N) and its class sum.
    k, _ = _series.alias_fold(j, N)
    return k, np.where(k == 0, dc_sum, sums[np.maximum(k, 1) - 1])


def filter_response(config, j_max):
    """Gain table for j = 1..j_max (the low-pass amplitude response data).

    Requires j_max >= n so the whole band is covered.

    Around the band edge, for the abs-sinc and inverse-power families, a
    member j of class k has alpha(r, j) = (k/j)^(1+r) alpha(r, k), with
    alpha(r, k) = 1/(1 + rho_k) as in the module docstring:

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
    rounding: the partition-of-unity property. The in-band gain alpha_k
    is read from ``table`` when one is given, else from the class table.
    ``m_terms`` must lie in 0..10**6.
    """
    if k < 1 or k > config.grid.n:
        raise ValueError("class representative k must lie in 1..n")
    if not 0 <= m_terms <= _M_TERMS_CAP:
        raise ValueError(f"m_terms must lie in 0..{_M_TERMS_CAP}")
    alpha = float((class_table(config).gains if table is None else table.gains)[k - 1])
    m = np.arange(1, m_terms + 1)
    N = config.grid.N
    members = np.concatenate(([k], m * N + k, m * N - k))
    partial = alpha * float(np.sum(_member_ratios(members, k, config)))
    plus, minus = _branch_tails(config, k, m_start=m_terms + 1)
    return partial, alpha * (plus + minus)


def response_table_to_csv(table):
    """CSV with header ``j,k_class,sigma,H,alpha`` for j = 1..j_max."""
    cfg = table.config
    js = np.arange(1, table.j_max + 1)
    k, H = _class_normalizers(js, cfg.grid.N, table.class_sums, table.dc_class_sum)
    rows = zip(js.tolist(), k.tolist(), raw_gain(js, cfg), H, table.gains)
    return csv_text(["j", "k_class", "sigma", "H", "alpha"], rows)
