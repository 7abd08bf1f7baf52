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
grid, the order and the signs eps, so the per-class data is computed
once per (grid, order, signed) (:func:`class_table`). The class sums
H_k = sigma_k (1 + rho_k) and the constant-class sum are response data,
formed where the response is written.
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _cache, _series
from ._wire import csv_text
from .errors import DegenerateKernelError

_H_GUARD = 1e-12
# Largest fold index class_partition_terms sums directly; larger requests
# are refused before their index arrays are allocated.
_M_TERMS_CAP = 10**6
_M_TERMS_ERROR = f"m_terms must be an integer in 0..{_M_TERMS_CAP}"
_CLASS_ERROR = "class representative k must lie in 1..n"


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
        order = _series.integer(self.order, 1, "spline order must be an integer >= 1")
        object.__setattr__(self, "order", order)
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")

    @property
    def power(self):
        """Decay exponent s = 1 + order shared by all gain families."""
        return self.order + 1

    @property
    def signed(self):
        """True when raw gains can change sign (odd power of the signed sinc)."""
        return self.variant is FilterVariant.SINC_POWER and self.power % 2 == 1

    @property
    def polynomial(self):
        """True when the spline is a periodic polynomial spline of degree r.

        That is where s = r + 1 is even (knots at the nodes) or the family
        is signed (knots at the midpoints): Golomb, "Approximation by
        periodic spline interpolants on uniform meshes", 1968.
        """
        return self.power % 2 == 0 or self.signed


def raw_gain(j, config):
    """The damping factor sigma applied to harmonic j before normalization.

    Sinc families use sinc(pi j / N) raised to the power 1+r with
    sinc(0) = 1, hitting exact zeros at multiples of N; the inverse-power
    family uses j^-(1+r) and rejects j = 0. j is an integer or an integer
    array; a scalar gives a float, an array an array of its shape.
    """
    idx = _series.integers(j, 0, "harmonic index must be >= 0")
    out = _raw_gain(np.atleast_1d(idx).astype(float), config)
    return out if np.ndim(idx) else float(out[0])


def _raw_gain(j, config):
    # raw_gain's body, on a float array of checked indices.
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
            flips = np.where((j // N) % 2 == 1, -1.0, 1.0)
            out = out * flips
    return out


def _branch_tails(s, N, signed, k, m_start=1):
    # (plus, minus): the fold members of class k with m >= m_start as
    # signed ratios to the in-band member, sum eps_j (k/j)^s over
    # j = mN + k and over j = mN - k. The signed family's sign is (-1)^m
    # on the plus branch and -(-1)^m on the minus branch, so rho_k is
    # plus + minus at m_start = 1. It runs inside the cached class-table
    # builder, so it calls the body of ratio_tail.
    plus = _series._ratio_tail(s, k, m_start * N + k, N, signed)
    minus = _series._ratio_tail(s, k, m_start * N - k, N, signed)
    if not signed:
        return plus, minus
    sign = -1.0 if m_start % 2 else 1.0
    return sign * plus, -sign * minus


def _member_ratios(j, k, s, N, signed):
    # eps_j (k/j)^s for members j of classes k >= 1: alpha_j / alpha_k.
    # It runs inside cached builders, so it calls the body of ratio_power.
    out = _series._ratio_power(k, j, s)
    if signed:
        out = np.where((j // N) % 2 == 1, -out, out)
    return out


@dataclass(frozen=True)
class FilterTable:
    """Normalized gains alpha for j = 1..j_max plus the per-class sums."""

    config: KernelConfig
    class_sums: np.ndarray = field(repr=False)  # H_k = sigma_k (1 + rho_k), k = 1..n
    gains: np.ndarray = field(repr=False)  # alpha_j, j = 1..j_max
    j_max: int


@dataclass(frozen=True)
class ClassTable:
    """Per-class data of one (grid, order, signed), for k = 1..n.

    ``gains`` holds the in-band gains alpha_k = 1/(1 + rho_k), the factor
    every member of class k carries (alpha_j = eps_j (k/j)^s alpha_k);
    ``mirror_gains`` the gains alpha_(N-k) = (k/(N-k))^s alpha_k of the
    first members of the N - k branches; ``norms`` the normalizers
    1 + rho_k. The arrays are read-only. Gain families with the same signs
    share one table; the class sums are not in it (:func:`filter_response`).
    """

    gains: np.ndarray = field(repr=False)
    mirror_gains: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)


def class_table(config):
    """The :class:`ClassTable` of ``config``, one per (grid, order, signed).

    One array pass over k = 1..n builds every entry; ``tail_tol`` does
    not enter. A signed table whose class sums cancelled is refused. The
    table is an entry of the package's store, kept while its 24 n bytes
    fit the store's 32 MiB budget and built on every call beyond it.
    """
    return _cache.get(_class_table, *_table_key(config))


def _table_key(config):
    # What the per-class data depends on: the grid, the order and the gain
    # signs, as integers, which the store hashes fast.
    return config.grid.N, config.order, config.signed


def _class_table(N, order, signed):
    s = order + 1
    k = np.arange(1, (N - 1) // 2 + 1)
    plus, minus = _branch_tails(s, N, signed, k)
    norms = 1.0 + (plus + minus)
    _check_class_sums(signed, norms)
    gains = 1.0 / norms
    mirror_gains = _member_ratios(N - k, k, s, N, signed) * gains
    return ClassTable(gains, mirror_gains, norms)


def _check_class_sums(signed, one_plus_rho):
    # Degeneracy is cancellation: the class sum collapsing relative to the
    # in-band raw gain, 1 + rho_k near zero, which only the signed family
    # can do (rho_k > 0 in the others).
    if signed and np.any(np.abs(one_plus_rho) <= _H_GUARD):
        bad = 1 + int(np.argmin(np.abs(one_plus_rho)))
        raise DegenerateKernelError(
            f"class sum for k={bad} collapsed to {one_plus_rho[bad - 1]:.3e} times its "
            f"in-band raw gain; the signed sinc family degenerated"
        )


@lru_cache(maxsize=64)
def _dc_sum(N, s, variant):
    # The constant-class normalizer: sigma_0 = 1 plus the raw gains at the
    # nonzero multiples of N, which only inverse powers do not zero.
    # Cached, so it calls the body of progression_tail.
    if variant is not FilterVariant.INVERSE_POWER:
        return 1.0
    return 1.0 + 2.0 * _series._progression_tail(s, N, 0.0)


def gain(j, config):
    """Normalized gain alpha(r, j) = sigma_j / (class sum of j's alias class).

    It is formed as eps_j (k/j)^s alpha_k for a member j of class k, and
    as sigma_j over the constant-class normalizer for multiples of N. j
    is an integer >= 1 or an integer array; a scalar gives a float, an
    array an array of its shape.
    """
    j_in = _series.integers(j, 1, "gain is defined for integer harmonic indices j >= 1")
    j = np.atleast_1d(j_in)
    k, _ = _series.alias_fold(j, config.grid.N)
    out = _folded_gain(j, k, config)
    return out if np.ndim(j_in) else float(out[0])


def _folded_gain(j, k, config):
    # gain's body: the gains of the int64 indices j, whose alias classes k
    # are already folded. The spline's cached coefficient law calls it with
    # the fold it keeps, so the gains have the same bits either way and a
    # law built on a cache miss adds no public calls.
    ct = _cache.get(_class_table, *_table_key(config))
    N = config.grid.N
    dc = k == 0
    out = _member_ratios(j, k, config.power, N, config.signed) * ct.gains[np.maximum(k, 1) - 1]
    if np.any(dc):
        out[dc] = _raw_gain(j[dc].astype(float), config) / _dc_sum(N, config.power, config.variant)
    return out


def filter_response(config, j_max):
    """Gain table for j = 1..j_max (the low-pass amplitude response data).

    Requires an integer j_max >= n so the whole band is covered. The class
    sums H_k = sigma_k (1 + rho_k) are formed here from the class table.

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
    j_max = _series.integer(
        j_max, config.grid.n, "j_max must be an integer covering the band (j_max >= n)")
    norms = class_table(config).norms
    class_sums = raw_gain(np.arange(1, config.grid.n + 1), config) * norms
    gains = gain(np.arange(1, j_max + 1), config)
    for arr in (class_sums, gains):
        arr.setflags(write=False)
    return FilterTable(config, class_sums, gains, j_max)


def class_partition_terms(k, config, m_terms, table=None):
    """Truncated gain sum over class k plus its exact remainder.

    Returns ``(partial, remainder)`` with partial the directly summed
    alpha over the class members up to fold index m_terms and remainder
    the closed-form value of everything beyond. Their sum is 1 up to
    rounding: the partition-of-unity property. The in-band gain alpha_k
    is read from ``table`` when one is given, which must have been built
    for the grid, order and signs of ``config``, else from the class
    table. ``m_terms`` must be an integer in 0..10**6.
    """
    k = _series.integer(k, 1, _CLASS_ERROR, config.grid.n)
    m_terms = _series.integer(m_terms, 0, _M_TERMS_ERROR, _M_TERMS_CAP)
    if table is not None and _table_key(table.config) != _table_key(config):
        raise ValueError("table was built for another (grid, order, signed) than config")
    alpha = float((class_table(config).gains if table is None else table.gains)[k - 1])
    m = np.arange(1, m_terms + 1)
    s, N, signed = config.power, config.grid.N, config.signed
    members = np.concatenate(([k], m * N + k, m * N - k))
    partial = alpha * float(np.sum(_member_ratios(members, k, s, N, signed)))
    plus, minus = _branch_tails(s, N, signed, k, m_start=m_terms + 1)
    return partial, alpha * (plus + minus)


def response_table_to_csv(table):
    """CSV with header ``j,k_class,sigma,H,alpha`` for j = 1..j_max."""
    cfg = table.config
    N = cfg.grid.N
    js = np.arange(1, table.j_max + 1)
    k, _ = _series.alias_fold(js, N)
    H = np.where(k == 0, _dc_sum(N, cfg.power, cfg.variant), table.class_sums[np.maximum(k, 1) - 1])
    rows = zip(js.tolist(), k.tolist(), raw_gain(js, cfg), H, table.gains)
    return csv_text(["j", "k_class", "sigma", "H", "alpha"], rows)
