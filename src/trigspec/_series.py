"""Closed-form machinery for slowly converging trigonometric power series.

Two families of exact evaluations drive most of the package's accuracy
guarantees:

- full power series ``sum_{k>=1} cos(kt)/k^s`` (even s) and
  ``sum_{k>=1} sin(kt)/k^s`` (odd s), which are Bernoulli polynomials in
  t/(2*pi) up to a constant factor;
- tails of arithmetic-progression power sums
  ``sum_{m>=m0} (m*step + offset)^(-s)``, which are Hurwitz zeta values.

Everything here is pure and vectorized.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy.special import zeta

TWO_PI = 2.0 * np.pi


def reduce_angle(t):
    """Map angles to [0, 2*pi)."""
    return np.mod(t, TWO_PI)


def rotate_pair(a, b, rot):
    """(a, b) after `rot` derivatives of a*cos(kt) + b*sin(kt), up to k^rot.

    One derivative maps (a, b) to (b, -a), so only `rot` mod 4 matters.
    """
    if rot == 0:
        return a, b
    if rot == 1:
        return b, -a
    if rot == 2:
        return -a, -b
    return -b, a


@lru_cache(maxsize=None)
def _bernoulli_number(n):
    # Exact rational B_n (B_1 = -1/2 convention) via the defining recurrence;
    # scipy's floating values lose ~1e-13 and would cap series accuracy.
    if n == 0:
        return Fraction(1)
    return -Fraction(1, n + 1) * sum(
        comb(n + 1, j) * _bernoulli_number(j) for j in range(n)
    )


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(n):
    # Coefficients of B_n(x) in descending powers: B_n(x) = sum_j C(n,j) B_j x^(n-j).
    return tuple(float(comb(n, j) * _bernoulli_number(j)) for j in range(n + 1))


def _bernoulli_poly(n, x):
    # Horner in descending powers.
    coeffs = _bernoulli_poly_coeffs(n)
    x = np.asarray(x, dtype=float)
    val = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        val = val * x + c
    return val


def fourier_power_cos(s, t):
    """Exact ``sum_{k>=1} cos(k t)/k^s`` for even integer s >= 2.

    The sum equals ``(-1)^(s/2+1) (2*pi)^s B_s(t/2pi) / (2 s!)`` on one
    period; evaluation reduces t modulo 2*pi first.
    """
    if s < 2 or s % 2 != 0:
        raise ValueError("closed form requires even integer s >= 2")
    x = reduce_angle(t) / TWO_PI
    sign = -1.0 if (s // 2) % 2 == 0 else 1.0
    return sign * TWO_PI**s / (2.0 * factorial(s)) * _bernoulli_poly(s, x)


def fourier_power_sin(s, t):
    """Exact ``sum_{k>=1} sin(k t)/k^s`` for odd integer s >= 1."""
    if s < 1 or s % 2 != 1:
        raise ValueError("closed form requires odd integer s >= 1")
    x = reduce_angle(t) / TWO_PI
    sign = 1.0 if ((s + 1) // 2) % 2 == 0 else -1.0
    return sign * TWO_PI**s / (2.0 * factorial(s)) * _bernoulli_poly(s, x)


def hurwitz_tail(s, q, alternating=False):
    """``sum_{i>=0} (i+q)^(-s)`` or the sign-alternating variant ``sum (-1)^i (i+q)^(-s)``.

    Vectorized over q; requires s > 1 and q > 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0):
        raise ValueError("Hurwitz tail requires q > 0")
    if not alternating:
        return zeta(s, q)
    # Split even/odd i: sum (-1)^i (i+q)^-s = 2^-s [zeta(s, q/2) - zeta(s, (q+1)/2)].
    return 2.0**-s * (zeta(s, q / 2.0) - zeta(s, (q + 1.0) / 2.0))


def progression_tail(s, step, offset, m_start=1, alternating=False):
    """Tail of an arithmetic-progression power sum, exactly.

    Computes ``sum_{m>=m_start} eps(m) (m*step + offset)^(-s)`` where
    ``eps(m) = (-1)^m`` when `alternating` else 1. `offset` may be
    negative as long as the first term's base is positive. `offset` and
    integer `m_start` may be arrays; they broadcast, and the result has
    their broadcast shape.
    """
    if s <= 1:
        raise ValueError("progression tail requires s > 1")
    if np.any(np.asarray(m_start) < 1):
        raise ValueError("m_start must be >= 1")
    if np.any(m_start * step + offset <= 0):
        raise ValueError("first progression term must be positive")
    if not alternating:
        return step**-float(s) * zeta(s, m_start + offset / step)
    # Even m = 2i, odd m = 2i+1, each a plain progression in i.
    i_even = (m_start + 1) // 2          # smallest i with 2i >= m_start
    i_odd = m_start // 2                 # smallest i with 2i+1 >= m_start
    half = (2.0 * step) ** -float(s)
    even_part = zeta(s, i_even + offset / (2.0 * step))
    odd_part = zeta(s, i_odd + (step + offset) / (2.0 * step))
    return half * (even_part - odd_part)


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x), ignoring nonpositive y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > 0
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two positive values for a slope fit")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def grid_total_variation(values):
    """Total variation of a periodic sequence, wrap-around step included."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(np.diff(values))) + abs(values[0] - values[-1]))


def synth_folded(W, a0=0.0):
    """Synthesize grid values from residue-folded complex coefficients.

    `W` holds ``W[rho] = sum_{j≡rho (mod G), j>=1} (a_j - i b_j)`` for a
    series ``a0/2 + sum_j a_j cos(jt) + b_j sin(jt)``; the return value is
    the series evaluated at ``t_g = 2*pi*g/G``.
    """
    G = len(W)
    return G * np.real(np.fft.ifft(W)) + 0.5 * a0
