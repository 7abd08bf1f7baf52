"""Closed-form machinery for slowly converging trigonometric power series.

Two families of exact evaluations drive most of the package's accuracy
guarantees:

- full power series ``sum_{k>=1} cos(kt)/k^s`` (even s) and
  ``sum_{k>=1} sin(kt)/k^s`` (odd s), which are Bernoulli polynomials in
  t/(2*pi) up to a constant factor;
- tails of arithmetic-progression power sums
  ``sum_{m>=m0} (m*step + offset)^(-s)``, which are Hurwitz zeta values,
  and their ratio form ``sum_i (k/(i*step + j0))^s`` (:func:`ratio_tail`),
  whose terms are powers of ratios below one and never leave the float
  range before they are negligible;
- the Lerch transcendent on the unit circle,
  ``sum_{m>=0} e^(i m theta) (q/(m+q))^s``, and the polylogarithm
  Li_s(e^(i theta)) it contains, through their zeta-series expansion
  (Erdelyi et al., *Higher Transcendental Functions* I, 1.11; Crandall,
  "Note on fast polylogarithm computation", 2006).

Alongside them sit the small primitives every layer shares: angle
reduction, derivative rotation of a coefficient pair, the fold of a
harmonic index onto its alias class (:func:`alias_fold`), and powers of
ratios formed from their exact numerator and denominator
(:func:`ratio_power`).

Everything here is pure and vectorized.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy.special import digamma, gammaln, zeta

TWO_PI = 2.0 * np.pi
# Terms of the Lerch expansion kept beyond the order s. Past the singular
# term they fall off by a factor of at least 2 for |theta| <= pi, so 64 of
# them reach far below rounding (see lerch_remainder_bound).
_LERCH_EXTRA_TERMS = 64
# lerch_unit works on blocks of this many angles, so its table of powers
# stays small for any number of points.
_LERCH_BLOCK = 4096
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


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


def alias_fold(j, N):
    """Alias class k and sine sign of integer harmonic indices j on N = 2n+1 nodes.

    k = min(j mod N, N - j mod N), 0 for multiples of N. The sine sign is
    -1.0 on the mN - k branch (j mod N > n) and 1.0 elsewhere. No
    validation: j are integers >= 0 and N is odd.
    """
    res = np.mod(j, N)
    k = np.minimum(res, N - res)
    return k, np.where(res > N // 2, -1.0, 1.0)


def ratio_power(a, b, x):
    """``(a/b)^x`` for positive a and b, formed from a and b themselves; arrays broadcast.

    The quotient a/b rounded and raised to x carries x times its rounding
    error. The frexp mantissas of a and b are exact and lie in [1/2, 1),
    so their powers stay normal up to x = 1000 and the result carries a
    few ulps; larger x is split into powers of 1000 and a rest. x >= 0 is
    a scalar, an integer unless a and b share their binary exponent.
    Powers go through the ``np.power`` ufunc, whose bits do not depend on
    whether an operand is a scalar or an array.
    """
    return _ratio_power(a, b, x)


def _ratio_power(a, b, x):
    # ratio_power's body. The cached _lerch_table calls it directly, so a
    # table built on a cache miss adds no public calls: the benchmark's
    # traced call counts must not depend on cache state.
    if x > 1000:
        times, rest = divmod(x, 1000)
        return np.power(_ratio_power(a, b, 1000), times) * _ratio_power(a, b, rest)
    ma, ea = np.frexp(a)
    mb, eb = np.frexp(b)
    shift = ea - eb
    if x == int(x):
        shift = int(x) * shift
    elif np.any(shift != 0):
        raise ValueError("a non-integer power needs a and b with the same binary exponent")
    return np.ldexp(np.power(ma, x) / np.power(mb, x), shift)


def ratio_tail(s, k, j0, step, alternating=False):
    """``sum_{i>=0} eps^i (k/(i*step + j0))^s``, eps = -1 when `alternating`, else 1.

    k, j0 and step are positive and exact (integers, in every use here);
    arrays broadcast. The first term is :func:`ratio_power` of k and j0,
    the rest ``(k/step)^s`` times a Hurwitz tail at 1 + j0/step. For
    k <= j0 every term lies below one, so whatever underflows is
    negligible beside the first.
    """
    rest = ratio_power(k, step, s) * hurwitz_tail(s, 1.0 + np.asarray(j0) / step, alternating)
    first = ratio_power(k, j0, s)
    return first - rest if alternating else first + rest


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


def grid_total_variation(values):
    """Total variation of a periodic sequence, wrap-around step included."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(np.diff(values))) + abs(values[0] - values[-1]))


def _lerch_terms(s):
    return int(s) + _LERCH_EXTRA_TERMS


def _powers_over_factorial(x, R):
    # x^r / r! for r = 0..R-1 by recurrence: no overflow, graceful underflow.
    out = np.empty(R)
    out[0] = 1.0
    for r in range(1, R):
        out[r] = out[r - 1] * x / r
    return out


def _zeta_minus_pole(eps):
    # zeta(1 + eps) - 1/eps by Euler-Maclaurin after K - 1 direct terms;
    # the pole is taken out of K^-eps/eps exactly, through expm1.
    K = 10
    s = 1.0 + eps
    total = math.fsum(k ** -s for k in range(1, K))
    total += math.expm1(-eps * math.log(K)) / eps + 0.5 * K ** -s
    rising = s                                   # s (s+1) ... (s + 2j - 2)
    for j in range(1, 11):
        total += float(_bernoulli_number(2 * j)) / factorial(2 * j) * rising * K ** (1.0 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def _log_pole_factor(eps, m):
    # log[(pi eps / sin(pi eps)) m! / Gamma(m + 1 + eps)] as its power series
    # sum_k zeta(2k) eps^(2k) / k - psi(m+1) eps - sum_{k>=2} (-1)^k zeta(k, m+1) eps^k / k,
    # accurate relative to eps for |eps| <= 1/2.
    total = -(math.fsum(1.0 / j for j in range(1, m + 1)) - np.euler_gamma) * eps
    for k in range(2, 64):
        coeff = -((-1) ** k) * zeta(k, m + 1.0) / k
        if k % 2 == 0:
            coeff += 2.0 * zeta(k) / k
        total += coeff * eps**k
    return total


def _expm1_complex(z):
    # e^z - 1 without cancellation for small |z|.
    x, y = z.real, z.imag
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)


@lru_cache(maxsize=64)
def _pole_constants(s):
    # For non-integer s = n + eps, n = round(s), |eps| <= 1/2: n, eps,
    # zeta(1 + eps) - 1/eps and log P(eps) (see _pole_pair).
    n = round(s)
    eps = s - n
    return n, eps, _zeta_minus_pole(eps), _log_pole_factor(eps, n - 1)


def _pole_pair(s, theta):
    # For non-integer s = n + eps and m = n - 1: m! / (i theta)^m times
    # zeta(1 + eps) (i theta)^m / m! + Gamma(1 - s) (-i theta)^(s-1).
    # Both terms grow like 1/eps and cancel, losing about 1e-16/|eps| if
    # summed as they stand. The reflection formula turns the second into
    # -(i theta)^m / m! P(eps) e^(eps L) / eps, L = log(-i theta),
    # P(eps) = (pi eps / sin(pi eps)) m! / Gamma(m + 1 + eps), so the sum
    # is zeta(1+eps) - 1/eps - expm1(eps L + log P) / eps with every piece
    # computed without cancellation. At theta = 0 the singular term
    # vanishes and it is zeta(1 + eps).
    _, eps, zeta_reg, log_p = _pole_constants(s)
    out = np.full(theta.shape, zeta_reg + 1.0 / eps, dtype=complex)
    nz = theta != 0.0
    log = np.log(np.abs(theta[nz])) - 0.5j * np.pi * np.sign(theta[nz])
    out[nz] = zeta_reg - _expm1_complex(eps * log + log_p) / eps
    return out


@lru_cache(maxsize=64)
def _lerch_table(s, q, step):
    # Returns (table, lead). Row i of table, column r: the coefficient of
    # u^r, u = theta/pi, in e^(i a theta) sum_m e^(i m theta) (q/(m step + q))^s
    # minus its singular part, a = q_i/step, times the real sign of i^r
    # (1, 1, -1, -1 for r = 0, 1, 2, 3 mod 4); every entry is real, so even
    # columns give the real part and odd columns the imaginary part. The
    # row is a^s Phi(e^(i theta), s, a), and the coefficient of (i theta)^r
    # is a^s zeta(s-r, a)/r!; taking the first term of zeta apart gives
    # a^r [1 + a^(s-r) zeta(s-r, 1+a)] / r!, whose powers of a stay below
    # one and are formed from q and step. lead holds a^s, the factor of the
    # singular part and of the columns with s - r <= 1.
    q = np.asarray(q, dtype=float)
    R = _lerch_terms(s)
    integer = s == int(s)
    pole_col = -1 if integer else _pole_constants(s)[0] - 1
    a = q / step
    lead = _ratio_power(q, step, s)
    pf = _powers_over_factorial(math.pi, R)      # pi^r / r!
    c = np.zeros((q.size, R))
    for r in range(R):
        x = s - r
        if r == pole_col:
            continue                             # summed with the singular term
        if x > 1.0:
            c[:, r] = (1.0 + _ratio_power(q, step, x) * zeta(x, 1.0 + a)) * (_ratio_power(q, step, r) * pf[r])
        elif not integer:
            c[:, r] = zeta(x) * lead * pf[r]
        elif x == 1.0:
            harmonic = math.fsum(1.0 / j for j in range(1, r + 1))
            c[:, r] = (harmonic - digamma(a) - np.euler_gamma) * lead * pf[r]
        else:
            # zeta(-m, a) = -B_{m+1}(a)/(m+1); B_n(1-a) = (-1)^n B_n(a)
            # keeps the Horner argument in [0, 1/2].
            n = 1 - int(x)
            sign = np.where(a > 0.5, (-1.0) ** n, 1.0)
            c[:, r] = -sign * _bernoulli_poly(n, np.minimum(a, 1.0 - a)) / n * lead * pf[r]
    table = c * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(R) % 4]
    table.setflags(write=False)
    lead.setflags(write=False)
    return table, lead


def _lerch_singular(s, theta):
    # The part of e^(i a theta) Phi(e^(i theta), s, a) the power series
    # leaves out, the same for every a: -(i theta)^(s-1) log(-i theta) / (s-1)!
    # for integer s (0 at theta = 0), and for non-integer s the pole pair of
    # _pole_pair, which also carries the coefficient of (i theta)^(round(s)-1).
    m = (int(s) if s == int(s) else _pole_constants(s)[0]) - 1
    coeff = _powers_over_factorial(math.pi, m + 1)[m] * _I_POW[m % 4]
    u = (theta / math.pi) ** m
    if s != int(s):
        return coeff * u * _pole_pair(s, theta)
    out = np.zeros(theta.shape, dtype=complex)
    nz = theta != 0.0
    log = np.log(np.abs(theta[nz])) - 0.5j * np.pi * np.sign(theta[nz])
    out[nz] = -coeff * u[nz] * log
    return out


def lerch_unit(s, q, theta, step=1.0):
    """``sum_{m>=0} e^(i m theta) (q/(m*step + q))^s``, the Lerch transcendent on the unit circle.

    The sum is normalized so that its first term is 1: it is
    ``a^s Phi(e^(i theta), s, a)`` with ``a = q/step``, and with the
    default step and q = 1 it is ``Phi(e^(i theta), s, 1)``. Every term is
    a power of a ratio below one, so no order takes it out of the float
    range. Returns a complex array with one row per q and one column per
    theta. Integer s >= 2 takes any q in (0, step]; non-integer s > 1
    takes q = step only. Angles reduce to [-pi, pi), where the expansion

        a^s e^(-i a theta) [sum_r zeta(s-r, a) (i theta)^r / r! + singular term]

    converges geometrically; :func:`lerch_remainder_bound` bounds the
    terms it drops. Its coefficients depend only on (s, q, step) and are
    cached. For non-integer s the singular term
    ``Gamma(1-s) (-i theta)^(s-1)`` and the coefficient
    ``zeta(1 + s - round(s))`` are summed in closed form, since each alone
    is of order 1/(s - round(s)) and p close to an integer would lose
    that factor to cancellation.
    """
    if s <= 1:
        raise ValueError("lerch_unit requires s > 1")
    if not step > 0.0:
        raise ValueError("step must be positive")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.ndim != 1 or np.any((q <= 0.0) | (q > step)):
        raise ValueError("q must be a 1-D array of values in (0, step]")
    if s != int(s) and np.any(q != step):
        raise ValueError("non-integer s is supported for q = step only")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise ValueError("theta must be a 1-D array of finite angles")
    step = float(step)
    table, lead = _lerch_table(float(s), tuple(q.tolist()), step)
    theta = np.mod(theta + np.pi, TWO_PI) - np.pi
    out = np.empty((q.size, theta.size), dtype=complex)
    for start in range(0, theta.size, _LERCH_BLOCK):
        th = theta[start:start + _LERCH_BLOCK]
        powers = np.empty((table.shape[1], th.size))
        powers[0] = 1.0
        powers[1:] = th / math.pi
        np.cumprod(powers, axis=0, out=powers)
        series = table[:, 0::2] @ powers[0::2] + 1j * (table[:, 1::2] @ powers[1::2])
        series += np.multiply.outer(lead, _lerch_singular(s, th))
        out[:, start:start + _LERCH_BLOCK] = np.exp(-1j * np.multiply.outer(q / step, th)) * series
    return out


def lerch_remainder_bound(s):
    """Bound on the terms :func:`lerch_unit` drops, for any q in (0, step] and theta.

    With R terms kept, term r >= R of ``Phi`` is at most
    T_r = 2 Gamma(r-s+1) zeta(r-s+1) pi^r / ((2 pi)^(r-s+1) r!), from
    |B_n(x)| <= 2 n! zeta(n) / (2 pi)^n on [0, 1] and the functional
    equation of zeta; T_{r+1} <= T_r / 2, so the remainder is at most
    2 T_R. A row of :func:`lerch_unit` carries it times ``(q/step)^s``,
    which is at most 1. Rounding is not included.
    """
    R = _lerch_terms(s)
    x = R - s + 1.0
    log_term = (
        math.log(2.0) + gammaln(x) + math.log(zeta(x)) + R * math.log(math.pi)
        - x * math.log(TWO_PI) - gammaln(R + 1.0)
    )
    return 2.0 * math.exp(log_term)


def polylog_unit(s, theta):
    """Polylogarithm ``Li_s(e^(i theta)) = sum_{k>=1} e^(i k theta) / k^s``, s > 1.

    Its real part is ``sum cos(k theta)/k^s`` and its imaginary part
    ``sum sin(k theta)/k^s``. Shape follows theta.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    vals = np.exp(1j * flat) * lerch_unit(s, 1.0, flat)[0]
    return vals.reshape(theta.shape)


def synth_folded(W, a0=0.0):
    """Synthesize grid values from residue-folded complex coefficients.

    `W` holds ``W[rho] = sum_{j≡rho (mod G), j>=1} (a_j - i b_j)`` for a
    series ``a0/2 + sum_j a_j cos(jt) + b_j sin(jt)``; the return value is
    the series evaluated at ``t_g = 2*pi*g/G``.
    """
    G = len(W)
    return G * np.real(np.fft.ifft(W)) + 0.5 * a0
