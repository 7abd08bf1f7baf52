"""Closed-form machinery for slowly converging trigonometric power series.

Three families of exact evaluations drive most of the package's accuracy
guarantees:

- full power series ``sum_{k>=1} cos(kt)/k^s`` (even s) and
  ``sum_{k>=1} sin(kt)/k^s`` (odd s), which are Bernoulli polynomials in
  t/(2*pi) up to a constant factor (:func:`fourier_power`);
- tails of arithmetic-progression power sums
  ``sum_{m>=m0} (m*step + offset)^(-s)``, which are Hurwitz zeta values,
  and their ratio form ``sum_i (k/(i*step + j0))^s`` (:func:`_ratio_tail`),
  whose terms are powers of ratios below one and never leave the float
  range before they are negligible;
- the Lerch transcendent on the unit circle,
  ``sum_{m>=0} e^(i m theta) (q/(m*N + q))^s`` for q = 1..N, and the
  polylogarithm Li_s(e^(i theta)) it gives at N = 1, through their
  zeta-series expansion (Erdelyi et al., *Higher Transcendental
  Functions* I, 1.11; Crandall, "Note on fast polylogarithm computation",
  2006), for |theta| <= pi: one coefficient table per (s, N, terms),
  kept in the package's store (:mod:`trigspec._cache`) and built to the
  number of powers its caller sums (:func:`lerch_coefficients`; the
  spline engine reads rows 1..N-1 of it as views, r + 1 powers for a
  polynomial spline and all int(s) + 64 otherwise) and a singular term
  (:func:`lerch_singular`). The spline engine sums the rows over first
  members column by column into a table per cell; :func:`polylog_unit`
  (any angle, reduced to [-pi, pi]) sums its one row by Horner's rule.
  Both take the same operations at every point, so a value has the same
  bits alone as inside any array.

Alongside them sit the small primitives every layer shares: the integer
contract (:func:`integers`, :func:`integer` for one scalar and its float
twin :func:`real`), the check of evaluation points (:func:`finite_points`),
angle reduction, derivative rotation of a coefficient pair, the fold of a
harmonic index onto its alias class (:func:`alias_fold`), and powers of
ratios formed from their exact numerator and denominator (:func:`ratio_power`).

Everything here is pure and vectorized.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy.special import digamma, gammaln, zeta

from . import _cache

TWO_PI = 2.0 * np.pi
# Terms of the Lerch expansion kept beyond the order s. Past the singular
# term they fall off by a factor of at least 2 for |theta| <= pi, so 64 of
# them reach far below rounding (see lerch_remainder_bound).
_LERCH_EXTRA_TERMS = 64
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])
_INT64_MAX = np.iinfo(np.int64).max


def integers(x, lowest, message, highest=None):
    """An integer argument, checked once: a Python int for a scalar, an int64 array for an array.

    Raises ``ValueError(message)`` for any value that is not finite and
    integral, lies below `lowest` or above `highest`, or falls outside
    int64, and for any value whose NumPy type is not bool, integer or
    float: a numeric string such as ``'3'`` is refused, not parsed. Integer
    arrays are integral by type and skip that test, so an index array costs
    one comparison per bound.
    """
    top = _INT64_MAX if highest is None else min(highest, _INT64_MAX)
    if isinstance(x, (int, np.integer)):
        if lowest <= x <= top:
            return int(x)
        raise ValueError(message)
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValueError(message)
    if arr.dtype.kind in "iu":
        # Only an explicit bound or uint64 can exceed top.
        above = highest is not None or arr.dtype.kind == "u"
        bad = (arr < lowest).any() or (above and (arr > top).any())
    else:
        arr = arr.astype(float, copy=False)
        bad = not ((arr == np.floor(arr)) & (arr >= lowest) & (arr <= top) & (arr < 2.0**63)).all()
    if bad:
        raise ValueError(message)
    arr = arr.astype(np.int64, copy=False)
    return int(arr) if arr.ndim == 0 else arr


def integer(x, lowest, message, highest=None):
    """:func:`integers` for an argument that is one integer: a list or an array is refused too."""
    if not isinstance(x, (int, np.integer)) and np.ndim(x):
        raise ValueError(message)
    return integers(x, lowest, message, highest)


def real(x, message):
    """The float twin of :func:`integer`: one finite number, as a Python float.

    Raises ``ValueError(message)`` for a value that is not finite, a list
    or an array, and any type but bool, integer or float: a numeric string
    such as ``'1.0'`` is refused, not parsed.
    """
    try:
        value = float(x) if isinstance(x, (int, float, np.integer, np.floating, np.bool_)) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def finite_points(t):
    """Evaluation points as a float array, checked once: ``ValueError`` unless every one is finite."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("evaluation point must be finite")
    return t


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
    validation: j are integers (a negative j folds by its residue mod N)
    and N is odd.
    """
    return _alias_fold(j, N)


def _alias_fold(j, N):
    # alias_fold's body, for cached builders (see _ratio_power).
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
    # ratio_power's body. The store's builders (_lerch_table here, the
    # class table and the spline's plans elsewhere) call bodies like this
    # one directly (see trigspec._cache).
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


def _ratio_tail(s, k, j0, step, alternating=False):
    """``sum_{i>=0} eps^i (k/(i*step + j0))^s``, eps = -1 when `alternating`, else 1.

    k, j0 and step are positive and exact (integers, in every use here);
    arrays broadcast. The first term is :func:`ratio_power` of k and j0,
    the rest ``(k/step)^s`` times a Hurwitz tail at 1 + j0/step. For
    k <= j0 every term lies below one, so whatever underflows is
    negligible beside the first. Its one caller is
    ``spline_kernel.class_tails``, whose body the cached class table calls;
    being private, it adds no traced call there.
    """
    rest = _ratio_power(k, step, s) * _hurwitz_tail(s, 1.0 + np.asarray(j0) / step, alternating)
    first = _ratio_power(k, j0, s)
    return first - rest if alternating else first + rest


@lru_cache(maxsize=None)
def _bernoulli_number(n):
    # Exact rational B_n (B_1 = -1/2 convention) via the defining recurrence;
    # scipy's floating values lose ~1e-13 and would cap series accuracy.
    if n == 0:
        return Fraction(1)
    if n % 2 and n > 1:
        return Fraction(0)
    return -Fraction(1, n + 1) * sum(
        comb(n + 1, j) * _bernoulli_number(j) for j in range(n) if j < 2 or j % 2 == 0
    )


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(n):
    # Coefficients of B_n(x) in descending powers: B_n(x) = sum_j C(n,j) B_j x^(n-j),
    # each rounded once by the integer division.
    return tuple(comb(n, j) * b.numerator / b.denominator
                 for j, b in enumerate(map(_bernoulli_number, range(n + 1))))


def _horner(coeffs, x):
    # sum_i coeffs[i] x^(len - 1 - i), highest power first, at a float array
    # x: the same operations at every point, whatever else is in x.
    val = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        val *= x
        val += c
    return val


def _bernoulli_poly(n, x):
    return _horner(_bernoulli_poly_coeffs(n), np.asarray(x, dtype=float))


def fourier_power(s, t):
    """Exact ``sum_{k>=1} cos(k t)/k^s`` for even s and ``sum_{k>=1} sin(k t)/k^s`` for odd s.

    For every integer s >= 1 the sum equals ``(-1)^(floor(s/2)+1)
    (2*pi)^s B_s(t/2pi) / (2 s!)`` on one period; evaluation reduces t
    modulo 2*pi first.
    """
    s = integer(s, 1, "closed form requires an integer s >= 1")
    x = reduce_angle(t) / TWO_PI
    sign = 1.0 if (s // 2) % 2 else -1.0
    return sign * TWO_PI**s / (2.0 * factorial(s)) * _bernoulli_poly(s, x)


def _hurwitz_tail(s, q, alternating):
    # sum_{i>=0} (i+q)^(-s), or sum (-1)^i (i+q)^(-s) when alternating, for
    # s > 1 and a float array q > 0.
    if not alternating:
        return zeta(s, q)
    # Split even/odd i: sum (-1)^i (i+q)^-s = 2^-s [zeta(s, q/2) - zeta(s, (q+1)/2)].
    return 2.0**-s * (zeta(s, q / 2.0) - zeta(s, (q + 1.0) / 2.0))


def progression_tail(s, step, offset, m_start=1):
    """Tail of an arithmetic-progression power sum, exactly.

    Computes ``sum_{m>=m_start} (m*step + offset)^(-s)``. `offset` may be
    negative as long as the first term's base is positive. `offset` and
    integer `m_start` may be arrays; they broadcast, and the result has
    their broadcast shape.
    """
    if not 1 < s < math.inf:
        raise ValueError("progression tail requires s > 1")
    if np.any(np.asarray(m_start) < 1):
        raise ValueError("m_start must be >= 1")
    if np.any(m_start * step + offset <= 0):
        raise ValueError("first progression term must be positive")
    return _progression_tail(s, step, offset, m_start)


def _progression_tail(s, step, offset, m_start=1):
    # progression_tail's body, for cached builders (see _ratio_power).
    return step**-float(s) * zeta(s, m_start + offset / step)


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


def _lerch_table(s, N, R):
    # Returns (even, odd, lead): the even and odd columns of a table of R
    # columns, each contiguous. Row q-1, column r:
    # the coefficient of u^r, u = theta/pi, in e^(i a theta) sum_m e^(i m
    # theta) (q/(m N + q))^s minus its singular part, a = q/N, times the real
    # sign of i^r (1, 1, -1, -1 for r = 0, 1, 2, 3 mod 4); every entry is
    # real, so even columns give the real part and odd columns the imaginary
    # part. The row is a^s Phi(e^(i theta), s, a), and the coefficient of
    # (i theta)^r is a^s zeta(s-r, a)/r!; taking the first term of zeta apart
    # gives a^r [1 + a^(s-r) zeta(s-r, 1+a)] / r!, whose powers of a stay
    # below one and are formed from q and N. lead holds a^s, the factor of
    # the singular part and of the columns with s - r <= 1. Column r does
    # not depend on R, so a narrower table is the first columns of the full
    # one, bit for bit.
    q = np.arange(1.0, N + 1.0)
    integral = s == int(s)
    pole_col = -1 if integral else _pole_constants(s)[0] - 1
    a = q / N
    lead = _ratio_power(q, N, s)
    pf = _powers_over_factorial(math.pi, R)      # pi^r / r!
    c = np.zeros((N, R))
    for r in range(R):
        x = s - r
        if r == pole_col:
            continue                             # summed with the singular term
        if x > 1.0:
            c[:, r] = (1.0 + _ratio_power(q, N, x) * zeta(x, 1.0 + a)) * (_ratio_power(q, N, r) * pf[r])
        elif not integral:
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
    return np.ascontiguousarray(table[:, 0::2]), np.ascontiguousarray(table[:, 1::2]), lead


def lerch_coefficients(s, N, terms=None):
    """The coefficients ``(even, odd, lead)`` of the Lerch expansion, one table per (s, N, terms).

    With ``u = theta/pi`` and ``a = q/N``, the row of first member q = 1..N,

        even @ u^(0, 2, 4, ...) + i odd @ u^(1, 3, 5, ...) + lead * lerch_singular(s, theta),

    is the Lerch expansion ``e^(i a theta) sum_{m>=0} e^(i m theta)
    (q/(m*N + q))^s`` at |theta| <= pi: it is ``a^s e^(i a theta)
    Phi(e^(i theta), s, a) = a^s [sum_r zeta(s-r, a) (i theta)^r / r! +
    singular term]``, which converges geometrically;
    :func:`lerch_remainder_bound` bounds the terms the full table drops.

    ``even`` and ``odd`` hold the real coefficients of the even and odd
    powers (the factor i^r folded in as a real sign), and ``lead`` is
    ``(q/N)^s``. The table holds the powers u^0..u^(R-1), R = ``terms``
    capped at the full width int(s) + 64 (:func:`lerch_remainder_bound`);
    ``terms=None`` or a count at or past the full width gives the full
    table, and a narrower one is its first R columns, bit for bit. Each
    coefficient is a power of a ratio below one times a bounded factor, in
    the float range at any order. Integer s >= 2 takes any N >= 1;
    non-integer s > 1 takes N = 1 only; ``terms`` is an integer >= 1. The
    arrays are contiguous and read-only. The table is an entry of the
    package's store, kept while its 8 (R + 1) N bytes fit the store's
    32 MiB budget and built on every call beyond it.
    """
    if terms is not None:
        terms = integer(terms, 1, "terms must be an integer >= 1")
    if not 1 < s < math.inf:
        raise ValueError("the Lerch expansion requires s > 1")
    N = integer(N, 1, "N must be an integer >= 1")
    if s != int(s) and N != 1:
        raise ValueError("non-integer s is supported for N = 1 only")
    R = _lerch_terms(s) if terms is None else min(terms, _lerch_terms(s))
    return _cache.get(_lerch_table, float(s), N, R)


def lerch_singular(s, theta):
    """The singular term of the Lerch expansion at angles |theta| <= pi, the same for every q.

    It is ``-(i theta)^(s-1) log(-i theta) / (s-1)!`` for integer s (0 at
    theta = 0); for non-integer s it is ``Gamma(1-s) (-i theta)^(s-1)``
    summed in closed form with the coefficient ``zeta(1 + s - round(s))``
    of the power ``(i theta)^(round(s)-1)``, which is left out of
    :func:`lerch_coefficients`: each is of order 1/(s - round(s)), and
    summed as they stand they would cancel. Returns a complex array shaped
    like theta.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim != 1 or not (np.abs(theta) <= np.pi).all():
        raise ValueError("theta must be a 1-D array of angles in [-pi, pi]")
    return _lerch_singular(s, theta)


def _lerch_singular(s, theta):
    # lerch_singular's body, for a 1-D float array of angles in [-pi, pi].
    # The pole pair of _pole_pair also carries the coefficient of
    # (i theta)^(round(s)-1).
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


def lerch_remainder_bound(s):
    """Bound on the terms the Lerch expansion drops, for every row of any N and any theta.

    With R terms kept, term r >= R of ``Phi`` is at most
    T_r = 2 Gamma(r-s+1) zeta(r-s+1) pi^r / ((2 pi)^(r-s+1) r!), from
    |B_n(x)| <= 2 n! zeta(n) / (2 pi)^n on [0, 1] and the functional
    equation of zeta; T_{r+1} <= T_r / 2, so the remainder is at most
    2 T_R. The row of first member q carries it times ``(q/N)^s``, which
    is at most 1. Rounding is not included.
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
    ``sum sin(k theta)/k^s``. It is ``e^(i theta) Phi(e^(i theta), s, 1)``.
    Angles reduce to [-pi, pi], where Phi is ``e^(-i theta)`` times the
    N = 1 row of :func:`lerch_coefficients`: its even columns are one real
    polynomial in u^2, u = theta/pi, and its odd columns u times another,
    each summed by Horner's rule, plus the singular term. Every point takes
    the same operations, so a value has the same bits alone as inside any
    array. s is as in :func:`lerch_coefficients`; a non-finite theta is
    refused. Shape follows theta.
    """
    theta = finite_points(theta)
    flat = theta.ravel()
    reduced = np.mod(flat + np.pi, TWO_PI) - np.pi
    (even,), (odd,), lead = lerch_coefficients(s, 1)
    u = reduced / np.pi
    u2 = u * u
    row = _horner(even[::-1], u2) + 1j * (u * _horner(odd[::-1], u2))
    row += lead * lerch_singular(s, reduced)
    vals = np.exp(1j * flat) * (np.exp(-1j * reduced) * row)
    return vals.reshape(theta.shape)
