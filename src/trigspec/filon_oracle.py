"""Quadrature route to Fourier coefficients, and the two error bounds.

The slow factor of each coefficient integral is the signal (or its
approximant); the oscillatory cosine/sine acts as a weight. Numerically
the integrals are periodic trapezoid sums on doubling grids — spectrally
accurate for smooth periodic integrands and exact on trigonometric
polynomials whose degree the grid resolves. That gives an independent
oracle for the closed-form spline coefficients: integrating the spline's
*values* must reproduce the coefficients its own series claims. Every
grid is read through ``sampling.uniform_values`` (an analytic signal's
values from ``signal_model.grid_values``, exact phases for a harmonic
sum; a spline's from ``values_on_uniform_grid``, exact angles), and the
trapezoid sums of all harmonics k < G/2 on a grid of G points are one
real FFT of its values: (2/G) rfft(values) holds a_k - i b_k at entry k.

Both coefficient-error bounds live here as well: the k-independent
sup-norm bound (4/pi) ||f - phi||_C, and the refined bound
Var(h)/(pi k^(q+1)) on the coefficients of h = (f - phi)^(q), which
restores the decay order q. The variation is proved in closed form
(:func:`diff_variation_bound`) by the smaller of two routes: the
difference route sqrt(2 pi) ||(f - phi)^(q+1)||_2, and the sum route
Var(f^(q)) + Var(phi^(q)), whose spline part at q = r is the sum of the
jumps of phi^(r) in a polynomial spline. q is min(R, r), the signal's
declared order and the spline's, except where phi^(r) has infinite
variation (s = r + 1 odd, unsigned family): there it is r - 1.
"""

import math

import numpy as np

from . import _kernels, _series
from .errors import QuadratureConvergenceError
from .sampling import uniform_values
from .signal_model import HARMONIC_SUM, POWER_DECAY_COSINE, true_coefficient
from .spline_kernel import class_tails
from .trig_spline import unfolded_spectrum

# Quadrature policy: the base grid (a power of two), the doubling budget
# and the agreement two successive estimates must reach.
_BASE_POINTS = 1024
_MAX_DOUBLINGS = 10
_CONVERGENCE_TOL = 1e-11
# Largest quadrature grid, the largest uniform grid of the package.
_MAX_POINTS = _kernels.MAX_GRID
# Grid of the sup-norm distance.
_SUP_POINTS = 2**14
# The difference route sums j = 1..J0 directly, J0 = _HEAD_PERIODS * N,
# and bounds the tail beyond in closed form.
_HEAD_PERIODS = 4
_EPS = math.ulp(1.0)
# Relative error allowed on each computed coefficient, true or spline:
# a power, a gain (ratio power, class normalizer) and a product, each a
# few eps.
_COEFF_REL = 16 * _EPS
# Outward factor on a variation bound: every power, square, product,
# square root and SciPy zeta value on the way is within a few eps
# relative, and the sums are correctly rounded (math.fsum).
_ROUND_OUT = 1.0 + 64 * _EPS
# What underflow can take from a term of weight w >= 1 of an energy sum
# (a square, a product and the weight's product, each at most half the
# smallest subnormal 2^-1074), with room: w * _TINY.
_TINY = 2.0**-1070


def quad_fourier_coeff(fn, k, _cache=None):
    """Coefficients (a_k, b_k) of fn by periodic trapezoid quadrature.

    The grid starts at max(1024, 32*max(k,1)) rounded up to a power of
    two and doubles, at most 10 times and to at most 2**32 points, until
    two successive estimates agree within 1e-11 in both components. A
    grid's estimate is entry k of one real FFT of fn's values there,
    (2/G) rfft(values) = a - i b, read by ``sampling.uniform_values``; a
    dict passed as `_cache` keeps each grid's spectrum for the next index.
    `k` is an integer in 0..2**26, whose first grid has at most 2**31
    points, so the ladder reaches at least two grids; a larger one, whose
    first grid would be the largest, could never converge and is refused
    with ValueError before anything is allocated.

    Raises
    ------
    QuadratureConvergenceError
        When the doubling budget runs out or the next grid would pass
        2**32 points; carries the last two estimates.
    """
    top = _MAX_POINTS // 64
    k = _series.integer(k, 0, f"coefficient index k must be an integer in 0..{top}", top)
    G = max(_BASE_POINTS, 32 * max(k, 1))
    if G & (G - 1):
        G = 1 << G.bit_length()
    spectra = {} if _cache is None else _cache
    before = prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        if G > _MAX_POINTS:
            reason = f"on grids of up to {_MAX_POINTS} points"
            break
        if G not in spectra:
            spectra[G] = 2.0 / G * np.fft.rfft(uniform_values(fn, G))
        c = spectra[G][k]
        cur = (float(c.real), -float(c.imag))
        if prev is not None and (
            abs(cur[0] - prev[0]) <= _CONVERGENCE_TOL
            and abs(cur[1] - prev[1]) <= _CONVERGENCE_TOL
        ):
            return cur
        before, prev = prev, cur
        G *= 2
    else:
        reason = f"within {_MAX_DOUBLINGS} doublings"
    raise QuadratureConvergenceError(
        f"quadrature for k={k} did not converge {reason} (last {prev}, previous {before})",
        last=prev,
        previous=before,
    )


def filon_coeffs(phi, k_range):
    """Quadrature coefficients of an approximant over a range of indices.

    `k_range` is an inclusive (k_lo, k_hi) pair of integers >= 0. Each
    grid's values and FFT are shared across indices. Returns a list of
    (k, a_hat_k, b_hat_k).
    """
    message = "k_range must be a pair of integers >= 0"
    if not np.iterable(k_range) or len(k_range) != 2:
        raise ValueError(message)
    k_lo, k_hi = (_series.integer(k, 0, message) for k in k_range)
    cache = {}
    out = []
    for k in range(k_lo, k_hi + 1):
        a, b = quad_fourier_coeff(phi, k, _cache=cache)
        out.append((k, a, b))
    return out


def cnorm_error_bound(sup_error):
    """The k-independent coefficient bound (4/pi) * ||f - phi||_C."""
    if not sup_error >= 0:
        raise ValueError("sup error must be nonnegative")
    return 4.0 / math.pi * sup_error


def refined_error_bound(k, q, diff_variation):
    """Decay-restoring bound variation/(pi k^(q+1)).

    |c_k(h)| <= Var(h)/(pi k) for the coefficients of a periodic h of
    bounded variation (Zygmund, *Trigonometric Series*, ch. II), and the
    coefficients of f - phi are those of h = (f - phi)^(q) divided by
    k^q. `diff_variation` bounds Var(h); :func:`diff_variation_bound`
    proves one, by the difference or the sum route, and
    :func:`filon_table` takes q = min(R, r), or r - 1 where phi^(r) has
    infinite variation. k is an index or an index array: a float or an
    array shaped like k.
    """
    k = _series.integers(k, 1, "bound is defined for integer k >= 1")
    q = _series.integer(q, 0, "q must be >= 0")
    if not diff_variation >= 0:
        raise ValueError("diff_variation must be nonnegative")
    bound = diff_variation / (math.pi * np.power(np.asarray(k, dtype=float), q + 1))
    return bound if np.ndim(k) else float(bound)


def sup_distance(f, g):
    """Max of |f - g| over a uniform grid of 2**14 points (a lower sup-norm estimate)."""
    return float(np.max(np.abs(uniform_values(f, _SUP_POINTS) - uniform_values(g, _SUP_POINTS))))


def diff_variation_bound(signal, spline, q):
    """Proved upper bound on Var(h), h = (f - phi)^(q), for signal f and spline phi.

    It is the smaller of two routes, in O(n + J0) work, J0 = 4N (the
    jump sum below is O(nN), the order of the spline's own DFT). Here R
    and V are the signal's declared order and variation, r the spline's
    order, s = r + 1, and ||g||_2^2 = pi sum_j j^(2q+2) |g_j|^2 for
    g = h' by Parseval, |g_j|^2 = a_j^2 + b_j^2.

    - Difference route, for q <= r - 1 where the signal's sum converges
      (p > q + 3/2 for power decay, always for a harmonic sum): Var(h) =
      int |h'| <= sqrt(2 pi) ||h'||_2 by Cauchy-Schwarz. The terms
      j <= J0 are summed directly from f_j - phi_j, so they do not
      cancel. Beyond J0, T_f is the signal's part (zeta(2p - 2q - 2,
      J0 + 1) for power decay, an exact finite sum for a harmonic sum)
      and T_phi the spline's, summed per alias class: |phi_k|^2 k^(2q+2)
      times its tails above J0 of exponent 2s - 2q - 2
      (:func:`~trigspec.spline_kernel.class_tails`). The tail is T_f -
      2X + T_phi exactly for an integer p, X the cross term in closed
      form from the signed tails above J0, and at most (sqrt(T_f) +
      sqrt(T_phi))^2 by Minkowski otherwise.
    - Sum route: Var(f^(q)) + Var(phi^(q)). Var(f^(q)) <= min(pi^(R-q)
      V, sqrt(2 pi) ||f^(q+1)||_2); the first holds for q <= R since a
      zero-mean periodic g has sup |g| <= Var(g)/2 and Var(g) <= 2 pi
      sup |g'|. Var(phi^(q)) <= sqrt(2 pi) ||phi^(q+1)||_2, the class sums
      of :func:`~trigspec.trig_spline.curvature_functional` at order
      q + 1 (each class's tails above 0), for q <= r - 1. At q = r,
      where s is even or the family is signed, phi^(r) is constant
      between its knots tau_i (the nodes, or the midpoints when signed),
      so Var(phi^(r)) = sum_i |d_i| over its jumps d_i = (2 pi/N)
      sum_{k=1..n} k^(r+1) [A_k cos k tau_i + B_k sin k tau_i], with
      (A_k, B_k) the in-band coefficients turned r + 1 quarter turns
      (:func:`~trigspec._series.rotate_pair`).

    Any other case has no finite route and gives inf: q > r, and q = r
    where s is odd and the family unsigned, whose phi^(r) has infinite
    variation (:func:`filon_table` takes q = r - 1 there).

    Rounding is outward: each |f_j - phi_j| is enlarged by 16 eps
    (|f_j| + |phi_j|), the error allowed on its two operands, before it is
    squared; each jump by (2n + 64) (eps sum_k (|A_k| + |B_k|) + 2^-1070),
    which covers the (3 + n/2) eps sum_k (|A_k| + |B_k|) of
    :func:`~trigspec._kernels.grid_series`, whose exact phases give the
    jumps, and the coefficients' own 16 eps; each energy sum by 2^-1070
    times its weights j^(2q+2), for what underflow takes from tiny terms;
    nonnegative terms are added with math.fsum; and the result is
    multiplied by 1 + 64 eps for the relative rounding of the powers,
    products, square roots and SciPy zeta values (within 2.1 eps of direct
    sums wherever normal) on the way. A bound that leaves the float range
    is inf. `q` is an integer >= 0.
    """
    q = _series.integer(q, 0, "q must be >= 0")
    cfg = spline.config
    N, n, r = cfg.grid.N, cfg.grid.n, cfg.order
    J0 = _HEAD_PERIODS * N
    with np.errstate(over="ignore", invalid="ignore"):
        js, sa, sb = unfolded_spectrum(spline, J0)
        weight = js.astype(float) ** (2 * q + 2)
        band = weight[:n] * (sa[:n] ** 2 + sb[:n] ** 2)
        floor = _TINY * math.fsum(weight)
        routes = []
        if q <= r - 1:
            f_tail = _signal_energy(signal, q, J0)
            if f_tail < math.inf:
                ta, tb = true_coefficient(signal, js)
                da = np.abs(ta - sa) + _COEFF_REL * (np.abs(ta) + np.abs(sa))
                db = np.abs(tb - sb) + _COEFF_REL * (np.abs(tb) + np.abs(sb))
                head = math.fsum(weight * da**2) + math.fsum(weight * db**2)
                tail = _difference_tail(signal, cfg, q, J0, f_tail, sa[:n], sb[:n], band)
                routes.append(_norm_variation(head + tail + floor))
            phi_var = _norm_variation(_spline_tail(band, 2 * (r - q), N, 0) + floor)
        elif q == r and cfg.polynomial:
            phi_var = _jump_variation(cfg, sa[:n], sb[:n])
        else:
            phi_var = math.inf
        f_var = _norm_variation(_signal_energy(signal, q))
        R, V = signal.smoothness.r, signal.smoothness.variation
        if q <= R:
            f_var = min(f_var, V * float(np.power(math.pi, R - q)))
        routes.append(f_var + phi_var)
    bound = min((x for x in routes if not math.isnan(x)), default=math.inf)
    return bound * _ROUND_OUT


def _norm_variation(energy):
    # sqrt(2 pi) ||g||_2 with ||g||_2^2 = pi * energy.
    return math.pi * math.sqrt(2.0 * energy)


def _signal_energy(signal, q, above=0):
    # sum_{j > above} j^(2q+2) |f_j|^2: inf where the power-decay sum
    # diverges (p <= q + 3/2), else one Hurwitz value at above + 1, which
    # SciPy gives within 2.1 eps of direct sums wherever it is a normal
    # double, at large arguments too.
    if signal.kind == HARMONIC_SUM:
        ks, a, b = signal.term_arrays
        weight = ks.astype(float) ** (2 * q + 2)
        return math.fsum((weight * (a * a + b * b + _TINY))[ks > above])
    x = 2.0 * (signal.p - q - 1)
    if x <= 1.0:
        return math.inf
    return float(_series.progression_tail(x, 1, 0.0, above + 1))


def _spline_tail(band, e, N, above):
    # sum_{j > above} j^(2q+2) |phi_j|^2: class k's member j carries
    # band_k (k/j)^e, e = 2(r - q), so it is band_k times class k's tails
    # above the cut.
    plus, minus = class_tails(e, np.arange(1, band.size + 1), above, N)
    return math.fsum(band * (plus + minus))


def _difference_tail(signal, config, q, J0, f_tail, a, b, band):
    # sum_{j > J0} j^(2q+2) |f_j - phi_j|^2, with T_f = f_tail and T_phi
    # the spline's. A harmonic sum, or a power p that is not an integer and
    # so not s, takes (sqrt(T_f) + sqrt(T_phi))^2. An integer p takes
    # T_f - 2X + T_phi exactly: where p = s the spline's members j^-s track
    # the signal's and the Minkowski form would overstate a tail that
    # cancels (class tails take an integer exponent). Member j of class k
    # carries eps_j (k/j)^s times the in-band coefficient C_k (the one on
    # the signal's component, its sine turned on the mN - k branch), so X
    # is sum_k C_k k^(2q+2-p) times class k's signed tails above J0 of
    # exponent p + s - 2q - 2 > 3/2. Rounding: 64 eps (T_f + 2 sum_k |X_k|
    # + T_phi).
    N = config.grid.N
    spline_tail = _spline_tail(band, 2 * (config.order - q), N, J0)
    if signal.kind == HARMONIC_SUM or signal.p != int(signal.p):
        return (math.sqrt(f_tail) + math.sqrt(spline_tail)) ** 2
    k = np.arange(1, a.size + 1)
    x = signal.p + config.power - 2 * q - 2
    plus, minus = class_tails(x, k, J0, N, config.signed)
    cross = a * plus + a * minus if signal.kind == POWER_DECAY_COSINE else b * plus - b * minus
    cross *= k.astype(float) ** (2 * q + 2 - signal.p)
    total = f_tail - 2.0 * math.fsum(cross) + spline_tail
    slack = 64 * _EPS * (f_tail + 2.0 * math.fsum(np.abs(cross)) + spline_tail)
    return max(total, 0.0) + slack


def _jump_variation(config, a, b):
    # sum_i |d_i| over the N jumps of phi^(r) (see diff_variation_bound),
    # from the in-band coefficients a, b. The knots tau_i are the grid
    # 2 pi g/G at G = N, or its odd points at G = 2N when signed, so the
    # phases are grid_series' exact ones: each d_i lies within (3 + n/2) eps
    # sum_k (|A_k| + |B_k|) of the exact sum of its computed terms, and the
    # terms' own error (16 eps on a coefficient, a few on its power and
    # product) adds under 20 eps sum_k (|A_k| + |B_k|); 2n + 64 covers both.
    N, n, r = config.grid.N, config.grid.n, config.order
    k = np.arange(1, n + 1)
    scale = k.astype(float) ** (r + 1)
    A, B = (scale * c for c in _series.rotate_pair(a, b, (r + 1) % 4))
    step = 2 if config.signed else 1
    jumps = _kernels.grid_series(k, A, B, step * N)[step - 1::step]
    slack = N * (2 * n + 64) * (_EPS * math.fsum(np.abs(A) + np.abs(B)) + _TINY)
    return 2.0 * math.pi / N * (math.fsum(np.abs(jumps)) + slack)


def _shared_order(signal, config):
    # The order q of the refined bound: min(R, r), or r - 1 where q = r
    # and phi^(r) has infinite variation (s odd, unsigned family).
    q = min(signal.smoothness.r, config.order)
    return q - 1 if q == config.order and not config.polynomial else q


def filon_table(signal, spline, k_max):
    """Rows comparing the spline's coefficients with the true ones, both bounds attached."""
    sup = sup_distance(signal, spline)
    cbound = cnorm_error_bound(sup)
    q = _shared_order(signal, spline.config)
    dv = diff_variation_bound(signal, spline, q)
    js, ah, bh = unfolded_spectrum(spline, k_max)
    ta, tb = true_coefficient(signal, js)
    refined = refined_error_bound(js, q, dv)
    columns = (x.tolist() for x in (js, ah, bh, ta, tb, refined))
    return [
        {"k": k, "a_hat": a, "b_hat": b, "a_true": at, "b_true": bt,
         "cnorm_bound": cbound, "refined_bound": bound}
        for k, a, b, at, bt, bound in zip(*columns)
    ]
