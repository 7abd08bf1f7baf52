"""The interpolating trigonometric spline and its spectrum.

A spline of order r on an odd uniform grid is the Fourier series whose
coefficient at harmonic j is the discrete coefficient of j's alias
class scaled by the normalized gain alpha(r, j). Because the gains of
each class sum to one, the series reproduces the samples at the nodes;
because the gains decay like j^-(1+r), the series inherits the target
smoothness class. Harmonics at multiples of N carry no energy: the
constant class enters only through a*_0/2, which keeps interpolation
exact for every gain family.

A spline is its configuration and the discrete spectrum of its samples;
every coefficient and value derives from those two, and evaluation never
truncates. One engine sums the *entire* infinite series at every point:
each alias class's two branches are Lerch transcendents on the unit
circle, expanded in powers of the angle of the point within its cell, and
the sum over the classes is a length-N inverse FFT per expansion column
(R of them) and one for the singular factor, which build a cell table of
R real coefficients and one singular factor per cell; each point then
sums the powers of its angle at its cell, O(R) whatever N is. There is
one such order of summation, so a value has the same bits alone as
inside any array. A call whose angles are all 0 (the nodes of an
unsigned family) builds column 0 alone, the only one nonzero there.
Where s = r + 1 is even or the family is signed, the spline is a periodic
polynomial spline of degree r (knots at the nodes, or at the midpoints
when signed), the columns above u^r cancel in the sum over the classes,
and R = r + 1; otherwise R = order + 65. Uniform grids take cells and
angles from integers; their values — including the node values that
define interpolation — and scattered values are exact to rounding, with
an expansion remainder far below it, and none in a polynomial spline.
A truncated coefficient list, with a recorded neglect bound, is built on
demand only (:meth:`TrigSpline.fourier_series`, the JSON document).

Work that depends only on the grid, the order and the sign pattern of
the gains (grid, order, signed) is kept apart from work on the samples:
the class table of :func:`~trigspec.spline_kernel.class_table` is
computed once per such triple, so gain families with the same signs share
one table and give bit-identical splines. Two plans carry this further,
so that a spline's own work is a gather, a product and its FFTs:

- the coefficient law of j = 1..J (gains, alias classes, sine signs and
  the constant-class mask, from one fold), keyed on (grid, order, variant,
  J) and shared across ``tail_tol``, read by :func:`unfolded_spectrum` and
  so by the truncated series, the JSON document and the curvature
  functional;
- the angle plan of a uniform grid of G points (angles, cells and
  singular factors), keyed on (grid, signed, G, order + 1), read by
  :func:`values_on_uniform_grid`.

The class table, the Lerch table, the signed family's phase shift (one
per grid) and both plans are entries of the package's one store
(:mod:`trigspec._cache`), least recently used out first under one 32 MiB
budget; an entry beyond it is built the same way on every call, and laws
of more than 2^14 indices are built in blocks of 2^14 and never stored.
Plans are read-only, every returned array is fresh, and a value has the
same bits whether its plan was stored or built for the call.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _cache, _kernels, _series, sampling, spline_kernel
from .sampling import DiscreteSpectrum, discrete_coeffs, make_grid
from .spline_kernel import FilterVariant, KernelConfig, class_table, filter_response, gain

_REPRESENTATION_CAP = 64     # largest L in the series truncation J = L*N
# Largest j_max. It covers the longest series the package builds (64 N at
# the largest grid, N = 2^25 + 1). The largest uniform grid, _kernels.MAX_GRID,
# keeps the angle numerators 2 N g + G below (2 N + 1) G < 2^59, in int64.
_MAX_SIZE = 2**32
# Longest coefficient law built in one piece; longer rows come in blocks
# of this many indices.
_LAW_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class TrigSpline:
    """Immutable spline: its configuration and the discrete spectrum of its samples.

    These two fix every coefficient and value through the coefficient
    law; nothing else is stored. ``a0`` is the discrete a*_0 of the
    samples. :meth:`fourier_series` builds the truncated series on each
    call; evaluation never reads it.
    """

    config: KernelConfig
    spectrum: object

    @property
    def a0(self):
        return self.spectrum.a0

    @property
    def table(self):
        """The band gain table, ``filter_response(config, n)``."""
        return filter_response(self.config, self.config.grid.n)

    def __call__(self, t):
        return spline_eval(self, t)

    def fourier_series(self):
        """Truncated series (a0, a[1..J], b[1..J]), J from :func:`series_truncation`."""
        J, _ = series_truncation(self)
        _, ca, cb = unfolded_spectrum(self, J)
        return self.a0, ca, cb


def _law(config, js):
    # The coefficient law of the int64 indices js, from one fold: the gains,
    # the alias classes k, the sine signs and the constant-class mask.
    k, sin_sign = _series._alias_fold(js, config.grid.N)
    return spline_kernel._folded_gain(js, k, config), k, sin_sign, k == 0


def _law_coefficients(law, spectrum):
    """Coefficients (a_hat_j, b_hat_j) = gain * extended discrete coefficient.

    The one code path of every coefficient query, so the coefficient law
    holds as the same floating-point expression everywhere. The constant
    class (j a multiple of N) carries zero. `law` is :func:`_law` of the
    indices; the discrete coefficients are read through its fold, into
    fresh arrays that take the product in place, so an unstored law of
    many indices needs no temporaries beside the ones it holds.
    """
    gains, k, sin_sign, dc = law
    coefficients = sampling._folded_coefficient(spectrum, k, sin_sign)
    for c in coefficients:
        c *= gains
        c[dc] = 0.0
    return coefficients


def series_truncation(spline):
    """Length J and neglect bound of the truncated series :meth:`TrigSpline.fourier_series`.

    J = L*N is the smallest multiple whose bound on the sum of
    |coefficients| beyond J drops below ``config.tail_tol``, capped at
    L = 64; returns ``(J, tail_bound)``, the bound achieved at that J.
    Class k contributes w |alpha_k| S_k(L) with w = |a*_k| + |b*_k| and
    alpha_k the in-band gain, added in class order with classes of w = 0
    skipped; S_k(L) is the sum of class k's unsigned tails above J
    (:func:`~trigspec.spline_kernel.class_tails` of exponent s).
    """
    config = spline.config
    spectrum = spline.spectrum
    N = config.grid.N
    s = config.power
    w = np.abs(spectrum.a) + np.abs(spectrum.b)
    live = w != 0.0
    k = np.arange(1, config.grid.n + 1)[live]
    factor = (w * np.abs(class_table(config).gains))[live]

    def bound(L):
        plus, minus = spline_kernel.class_tails(s, k, L * N, N)
        # cumsum adds in class order, as a per-class loop would.
        return float(np.cumsum(factor * (plus + minus))[-1]) if k.size else 0.0

    # The bound falls as L grows, so the first L below tail_tol is found
    # by bisection: at most eight bounds instead of all 64.
    lo, hi = 1, _REPRESENTATION_CAP
    if bound(hi) >= config.tail_tol:
        lo = hi
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < config.tail_tol:
            hi = mid
        else:
            lo = mid + 1
    return hi * N, bound(hi)


def build_spline(samples, config):
    """Construct the interpolating spline of the given order from samples.

    The spline is the configuration and the direct DFT of the samples;
    the class table of its (grid, order, signed) is computed, once per
    such triple, so a degenerate kernel is refused here rather than at
    evaluation.
    """
    if samples.grid != config.grid:
        raise ValueError("samples and kernel config use different grids")
    class_table(config)
    return TrigSpline(config=config, spectrum=discrete_coeffs(samples))


# -- evaluation -------------------------------------------------------------


def _evaluate(spline, plan):
    # Values at x = N t + shift = 2 pi l + theta (shift pi for the signed
    # family) for P distinct angles |theta| <= pi and a (P, d) array of
    # cells l mod N, both from the plan with the singular factor at each
    # angle. Class k's members on each branch sum to a Lerch expansion at
    # theta with first member j0 = k or N - k, times e^(2 pi i j0 l/N)
    # e^(-i j0 shift/N); the j0 are the residues 1..N-1, so the sum over them
    # is a length-N inverse FFT, taken over the cell table's columns.
    theta, cells, sing = plan
    cfg = spline.config
    N = cfg.grid.N
    spec = spline.spectrum
    table = class_table(cfg)
    coeff = spec.a - 1j * spec.b
    w = np.concatenate((table.gains * coeff, (table.mirror_gains * np.conj(coeff))[::-1]))
    if cfg.signed:
        w *= _cache.get(_signed_shift, N)[0]
    return _cell_table_sum(_columns(cfg), w, sing, theta, cells) + 0.5 * spline.a0


def _signed_shift(N):
    # e^(-i j0 pi/N) at j0 = 1..N-1: the signed family's shift, one per grid.
    return (np.exp(-1j * np.pi * np.arange(1, N) / N),)


def _columns(cfg):
    # Rows 1..N-1, the first members j0, of the one (s, N, terms) table, as
    # views: leading rows of contiguous arrays, so contiguous too. In a
    # polynomial spline the sum over j0 cancels every power of theta above
    # theta^r, so the table is built to columns 0..r only (the singular
    # factor is always kept); other configurations read all order + 65.
    terms = cfg.power if cfg.polynomial else None
    even, odd, lead = _series.lerch_coefficients(cfg.power, cfg.grid.N, terms)
    return even[:-1], odd[:-1], lead[:-1]


def _grid_plan(N, signed, G, power):
    # The P = G/gcd(N, G) angles of the uniform grid of G points (see
    # values_on_uniform_grid), the cells as a (P, G/P) array whose column c
    # holds points cP..cP + P - 1, and the singular factor at each angle.
    P = G // math.gcd(N, G)
    num = 2 * N * np.arange(G) + (G if signed else 0)
    cells = (num + G) // (2 * G)
    theta = np.pi * ((num[:P] - 2 * G * cells[:P]) / G)
    return theta, (cells % N).reshape(-1, P).T, _series._lerch_singular(power, theta)


def _cell_table_sum(columns, w, sing, theta, cells):
    # The cell table: column r of the expansion (odd ones times i) and the
    # singular factor, weighted by w and summed over j0 by one inverse FFT
    # each. Cell l then reads the real coefficients E[r, l] of u^r,
    # u = theta/pi, summed by Horner's rule, and D[R, l] of the singular term.
    # Every point takes these same operations whatever else is in its call.
    # At theta = 0 every power above u^0 and the singular term (s is an
    # integer here) are exactly 0, so a call whose angles are all 0 builds
    # column 0 alone: the FFT of one row has the bits of the same row among
    # the R + 1, and Horner's rule at u = 0 returns E[0].
    even, odd, lead = columns
    if not theta.any():
        Z = np.zeros((1, w.size + 1), dtype=complex)
        Z[0, 1:] = even[:, 0] * w
        return np.fft.ifft(Z, norm="forward")[0].real[cells]
    R = even.shape[1] + odd.shape[1]
    Z = np.zeros((R + 1, w.size + 1), dtype=complex)
    Z[0:R:2, 1:] = even.T * w
    Z[1:R:2, 1:] = odd.T * (1j * w)
    Z[R, 1:] = lead * w
    D = np.fft.ifft(Z, norm="forward")
    E = D[:R].real
    u = (theta / np.pi)[:, None]
    out = E[R - 1][cells]
    for r in range(R - 2, -1, -1):
        out *= u
        out += E[r][cells]
    return out + np.real(D[R][cells] * sing[:, None])


def spline_eval(spline, t):
    """Spline value at arbitrary points; scalar in, scalar out, arrays keep their shape.

    The whole infinite series is summed in closed form. Class k's members
    on each branch, j = mN + k (m >= 0) and j = mN - k (m >= 1), form the
    normalized Lerch sums ``L(z, j0) = sum_m z^m (j0/(mN + j0))^s`` with
    first member ``j0 = k`` or ``N - k`` and ``z = e^(iNt)``
    (``-e^(iNt)`` for the signed family), so with the in-band gain alpha_k

        S(t) = a0/2 + Re sum_k alpha_k [(a*_k - i b*_k) e^(ikt) L(z, k)
                          + (k/(N-k))^s (a*_k + i b*_k) e^(i(N-k)t) L(z, N-k)].

    Each point is written as N t + shift = 2 pi l + theta with |theta| <=
    pi. Rows j0 = 1..N-1 of the Lerch table
    :func:`_series.lerch_coefficients` hold the expansion in powers of
    theta/pi; that table is the one stored per (s, N, R), built to the R
    columns summed: R = r + 1 where s is even or the family is signed,
    whose spline is a polynomial spline of degree r, else order + 65. One
    inverse FFT per column over j0 and one for the singular factor build a
    table of R + 1 coefficients per cell, and each point sums the R powers
    of theta/pi at its cell by Horner's rule plus the singular term, O(R)
    per point whatever N is. Each point takes the same operations whatever
    else is in the call, so it has the same bits alone as inside any
    array. Points that all sit at theta = 0 build column 0 alone; any other
    call pays the R + 1 FFTs, also for one point (R = 67 at order 2 in the
    unsigned families). Every factor lies in the float range at any order.
    The error beyond rounding is :func:`scattered_eval_bound`, for every
    order and every point; it does not depend on ``tail_tol``.
    """
    t_arr = _series.finite_points(t)
    cfg = spline.config
    x = cfg.grid.N * _series.reduce_angle(t_arr.ravel()) + (np.pi if cfg.signed else 0.0)
    theta = _series.reduce_angle(x + np.pi) - np.pi
    cells = np.rint((x - theta) / _series.TWO_PI).astype(np.int64) % cfg.grid.N
    plan = theta, cells[:, None], _series._lerch_singular(cfg.power, theta)
    out = _evaluate(spline, plan)[:, 0]
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


def scattered_eval_bound(spline):
    """Guaranteed absolute accuracy of every spline value, rounding excluded.

    It holds for :func:`spline_eval` and :func:`values_on_uniform_grid`
    alike, at every point. Where s is even or the family is signed, the
    spline is a periodic polynomial spline of degree r: on each cell it is
    a polynomial in theta plus the singular term, so the sum over first
    members of every expansion column above theta^r is exactly zero. The
    engine cuts the rows there, which drops terms that are not small row
    by row but cancel in that sum, so the bound is 0.0. Elsewhere the
    Lerch sum of first member j0 carries at most (j0/N)^s times
    :func:`_series.lerch_remainder_bound` of neglected expansion terms, so
    each branch of class k adds alpha_k (k/N)^s |a*_k - i b*_k| times it.
    """
    spec = spline.spectrum
    cfg = spline.config
    if cfg.polynomial:
        return 0.0
    k = np.arange(1, cfg.grid.n + 1)
    weight = np.abs(class_table(cfg).gains) * _series.ratio_power(k, cfg.grid.N, cfg.power)
    mass = 2.0 * np.sum(weight * np.hypot(spec.a, spec.b))
    return float(mass) * _series.lerch_remainder_bound(cfg.power)


def values_on_uniform_grid(spline, points):
    """Spline values at t_g = 2*pi*g/points, g = 0..points-1, at any order.

    The evaluation of :func:`spline_eval` with cells and angles taken from
    integers: N t_g + shift = pi num/G with num = 2Ng (+ G for the signed
    family) and G = points, so cell l = round(num/2G) and theta = pi (num -
    2Gl)/G are exact. Point g shares its angle with g + P, P = G/gcd(N, G),
    so only P angles are expanded; at G = N all nodes share one, theta = 0
    in the unsigned families, where the cell table of :func:`spline_eval`
    needs column 0 alone. Any other grid builds all R + 1 columns (R =
    r + 1 for a polynomial spline, else order + 65). A value has the bits
    of :func:`spline_eval` at the same cell and angle. The error beyond
    rounding is :func:`scattered_eval_bound`.

    Everything but the samples' part is the grid's angle plan, one entry
    per (grid, signed, G, order + 1) of the package's store, kept while it
    fits the store's 32 MiB budget (larger ones are built on each call,
    with the same bits): the P angles, the cells and the singular factor at
    each angle. `points` is an integer in 1..2^32, refused with ValueError
    before anything is allocated.
    """
    top = _kernels.MAX_GRID
    G = _series.integer(points, 1, f"points must be an integer in 1..{top}", top)
    cfg = spline.config
    N = cfg.grid.N
    plan = _cache.get(_grid_plan, N, cfg.signed, G, cfg.power)
    return _evaluate(spline, plan).T.ravel()


# -- spectrum queries -------------------------------------------------------


def spline_fourier_coeff(spline, j):
    """Series coefficients (a_hat_j, b_hat_j) at any index j >= 1.

    Indices beyond the Nyquist band are the unfolding effect: countably
    many coefficients recovered from N samples. Constant-class indices
    (multiples of N) return (0, 0) — that class enters only via a0.
    """
    j = _series.integer(j, 1, "coefficient index must be an integer >= 1")
    law = _law(spline.config, np.array([j], dtype=np.int64))
    ca, cb = _law_coefficients(law, spline.spectrum)
    return float(ca[0]), float(cb[0])


def unfolded_spectrum(spline, j_max):
    """Rows (j, a_hat_j, b_hat_j) for j = 1..j_max, beyond the band included.

    The coefficient law of j = 1..j_max (gains, alias classes, sine signs
    and the constant-class mask) is a plan, one entry per (grid, order,
    variant, j_max) of the package's store whatever ``tail_tol`` is, kept
    while it fits the store's 32 MiB budget, so a spline's rows cost a
    gather and a product. Rows beyond 2^14 are filled in blocks of 2^14
    indices, each block's law built for it and dropped, with the same
    bits. `j_max` is an integer in 1..2^32, refused with ValueError before
    anything is allocated.
    """
    J = _series.integer(j_max, 1, "j_max must be an integer in 1..4294967296", _MAX_SIZE)
    cfg = spline.config
    if J <= _LAW_BLOCK:
        js = np.arange(1, J + 1)
        law = _cache.get(_law, cfg, js, key=(cfg.grid.N, cfg.order, cfg.variant, J))
        ca, cb = _law_coefficients(law, spline.spectrum)
        return js, ca, cb
    ca = np.empty(J)
    cb = np.empty(J)
    for js, a, b in _blocks(spline, J):
        ca[js[0] - 1:js[-1]] = a
        cb[js[0] - 1:js[-1]] = b
    return np.arange(1, J + 1), ca, cb


def _blocks(spline, J):
    for start in range(0, J, _LAW_BLOCK):
        js = np.arange(start + 1, min(start + _LAW_BLOCK, J) + 1)
        ca, cb = _law_coefficients(_law(spline.config, js), spline.spectrum)
        yield js, ca, cb


# -- curvature functional ---------------------------------------------------


def _series_view(fn):
    if isinstance(fn, tuple) and len(fn) == 3:
        return fn
    if hasattr(fn, "fourier_series"):
        return fn.fourier_series()
    raise TypeError(
        "curvature functional needs a finite Fourier-series view "
        "(object with .fourier_series() or an (a0, a, b) tuple)"
    )


def curvature_functional(fn, order):
    """Integral over one period of the squared order-th derivative, in closed form.

    By Parseval it is pi * sum_j j^(2q) (a_j^2 + b_j^2), q = `order`,
    plus pi a0^2 / 2 at q = 0. For a spline every member j of alias class
    k has |gain_j| = |alpha_k| (k/j)^s, s = r + 1, so the class is its
    in-band term times one plus its unsigned tails above k of exponent
    2s - 2q (:func:`~trigspec.spline_kernel.class_tails`): O(n), no
    truncation, independent of ``tail_tol``. That sum diverges
    for q > r, which raises ValueError. Other inputs (``.fourier_series()``
    or an ``(a0, a, b)`` tuple) are finite series, summed term by term.
    `order` must be an even integer >= 0.
    """
    message = "derivative order must be an even integer >= 0"
    order = _series.integer(order, 0, message)
    if order % 2:
        raise ValueError(message)
    if isinstance(fn, TrigSpline):
        cfg = fn.config
        if order > cfg.order:
            raise ValueError(f"curvature of order {order} diverges at spline order {cfg.order}")
        k = np.arange(1, cfg.grid.n + 1)
        plus, minus = spline_kernel.class_tails(2 * (cfg.power - order), k, k, cfg.grid.N)
        mass = (1.0 + plus) + minus
        a0 = fn.a0
        _, a, b = unfolded_spectrum(fn, cfg.grid.n)
    else:
        a0, a, b = _series_view(fn)
        mass = 1.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    j = np.arange(1, len(a) + 1, dtype=float)
    total = float(np.sum(j ** (2 * order) * (a * a + b * b) * mass))
    if order == 0:
        total += 0.5 * a0 * a0
    return math.pi * total


# -- serialization ----------------------------------------------------------


def spline_to_json(spline):
    """JSON document with keys r/variant/N/J/a0/coeffs.

    The rows are :meth:`TrigSpline.fourier_series`, so ``config.tail_tol``
    sets J. Only nonzero coefficient rows are listed (a constant spline
    has an empty list); absent rows mean exactly zero.
    """
    a0, ca, cb = spline.fourier_series()
    coeffs = []
    for j, (a, b) in enumerate(zip(ca.tolist(), cb.tolist()), start=1):
        if a != 0.0 or b != 0.0:
            coeffs.append([j, a, b])
    return {
        "r": spline.config.order,
        "variant": spline.config.variant.value,
        "N": spline.config.grid.N,
        "J": len(ca),
        "a0": a0,
        "coeffs": coeffs,
    }


def spline_from_json(doc):
    """Rebuild a spline from its JSON document.

    The in-band rows divided by their gains recover the discrete
    spectrum, which with the configuration is the whole spline. Raises
    ValueError, naming the field, for an ``N`` that is not an odd integer
    >= 3, for ``coeffs`` rows whose index is not an integer >= 1 or repeats,
    and for an ``a0`` or a row value that is not a finite number.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    message = f"field 'N' must be an odd integer >= 3, got {doc['N']!r}"
    N = _series.integer(doc["N"], 3, message)
    if N % 2 == 0:
        raise ValueError(message)
    grid = make_grid((N - 1) // 2)
    variant = FilterVariant.from_string(doc["variant"])
    config = KernelConfig(grid=grid, order=doc["r"], variant=variant)
    rows = np.array(doc["coeffs"], dtype=object).reshape(-1, 3)
    message = "field 'coeffs' needs distinct integer row indices >= 1"
    j = _series.integers(rows[:, 0].tolist(), 1, message)
    if np.unique(j).size != j.size:
        raise ValueError(message)
    finite = "coefficients must be finite"
    ra, rb = np.array([[_series.real(x, finite) for x in row] for row in rows[:, 1:]]).reshape(-1, 2).T
    band = j <= grid.n
    at = j[band] - 1
    a = np.zeros(grid.n)
    b = np.zeros(grid.n)
    a[at] = ra[band]
    b[at] = rb[band]
    gains = gain(np.arange(1, grid.n + 1), config)
    spectrum = DiscreteSpectrum(grid, _series.real(doc["a0"], finite), a / gains, b / gains)
    return TrigSpline(config=config, spectrum=spectrum)
