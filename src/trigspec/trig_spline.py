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
the sum over the classes is a length-N inverse FFT read at the cell. A
call sums in whichever order needs fewer of those FFTs: one per distinct
angle, or, when a call has more distinct angles than the expansion has
columns (R + 1), one per column into a cell table of R real coefficients
and one singular factor per cell, after which each point costs O(R).
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
- the angle plan of a uniform grid of G points (angles, cells, singular
  factors and, when the sum runs angle by angle, the expansion rows),
  keyed on (grid, order, signed, G), read by :func:`values_on_uniform_grid`.

A plan is stored only when its arrays hold at most 16 KiB; larger ones
(G = 2^14, the quadrature grids) are built the same way on every call,
laws of more than 2^14 indices in blocks of 2^14. Each kind keeps
its 64 most recently used plans, so the two hold at most 2 MiB. Plans are
read-only, every returned array is fresh, and a value has the same bits
whether its plan was stored or built for the call.
"""

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _series, sampling, spline_kernel
from .sampling import DiscreteSpectrum, discrete_coeffs, make_grid
from .spline_kernel import FilterVariant, KernelConfig, class_table, filter_response, gain

_REPRESENTATION_CAP = 64     # largest L in the series truncation J = L*N
# Largest j_max and uniform-grid size. It covers the longest series the
# package builds (64 N at the largest grid, N = 2^25 + 1), and keeps the
# grid's angle numerators 2 N g + G below (2 N + 1) G < 2^59, inside int64.
_MAX_SIZE = 2**32
# The plans of one configuration and size are kept when their arrays hold
# at most _PLAN_BYTES, at most _PLAN_ENTRIES of each kind: the two caches
# hold at most 2 x 64 x 16 KiB = 2 MiB.
_PLAN_BYTES = 1 << 14
_PLAN_ENTRIES = 64
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

    def eval_on_uniform_grid(self, points):
        return values_on_uniform_grid(self, points)

    def fourier_series(self):
        """Truncated series (a0, a[1..J], b[1..J]), J from :func:`series_truncation`."""
        J, _ = series_truncation(self)
        _, ca, cb = unfolded_spectrum(self, J)
        return self.a0, ca, cb


class _PlanCache:
    # Read-only plans by key, least recently used out first. A plan whose
    # arrays hold more than _PLAN_BYTES is built on every call and not
    # stored. Builders call private bodies only, so a plan built on a miss
    # adds no public calls: the benchmark's traced call counts must not
    # depend on cache state.

    def __init__(self, build):
        self._build = build
        self._plans = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, key, *args):
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = self._build(*args)
        arrays = [arr for arr in plan if arr is not None]
        for arr in arrays:
            arr.setflags(write=False)
        if sum(arr.nbytes for arr in arrays) <= _PLAN_BYTES:
            with self._lock:
                self._plans[key] = plan
                if len(self._plans) > _PLAN_ENTRIES:
                    self._plans.popitem(last=False)
        return plan

    def cache_clear(self):
        with self._lock:
            self._plans.clear()


def _law(config, js):
    # The coefficient law of the int64 indices js, from one fold: the gains,
    # the alias classes k, the sine signs and the constant-class mask.
    k, sin_sign = _series._alias_fold(js, config.grid.N)
    return spline_kernel._folded_gain(js, k, config), k, sin_sign, k == 0


# Keyed on (N, order, variant, J): the law of j = 1..J, shared across tail_tol.
_LAW_PLANS = _PlanCache(_law)


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
    skipped; S_k(L) is the sum of (k/j)^s over the members beyond J,
    j = mN + k with m >= L and j = mN - k with m >= L + 1, in ratio form.
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
        S = _series.ratio_tail(s, k, L * N + k, N) + _series.ratio_tail(s, k, (L + 1) * N - k, N)
        # cumsum adds in class order, as a per-class loop would.
        return float(np.cumsum(factor * S)[-1]) if k.size else 0.0

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


def _evaluate(spline, plan, columns):
    # Values at x = N t + shift = 2 pi l + theta (shift pi for the signed
    # family) for P distinct angles |theta| <= pi and a (P, d) array of
    # cells l mod N, both from the plan (:func:`_angle_plan`). Class k's
    # members on each branch sum to a Lerch expansion at theta with first
    # member j0 = k or N - k, times e^(2 pi i j0 l/N) e^(-i j0 shift/N); the
    # j0 are the residues 1..N-1, so the sum over them is a length-N inverse
    # FFT. It is taken in whichever order needs fewer of them: over the R
    # expansion columns (R = r + 1 for a polynomial spline, else order + 65)
    # and the singular factor (R + 1 FFTs, then O(R) per point) when there
    # are more angles than that, else over each angle's expansion rows,
    # which the plan then holds. Either way the FFT input holds at most
    # (R + 1) x N entries.
    theta, cells, sing, rows = plan
    cfg = spline.config
    N = cfg.grid.N
    spec = spline.spectrum
    table = class_table(cfg)
    coeff = spec.a - 1j * spec.b
    w = np.concatenate((table.gains * coeff, (table.mirror_gains * np.conj(coeff))[::-1]))
    if cfg.signed:
        w *= np.exp(-1j * np.pi * np.arange(1, N) / N)
    if rows is None:
        return _cell_table_sum(columns, w, sing, theta, cells) + 0.5 * spline.a0
    Z = np.zeros((theta.size, N), dtype=complex)
    Z[:, 1:] = rows * w
    Y = np.fft.ifft(Z, norm="forward")      # unscaled: sum_j0 Z e^(2 pi i j0 l/N)
    return np.real(Y[np.arange(theta.size)[:, None], cells]) + 0.5 * spline.a0


def _columns(cfg):
    # Rows 1..N-1, the first members j0, of the one (s, N, terms) table, as
    # views: leading rows of contiguous arrays, so contiguous too. In a
    # polynomial spline the sum over j0 cancels every power of theta above
    # theta^r, so the table is built to columns 0..r only (the singular
    # factor is always kept); other configurations read all order + 65.
    terms = cfg.power if cfg.polynomial else None
    even, odd, lead = _series.lerch_coefficients(cfg.power, cfg.grid.N, terms)
    return even[:-1], odd[:-1], lead[:-1]


def _angle_plan(power, columns, theta, cells):
    # What evaluation at the distinct angles theta and the cells needs
    # besides the samples: both of them, the singular factor at each angle
    # and, when the sum runs angle by angle, the (P, N-1) expansion rows.
    sing = _series._lerch_singular(power, theta)
    R = columns[0].shape[1] + columns[1].shape[1]
    rows = None if theta.size > R + 1 else _series._lerch_rows(columns, sing, theta).T
    return theta, cells, sing, rows


def _grid_plan(N, signed, G, power, columns):
    # The angle plan of the uniform grid of G points (see
    # values_on_uniform_grid): P = G/gcd(N, G) angles, and the cells as a
    # (P, G/P) array whose column c holds points cP..cP + P - 1.
    P = G // math.gcd(N, G)
    num = 2 * N * np.arange(G) + (G if signed else 0)
    cells = (num + G) // (2 * G)
    theta = np.pi * ((num[:P] - 2 * G * cells[:P]) / G)
    return _angle_plan(power, columns, theta, (cells % N).reshape(-1, P).T)


# Keyed on (N, order, signed, G).
_GRID_PLANS = _PlanCache(_grid_plan)


def _cell_table_sum(columns, w, sing, theta, cells):
    # The cell table: column r of the expansion (odd ones times i) and the
    # singular factor, weighted by w and summed over j0 by one inverse FFT
    # each. Cell l then reads the real coefficients E[r, l] of u^r,
    # u = theta/pi, summed by Horner's rule, and D[R, l] of the singular term.
    even, odd, lead = columns
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
    pi; the sum over first members is then one inverse FFT of the
    expansion rows at theta (:func:`_series._lerch_rows`) of rows j0 =
    1..N-1 of the Lerch table :func:`_series.lerch_coefficients`, read at
    cell l. That table is the one cached per (s, N, R), built to the R
    columns summed: R = r + 1 where s is even or the family is signed,
    whose spline is a polynomial spline of degree r, else order + 65. With
    more points than R + 1 the sum runs the other way: one inverse
    FFT per column of that table and one for the singular factor builds a
    table of R + 1 coefficients per cell, and each point sums the R powers
    of theta/pi at its cell plus the singular term, O(R) per point
    whatever N is. Every factor lies in the float range at any order. The
    error beyond rounding is :func:`scattered_eval_bound`, for every order
    and every point and either order of the sum; it does not depend on
    ``tail_tol``.
    """
    t_arr = _series.finite_points(t)
    cfg = spline.config
    x = cfg.grid.N * _series.reduce_angle(t_arr.ravel()) + (np.pi if cfg.signed else 0.0)
    theta = _series.reduce_angle(x + np.pi) - np.pi
    cells = np.rint((x - theta) / _series.TWO_PI).astype(np.int64) % cfg.grid.N
    columns = _columns(cfg)
    out = _evaluate(spline, _angle_plan(cfg.power, columns, theta, cells[:, None]), columns)[:, 0]
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
    so only P angles are expanded; at G = N all nodes share one. Up to
    R + 1 angles (R = r + 1 for a polynomial spline, else order + 65, as
    in :func:`spline_eval`) the sum over first members runs angle by
    angle, one FFT each; beyond that through the cell table of
    :func:`spline_eval`, R + 1 FFTs in all. The error beyond rounding is
    :func:`scattered_eval_bound`.

    Everything but the samples' part is the grid's angle plan, kept per
    (grid, order, signed, G) when it holds at most 16 KiB (64 plans, 1 MiB
    at most; larger ones are built on each call, with the same bits): the
    P angles, the cells, the singular factor at each angle and, summed
    angle by angle, the (P, N-1) expansion rows. `points` is an integer in
    1..2^32, refused with ValueError before anything is allocated.
    """
    G = _series.integer(points, 1, "points must be an integer in 1..4294967296", _MAX_SIZE)
    cfg = spline.config
    N = cfg.grid.N
    columns = _columns(cfg)
    plan = _GRID_PLANS((N, cfg.order, cfg.signed, G), N, cfg.signed, G, cfg.power, columns)
    return _evaluate(spline, plan, columns).T.ravel()


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
    and the constant-class mask) is a plan kept per (grid, order, variant,
    j_max), whatever ``tail_tol`` is, when it holds at most 16 KiB (64
    plans, 1 MiB at most), so a spline's rows cost a gather and a product.
    Longer rows are filled in blocks of 2^14 indices, each block's law
    built for it and dropped, with the same bits. `j_max` is an integer in
    1..2^32, refused with ValueError before anything is allocated.
    """
    J = _series.integer(j_max, 1, "j_max must be an integer in 1..4294967296", _MAX_SIZE)
    cfg = spline.config
    if J <= _LAW_BLOCK:
        js = np.arange(1, J + 1)
        law = _LAW_PLANS((cfg.grid.N, cfg.order, cfg.variant, J), cfg, js)
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
    in-band term times sum_j (k/j)^(2s - 2q), in ratio form with two
    Hurwitz zeta tails: O(n), no truncation, independent of ``tail_tol``. That sum diverges
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
        # (k/j)^e over the members j = mN +- k, m >= 1: ratios below one,
        # inside the float range at any order.
        e = 2 * (cfg.power - order)
        N = cfg.grid.N
        k = np.arange(1, cfg.grid.n + 1)
        mass = 1.0 + _series.ratio_tail(e, k, N + k, N)
        mass += _series.ratio_tail(e, k, N - k, N)
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
    >= 3 and for ``coeffs`` rows whose index is not an integer >= 1 or repeats.
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
    j, ra, rb = np.array(doc["coeffs"], dtype=float).reshape(-1, 3).T
    message = "field 'coeffs' needs distinct integer row indices >= 1"
    j = _series.integers(j, 1, message)
    if np.unique(j).size != j.size:
        raise ValueError(message)
    band = j <= grid.n
    at = j[band] - 1
    a = np.zeros(grid.n)
    b = np.zeros(grid.n)
    a[at] = ra[band]
    b[at] = rb[band]
    gains = gain(np.arange(1, grid.n + 1), config)
    spectrum = DiscreteSpectrum(grid, float(doc["a0"]), a / gains, b / gains)
    return TrigSpline(config=config, spectrum=spectrum)
