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
truncates. Uniform grids fold the *entire* infinite series onto the grid
through Hurwitz zeta tails, so grid values — including the node values
that define interpolation — are exact to rounding. Scattered points sum
each alias class's two branches as Lerch transcendents on the unit
circle, again the whole series, with an expansion remainder far below
rounding. A truncated coefficient list, with a recorded neglect bound, is
built on demand only (:meth:`TrigSpline.fourier_series`, the JSON
document).

Work that depends only on the configuration (grid, order, variant) is
kept apart from work on the samples: the class table of
:func:`~trigspec.spline_kernel.class_table` is computed once per
configuration.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _series
from .errors import SeriesPrecisionError
from .sampling import DiscreteSpectrum, discrete_coeffs, make_grid
from .spline_kernel import FilterVariant, KernelConfig, class_table, filter_response, gain

_REPRESENTATION_CAP = 64     # largest L in the series truncation J = L*N
# Scattered evaluation works on blocks of points holding at most this many
# (Lerch row x point) cells.
_EVAL_CELLS = 1 << 16
# The fold is vectorized over blocks of classes holding at most this many
# fold terms per branch, so its work arrays stay small for any grid size.
_FOLD_BLOCK = 4096


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


def _law_coefficients(config, spectrum, js):
    """Coefficients (a_hat_j, b_hat_j) = gain * extended discrete coefficient.

    The one code path of every coefficient query, so the coefficient law
    holds as the same floating-point expression everywhere. The constant
    class (j a multiple of N) carries zero.
    """
    js = np.asarray(js, dtype=np.int64)
    gains = gain(js, config)
    k, sin_sign = _series.alias_fold(js, config.grid.N)
    a_look = np.concatenate(([0.0], spectrum.a))
    b_look = np.concatenate(([0.0], spectrum.b))
    dc = k == 0
    ca = np.where(dc, 0.0, gains * a_look[k])
    cb = np.where(dc, 0.0, gains * sin_sign * b_look[k])
    return ca, cb


def series_truncation(spline):
    """Length J and neglect bound of the truncated series :meth:`TrigSpline.fourier_series`.

    J = L*N is the smallest multiple whose bound on the sum of
    |coefficients| beyond J drops below ``config.tail_tol``, capped at
    L = 64; returns ``(J, tail_bound)``, the bound achieved at that J.
    Class k contributes ((w F) / |H|) S_k(L) with w = |a*_k| + |b*_k|,
    added in class order with classes of w = 0 skipped; S_k(L) is the
    per-class mass of the members beyond J, mN + k with m >= L and mN - k
    with m >= L + 1, as two Hurwitz zeta tails. Raises
    :class:`SeriesPrecisionError` when a class factor (w F) / |H| leaves
    the float range and the bound comes out non-finite.
    """
    config = spline.config
    spectrum = spline.spectrum
    N = config.grid.N
    s = config.power
    ct = class_table(config)
    w = np.abs(spectrum.a) + np.abs(spectrum.b)
    live = w != 0.0
    k = np.arange(1, config.grid.n + 1, dtype=float)[live]
    with np.errstate(over="ignore"):
        factor = (w * ct.magnitudes / np.abs(ct.sums))[live]
    if not np.all(np.isfinite(factor)):
        raise SeriesPrecisionError(
            f"series truncation bound left the float range (N={N}, order {config.order})"
        )

    def bound(L):
        S = _series.progression_tail(s, N, k, m_start=L) + _series.progression_tail(
            s, N, -k, m_start=L + 1
        )
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
    the configuration's class table is computed (once per configuration)
    so a degenerate kernel is refused here rather than at evaluation.
    """
    if samples.grid != config.grid:
        raise ValueError("samples and kernel config use different grids")
    class_table(config)
    return TrigSpline(config=config, spectrum=discrete_coeffs(samples))


# -- evaluation -------------------------------------------------------------


def spline_eval(spline, t):
    """Spline value at arbitrary points; scalar in, scalar out, arrays keep their shape.

    The whole infinite series is summed in closed form. Class k's members
    on each branch, j = mN + k (m >= 0) and j = mN - k (m >= 1), form the
    Lerch sums ``L(z, j0) = sum_m z^m (mN + j0)^-s`` with first member
    ``j0 = k`` or ``N - k`` and ``z = e^(iNt)`` (``-e^(iNt)`` for the signed
    family), so

        S(t) = a0/2 + Re sum_k (F_k/H_k) [(a*_k - i b*_k) e^(ikt) L(z, k)
                                       + (a*_k + i b*_k) e^(i(N-k)t) L(z, N-k)].

    ``L`` is :func:`_series.lerch_unit` with step N, which keeps the
    factor N^-s inside its coefficients. The error beyond rounding is
    :func:`scattered_eval_bound`, for every order and every point; it does
    not depend on ``tail_tol``. Raises :class:`SeriesPrecisionError` when
    a class factor F_k/H_k leaves the float range and the values come out
    non-finite.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("evaluation point must be finite")
    cfg = spline.config
    N = cfg.grid.N
    n = cfg.grid.n
    s = cfg.power
    spec = spline.spectrum
    k = np.arange(1, n + 1)
    first = np.concatenate((k, N - k)).astype(float)   # first member j0 of each branch
    flat = _series.reduce_angle(t_arr.ravel())
    shift = np.pi if cfg.signed else 0.0
    out = np.empty(flat.shape)
    step = max(_EVAL_CELLS // (2 * n), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _class_scales(spline)
        weights = np.concatenate((scale * (spec.a - 1j * spec.b), scale * (spec.a + 1j * spec.b)))
        for start in range(0, flat.size, step):
            tb = flat[start:start + step]
            lerch = _series.lerch_unit(s, first, N * tb + shift, step=N)
            out[start:start + step] = np.real(weights @ (np.exp(1j * np.multiply.outer(first, tb)) * lerch))
        out += 0.5 * spline.a0
    if not np.all(np.isfinite(out)):
        raise SeriesPrecisionError(
            f"scattered evaluation left the float range (N={N}, order {cfg.order})"
        )
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


def _class_scales(spline):
    # F_k / H_k: the factor of class k's Lerch sums.
    ct = class_table(spline.config)
    return ct.magnitudes / ct.sums


def scattered_eval_bound(spline):
    """Guaranteed absolute accuracy of :func:`spline_eval`, rounding excluded.

    Each Lerch sum carries at most :func:`_series.lerch_remainder_bound`
    of neglected expansion terms; the bound weighs it by the class
    factors and coefficient magnitudes. Raises :class:`SeriesPrecisionError`
    when a class factor F_k/H_k leaves the float range and the bound comes
    out non-finite.
    """
    spec = spline.spectrum
    cfg = spline.config
    with np.errstate(over="ignore", invalid="ignore"):
        mass = 2.0 * np.sum(np.abs(_class_scales(spline)) * np.hypot(spec.a, spec.b))
    bound = float(mass) * _series.lerch_remainder_bound(cfg.power, cfg.grid.N)
    if not math.isfinite(bound):
        raise SeriesPrecisionError(
            f"scattered evaluation bound left the float range (N={cfg.grid.N}, order {cfg.order})"
        )
    return bound


def values_on_uniform_grid(spline, points):
    """Exact spline values at t_g = 2*pi*g/points, g = 0..points-1.

    The whole infinite series is folded onto the grid residues; fold
    tails are Hurwitz zeta values, so the only error is rounding. Works
    for any grid size, in particular the N nodes themselves. Raises
    :class:`SeriesPrecisionError` when a fold term leaves the float
    range and the values come out non-finite.
    """
    if points < 1 or points != int(points):
        raise ValueError("points must be a positive integer")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _series.synth_folded(_folded_spectrum(spline, int(points)), spline.a0)
    if not np.all(np.isfinite(vals)):
        raise SeriesPrecisionError(
            f"uniform-grid fold left the float range (N={spline.config.grid.N}, "
            f"order {spline.config.order}, {int(points)} points)"
        )
    return vals


def _folded_spectrum(spline, G):
    # Class k contributes its in-band term at j = k and, on each branch
    # j = mN +- k (m >= 1), P Hurwitz tails of step P*N that fold onto the
    # grid residues. Classes are processed in blocks, and one np.add.at per
    # block adds the terms in class order (band, + branch, - branch), the
    # order of a per-class loop.
    cfg = spline.config
    N = cfg.grid.N
    s = cfg.power
    spec = spline.spectrum
    ct = class_table(cfg)
    P = G // math.gcd(N, G)
    PN = float(P * N)
    scale = PN**-float(s)
    W = np.zeros(G, dtype=complex)
    m0 = np.arange(1, P + 1, dtype=np.int64)
    branch = np.array([1, -1])
    live = np.flatnonzero((spec.a != 0.0) | (spec.b != 0.0))
    per_block = max(_FOLD_BLOCK // P, 1)
    for start in range(0, live.size, per_block):
        idx = live[start:start + per_block, None]   # column: one row per class
        k = idx + 1
        astar = spec.a[idx]
        bstar = spec.b[idx]
        Hk = ct.sums[idx]
        band = ct.raw_gains[idx] / Hk * (astar - 1j * bstar)
        cfac = (astar - 1j * branch * bstar) * (ct.magnitudes[idx] / Hk)
        j0 = m0 * N + (branch * k)[:, :, None]
        q = j0 / PN
        if cfg.signed:
            sgn0 = np.where((j0 // N) % 2 == 1, -1.0, 1.0)
            tails = sgn0 * scale * _series.hurwitz_tail(s, q, alternating=(P % 2 == 1))
        else:
            tails = scale * _series.hurwitz_tail(s, q)
        rows = len(idx)
        terms = np.concatenate((band, (cfac[:, :, None] * tails).reshape(rows, -1)), axis=1)
        where = np.concatenate((k % G, np.mod(j0, G).reshape(rows, -1)), axis=1)
        np.add.at(W, where.ravel(), terms.ravel())
    return W


# -- spectrum queries -------------------------------------------------------


def spline_fourier_coeff(spline, j):
    """Series coefficients (a_hat_j, b_hat_j) at any index j >= 1.

    Indices beyond the Nyquist band are the unfolding effect: countably
    many coefficients recovered from N samples. Constant-class indices
    (multiples of N) return (0, 0) — that class enters only via a0.
    """
    if j < 1 or j != int(j):
        raise ValueError("coefficient index must be an integer >= 1")
    ca, cb = _law_coefficients(spline.config, spline.spectrum, np.asarray([int(j)]))
    return float(ca[0]), float(cb[0])


def unfolded_spectrum(spline, j_max):
    """Rows (j, a_hat_j, b_hat_j) for j = 1..j_max, beyond the band included."""
    if j_max < 1 or j_max != int(j_max):
        raise ValueError("j_max must be a positive integer")
    js = np.arange(1, int(j_max) + 1)
    ca, cb = _law_coefficients(spline.config, spline.spectrum, js)
    return js, ca, cb


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
    k has |gain_j| = (F_k / H_k) j^-s, s = r + 1, so the class is its
    in-band term times sum_j (k/j)^(2s - 2q), two Hurwitz zeta tails:
    O(n), no truncation, independent of ``tail_tol``. That sum diverges
    for q > r, which raises ValueError. Other inputs (``.fourier_series()``
    or an ``(a0, a, b)`` tuple) are finite series, summed term by term.
    `order` must be an even integer >= 0.
    """
    if order < 0 or order % 2 != 0 or order != int(order):
        raise ValueError("derivative order must be an even integer >= 0")
    if isinstance(fn, TrigSpline):
        cfg = fn.config
        if order > cfg.order:
            raise ValueError(f"curvature of order {order} diverges at spline order {cfg.order}")
        # (k/j)^e over the members j = mN +- k is (m N/k +- 1)^-e; the step
        # N/k keeps every power inside the float range at any order.
        e = 2 * (cfg.power - order)
        step = cfg.grid.N / np.arange(1, cfg.grid.n + 1)
        mass = 1.0 + _series.progression_tail(e, step, 1.0)
        mass += _series.progression_tail(e, step, -1.0)
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
    spectrum, which with the configuration is the whole spline.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    N = int(doc["N"])
    grid = make_grid((N - 1) // 2)
    config = KernelConfig(
        grid=grid,
        order=int(doc["r"]),
        variant=FilterVariant.from_string(doc["variant"]),
    )
    rows = {int(j): (a, b) for j, a, b in doc["coeffs"]}
    gains = gain(np.arange(1, grid.n + 1), config)
    a = np.empty(grid.n)
    b = np.empty(grid.n)
    for k in range(1, grid.n + 1):
        ra, rb = rows.get(k, (0.0, 0.0))
        a[k - 1] = ra / gains[k - 1]
        b[k - 1] = rb / gains[k - 1]
    return TrigSpline(config=config, spectrum=DiscreteSpectrum(grid, float(doc["a0"]), a, b))
