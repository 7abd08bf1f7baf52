"""Quadrature route to Fourier coefficients, and the two error bounds.

The slow factor of each coefficient integral is the signal (or its
approximant); the oscillatory cosine/sine acts as a weight. Numerically
the integrals are periodic trapezoid sums on doubling grids — spectrally
accurate for smooth periodic integrands and exact on trigonometric
polynomials whose degree the grid resolves. That gives an independent
oracle for the closed-form spline coefficients: integrating the spline's
*values* must reproduce the coefficients its own series claims.

Both coefficient-error bounds live here as well: the k-independent
sup-norm bound (4/pi) ||f - phi||_C, and the refined bound
variation / (pi k^(q+1)) that restores the decay order q = min(r, m).
"""

import math

import numpy as np

from . import _series
from .errors import QuadratureConvergenceError
from .signal_model import true_coefficient
from .trig_spline import unfolded_blocks, unfolded_spectrum

# Quadrature policy: the base grid (a power of two), the doubling budget
# and the agreement two successive estimates must reach.
_BASE_POINTS = 1024
_MAX_DOUBLINGS = 10
_CONVERGENCE_TOL = 1e-11
# Largest quadrature grid, the largest uniform grid a spline evaluates on.
_MAX_POINTS = 2**32
# Grid of the sup-norm distance; grid and series length of the
# difference-variation estimate.
_SUP_POINTS = 2**14
_VARIATION_POINTS = 2**16
_VARIATION_TERMS = 4 * _VARIATION_POINTS


def _values_on_grid(fn, G, cache=None):
    if cache is not None and G in cache:
        return cache[G]
    if hasattr(fn, "eval_on_uniform_grid"):
        vals = np.asarray(fn.eval_on_uniform_grid(G), dtype=float)
    else:
        t = 2.0 * np.pi * np.arange(G) / G
        vals = np.asarray(fn(t), dtype=float)
        if vals.shape != (G,):
            vals = np.array([float(fn(x)) for x in t])
    if cache is not None:
        cache[G] = vals
    return vals


def _trapezoid_pair(values, k):
    G = len(values)
    t = 2.0 * np.pi * np.arange(G) / G
    a = 2.0 / G * float(values @ np.cos(k * t))
    b = 2.0 / G * float(values @ np.sin(k * t))
    return a, b


def quad_fourier_coeff(fn, k, _cache=None):
    """Coefficients (a_k, b_k) of fn by periodic trapezoid quadrature.

    The grid starts at max(1024, 32*max(k,1)) rounded up to a power of
    two and doubles, at most 10 times and to at most 2**32 points, until
    two successive estimates agree within 1e-11 in both components. `k`
    is an integer in 0..2**27, whose first grid has at most 2**32 points;
    a larger one is refused with ValueError before anything is allocated.

    Raises
    ------
    QuadratureConvergenceError
        When the doubling budget runs out or the next grid would pass
        2**32 points; carries the last two estimates.
    """
    top = _MAX_POINTS // 32
    k = _series.integer(k, 0, f"coefficient index k must be an integer in 0..{top}", top)
    G = max(_BASE_POINTS, 32 * max(k, 1))
    if G & (G - 1):
        G = 1 << G.bit_length()
    before = prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        if G > _MAX_POINTS:
            reason = f"on grids of up to {_MAX_POINTS} points"
            break
        vals = _values_on_grid(fn, G, _cache)
        cur = _trapezoid_pair(vals, k)
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

    `k_range` is an inclusive (k_lo, k_hi) pair of integers >= 0. Grid
    evaluations are shared across indices. Returns a list of (k, a_hat_k,
    b_hat_k).
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

    `q` is the shared smoothness order of the signal and approximant
    (the smaller of the two); `diff_variation` bounds the variation of
    the q-th derivative of their difference. k is an index or an index
    array: a float or an array shaped like k.
    """
    k = _series.integers(k, 1, "bound is defined for integer k >= 1")
    q = _series.integer(q, 0, "q must be >= 0")
    if not diff_variation >= 0:
        raise ValueError("diff_variation must be nonnegative")
    bound = diff_variation / (math.pi * np.power(np.asarray(k, dtype=float), q + 1))
    return bound if np.ndim(k) else float(bound)


def sup_distance(f, g):
    """Max of |f - g| over a uniform grid of 2**14 points (a lower sup-norm estimate)."""
    fv = _values_on_grid(f, _SUP_POINTS)
    gv = _values_on_grid(g, _SUP_POINTS)
    return float(np.max(np.abs(fv - gv)))


def estimate_diff_variation(signal, spline, q):
    """Grid estimate of Var of the q-th derivative of (signal - spline).

    The difference series is truncated at 2**18 coefficients,
    differentiated termwise, folded onto a grid of G = 2**16 points and
    measured by summed absolute steps. The series is streamed, never
    built whole: each block of :func:`~trigspec.trig_spline.unfolded_blocks`
    (2**14 indices) is differenced against the true coefficients, rotated,
    scaled and written into one accumulator of G sums at (j - 1) mod G,
    assigned over j = 1..G and added over each later period, so each
    residue adds its terms in the order of j. Rolled one place, the sums
    are indexed by j mod G, and the grid values are G Re(ifft) of them.
    An estimate, not a bound: truncation ripple inflates it slightly,
    which only loosens the bound it feeds. `q` is an integer >= 0.
    """
    q = _series.integer(q, 0, "q must be >= 0")
    G = _VARIATION_POINTS
    W = np.empty(G, dtype=complex)
    rot = q % 4
    for js, sa, sb in unfolded_blocks(spline, _VARIATION_TERMS):
        ta, tb = true_coefficient(signal, js)
        ra, rb = _series.rotate_pair(ta - sa, tb - sb, rot)
        scale = js.astype(float) ** q
        d = scale * ra - 1j * (scale * rb)
        # Blocks of 2**14 indices tile each period of G.
        at = slice((js[0] - 1) % G, (js[-1] - 1) % G + 1)
        if js[0] <= G:
            W[at] = d
        else:
            W[at] += d
    vals = G * np.real(np.fft.ifft(np.roll(W, 1)))
    return _series.grid_total_variation(vals)


def filon_table(signal, spline, k_max):
    """Rows comparing the spline's coefficients with the true ones, both bounds attached."""
    sup = sup_distance(signal, spline)
    cbound = cnorm_error_bound(sup)
    q = min(signal.smoothness.r, spline.config.order)
    dv = estimate_diff_variation(signal, spline, q)
    js, ah, bh = unfolded_spectrum(spline, k_max)
    ta, tb = true_coefficient(signal, js)
    refined = refined_error_bound(js, q, dv)
    columns = (x.tolist() for x in (js, ah, bh, ta, tb, refined))
    return [
        {"k": k, "a_hat": a, "b_hat": b, "a_true": at, "b_true": bt,
         "cnorm_bound": cbound, "refined_bound": bound}
        for k, a, b, at, bt, bound in zip(*columns)
    ]
