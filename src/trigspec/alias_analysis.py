"""Aliasing identities and their error bounds.

Sampling on N = 2n+1 nodes folds every harmonic mN +- k onto the band
harmonic k. This module computes those fold sums directly from a
signal's true coefficients (so they can be compared against the discrete
coefficients), the frequency-domain error bound they imply, the
time-domain split of a signal into its band part, its constant-class
tail and the out-of-band remainder, and the sup-norm bound on the
band-limited mismatch. The band part and a harmonic sum's constant-class
tail go through the one scattered evaluator, ``_kernels.point_series``,
so these parts and the remainder formed from them have the same bits at
a point alone as inside any array.

Fold sums over the power-decay families are evaluated exactly: the tails
are Hurwitz zeta values, so the usual truncation error never enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _series, sampling
from ._wire import csv_text
from .errors import SeriesPrecisionError, UnsupportedSignalError
from .signal_model import (
    HARMONIC_SUM,
    POWER_DECAY_COSINE,
    POWER_DECAY_SINE,
    evaluate,
    true_coefficient,
)

# Terms summed explicitly before switching to the exact zeta tail.
_DIRECT_TERMS = 16
# The fold report's columns, in the order the CSV writes them.
_FOLD_COLUMNS = ("k", "a_star_fold", "b_star_fold", "a_star_dft", "b_star_dft", "abs_diff_a",
                 "abs_diff_b", "bound8")


@dataclass(frozen=True)
class FoldReport:
    """The fold sums (out-of-band-inclusive coefficient sums) of alias class k.

    Floats for one class, arrays shaped like k for an array of classes.
    """

    k: int
    folded_a: float
    folded_b: float


def _require_analytic(signal, message="fold sums need a signal with analytically known coefficients"):
    if getattr(signal, "kind", None) not in (
        HARMONIC_SUM,
        POWER_DECAY_COSINE,
        POWER_DECAY_SINE,
    ):
        raise UnsupportedSignalError(message)


# The refusal of the band part and the remainder, which form no fold sum.
_KNOWN_COEFFICIENTS = "the signal's Fourier coefficients must be known analytically"


def folded_coefficients(signal, grid, k, tol=1e-12):
    """Fold sums of the true coefficients for band class k.

    Returns a :class:`FoldReport` with

        a fold:  a_k + sum_m (a_{mN+k} + a_{mN-k})
        b fold:  b_k + sum_m (b_{mN+k} - b_{mN-k})

    and, for k = 0, ``a_0 + 2 sum_m a_{mN}``. Equality of these values
    with the discrete coefficients of the sampled signal is the aliasing
    identity itself. For a harmonic sum each value is the exact sum,
    correctly rounded. k is a class or an array of classes, as in
    :func:`~trigspec.signal_model.true_coefficient`: the report holds
    floats, or arrays shaped like k, and a class has the same bits alone
    as inside an array. A power-decay fold sum is refused with
    SeriesPrecisionError where its rounding floor, 16 eps times its
    magnitude (at least 1), exceeds `tol`; the first such class is named.
    """
    _require_analytic(signal)
    if not tol > 0:
        raise ValueError("tol must be positive")
    k = _series.integers(k, 0, "band class k must lie in 0..n", grid.n)
    ks = np.atleast_1d(k).ravel()
    if signal.kind == HARMONIC_SUM:
        folded_a, folded_b = _harmonic_folds(signal, grid.N, ks)
    else:
        folded_a, folded_b = _power_folds(signal, grid.N, ks)
        scale = np.maximum(np.maximum(np.abs(folded_a), np.abs(folded_b)), 1.0)
        tails = 16.0 * np.finfo(float).eps * scale
        refused = np.flatnonzero(tails > tol)
        if refused.size:
            raise SeriesPrecisionError(f"fold sum cannot be certified below tol={tol} "
                                       f"(rounding floor {tails[refused[0]]:.2e})")
    if np.ndim(k):
        return FoldReport(k=k, folded_a=folded_a.reshape(k.shape),
                          folded_b=folded_b.reshape(k.shape))
    return FoldReport(k=k, folded_a=float(folded_a[0]), folded_b=float(folded_b[0]))


def _harmonic_folds(signal, N, ks):
    # Two-sided view: term j > 0 stands at +j with (a_j, b_j) and at -j with
    # (a_j, -b_j), a_0 at 0 once. Class k's members are the indices = k mod
    # N, the ones alias_fold gives class k and sine sign +1, so the constant
    # class takes each mN twice and its b fold cancels. The indices are
    # folded once; each class then takes its members, in their order.
    j, a, b = signal.term_arrays
    mirror = j > 0
    j = np.concatenate((j, -j[mirror]))
    a = np.concatenate((a, a[mirror]))
    b = np.concatenate((b, -b[mirror]))
    cls, sin_sign = _series.alias_fold(j, N)
    members = sin_sign > 0
    cls, a, b = cls[members], a[members], b[members]
    picks = [cls == k for k in ks.tolist()]
    return (np.array([math.fsum(a[pick]) for pick in picks]),
            np.array([math.fsum(b[pick]) for pick in picks]))


def _power_folds(signal, N, ks):
    # Class k > 0 sums its first _DIRECT_TERMS members of each branch
    # directly, in one row per class and branch, and the rest as one exact
    # Hurwitz tail per class and branch; k^-p is a Python power, whose last
    # bit can differ from NumPy's. The constant class keeps only its cosine
    # terms, 2 sum_m (mN)^-p.
    p = signal.p
    k = ks.astype(float)
    # The branches mN + k and mN - k as one block of offsets +k and -k.
    offsets = np.concatenate((k, -k))
    steps = np.arange(1, _DIRECT_TERMS + 1, dtype=float) * N
    branches = np.sum((steps + offsets[:, None]) ** -p, axis=1) + _series.progression_tail(
        p, N, offsets, m_start=_DIRECT_TERMS + 1)
    plus, minus = branches[:ks.size], branches[ks.size:]
    base = np.array([x ** -p if x else 0.0 for x in k.tolist()])
    zeros = np.zeros(ks.size)
    if signal.kind == POWER_DECAY_SINE:
        return zeros, np.where(ks > 0, base + plus - minus, 0.0)
    folded = base + plus + minus
    if not ks.all():
        folded[ks == 0] = 2.0 * _series.progression_tail(p, N, 0.0)
    return folded, zeros


def aliasing_error_bound(k, grid, smoothness):
    """Upper bound on |a_k - a*_k| (and |b_k - b*_k|) for the smoothness class.

    The bound is ``(variation/pi) * sum_m [(mN+k)^-(r+1) + (mN-k)^-(r+1)]``,
    evaluated exactly via Hurwitz zeta tails. For r = 0 the series
    diverges and the bound is reported as ``inf`` (still a true bound).
    k is a band index or an array of them: a float or an array shaped
    like k.
    """
    k = _series.integers(k, 1, "band index k must lie in 1..n", grid.n)
    s = smoothness.r + 1
    if smoothness.variation == 0.0 or s < 2:
        bound = np.full(np.shape(k), 0.0 if smoothness.variation == 0.0 else math.inf)
    else:
        offset = np.asarray(k, dtype=float)
        total = _series.progression_tail(s, grid.N, offset) + _series.progression_tail(
            s, grid.N, -offset
        )
        bound = smoothness.variation / math.pi * total
    return bound if np.ndim(k) else float(bound)


def band_component(signal, n, t):
    """Partial sum of the true series through harmonic n (the band part)."""
    _require_analytic(signal, _KNOWN_COEFFICIENTS)
    n = _series.integer(n, 1, "band size n must be an integer >= 1")
    j = np.arange(n + 1)
    a, b = true_coefficient(signal, j)
    a[0] *= 0.5
    vals = _kernels.point_series(j, a, b, _series.finite_points(t))
    return vals if np.ndim(t) else float(vals)


def dc_class_component(signal, grid, t):
    """The constant-class tail ``sum_m (a_mN cos(mNt) + b_mN sin(mNt))``.

    Every shipped signal kind gives it in closed form.
    """
    _require_analytic(signal)
    N = grid.N
    t_arr = _series.finite_points(t)
    if signal.kind == HARMONIC_SUM:
        j, a, b = signal.term_arrays
        tail = (_series.alias_fold(j, N)[0] == 0) & (j > 0)
        out = _kernels.point_series(j[tail], a[tail], b[tail], t_arr)
    else:
        # sum_m (mN)^-p trig(mNt) = N^-p f(Nt): the signal itself at the scaled angle.
        out = N**-signal.p * evaluate(signal, N * t_arr)
    return out if np.ndim(t) else float(out)


def residual_component(signal, grid, t):
    """The out-of-band, non-constant-class remainder of the signal.

    This is ``sum over j > n, j not a multiple of N`` of the true series,
    i.e. the part of the signal the grid cannot represent and folds onto
    the band. Computed as f(t) minus the band part minus the constant
    class tail; each piece is exact for the shipped signal kinds.
    """
    _require_analytic(signal, _KNOWN_COEFFICIENTS)
    full = evaluate(signal, t)
    return full - band_component(signal, grid.n, t) - dc_class_component(signal, grid, t)


def time_domain_overlay_bound(n, smoothness):
    """Sup-norm bound 2*variation/n^r on the band-vs-folded mismatch.

    Requires smoothness order r >= 1.
    """
    n = _series.integer(n, 1, "n must be an integer >= 1")
    if smoothness.r < 1:
        raise ValueError("the sup-norm bound needs smoothness order r >= 1")
    return 2.0 * smoothness.variation / float(n) ** smoothness.r


# -- report table -----------------------------------------------------------


def fold_report_table(signal, grid, tol=1e-12):
    """Rows comparing fold sums against the sampled discrete coefficients."""
    spec = sampling.discrete_coeffs(sampling.sample(signal, grid))
    bounds = aliasing_error_bound(np.arange(1, grid.n + 1), grid, signal.smoothness)
    folds = folded_coefficients(signal, grid, np.arange(grid.n + 1), tol)
    rows = []
    for k, (fold_a, fold_b, bound) in enumerate(zip(folds.folded_a.tolist(),
                                                    folds.folded_b.tolist(),
                                                    [None, *bounds.tolist()])):
        dft_a, dft_b = (spec.a0, 0.0) if k == 0 else (spec.a[k - 1], spec.b[k - 1])
        values = (k, fold_a, fold_b, dft_a, dft_b, abs(fold_a - dft_a), abs(fold_b - dft_b),
                  bound)
        rows.append(dict(zip(_FOLD_COLUMNS, values)))
    return rows


def fold_table_to_csv(rows):
    """CSV with the fixed fold-report column set; a missing bound8 is empty."""
    return csv_text(_FOLD_COLUMNS, ([r[col] for col in _FOLD_COLUMNS] for r in rows))
