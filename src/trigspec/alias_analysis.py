"""Aliasing identities and their error bounds.

Sampling on N = 2n+1 nodes folds every harmonic mN +- k onto the band
harmonic k. This module computes those fold sums directly from a
signal's true coefficients (so they can be compared against the discrete
coefficients), the frequency-domain error bound they imply, the
time-domain split of a signal into its band part and the out-of-band
remainder, and the sup-norm bound on the band-limited mismatch.

Fold sums over the power-decay families are evaluated exactly: the tails
are Hurwitz zeta values, so the usual truncation error never enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _series
from ._wire import csv_text
from .errors import SeriesPrecisionError, UnsupportedSignalError
from .sampling import discrete_coeffs, sample
from .signal_model import (
    HARMONIC_SUM,
    POWER_DECAY_COSINE,
    POWER_DECAY_SINE,
    evaluate,
    true_coefficient,
)

# Terms summed explicitly before switching to the exact zeta tail.
_DIRECT_TERMS = 16


@dataclass(frozen=True)
class FoldReport:
    """One alias class's fold sum.

    ``folded_a``/``folded_b`` are the out-of-band-inclusive coefficient
    sums; ``m_used`` counts explicitly summed fold terms and
    ``tail_bound`` bounds everything beyond them (zero when the remainder
    was evaluated in closed form up to rounding).
    """

    k: int
    folded_a: float
    folded_b: float
    m_used: int
    tail_bound: float


def _require_analytic(signal):
    if getattr(signal, "kind", None) not in (
        HARMONIC_SUM,
        POWER_DECAY_COSINE,
        POWER_DECAY_SINE,
    ):
        raise UnsupportedSignalError(
            "fold sums need a signal with analytically known coefficients"
        )


def folded_coefficients(signal, grid, k, tol=1e-12):
    """Fold sum of the true coefficients for band class k.

    Returns a :class:`FoldReport` with

        a fold:  a_k + sum_m (a_{mN+k} + a_{mN-k})
        b fold:  b_k + sum_m (b_{mN+k} - b_{mN-k})

    and, for k = 0, ``a_0 + 2 sum_m a_{mN}``. Equality of these values
    with the discrete coefficients of the sampled signal is the aliasing
    identity itself.
    """
    _require_analytic(signal)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k < 0 or k > grid.n:
        raise ValueError("band class k must lie in 0..n")
    N = grid.N

    if signal.kind == HARMONIC_SUM:
        a, b = true_coefficient(signal, k)
        if k == 0:
            acc_a, acc_b = a, 0.0
        else:
            acc_a, acc_b = a, b
        kmax = max((kk for kk, _, _ in signal.terms), default=0)
        m_used = 1  # at least one fold term is always inspected
        m = 1
        while m * N - k <= kmax:
            ap, _bp = true_coefficient(signal, m * N + k)
            am, _bm = true_coefficient(signal, m * N - k)
            bp = _bp
            bm = _bm
            if k == 0:
                acc_a += 2.0 * ap
            else:
                acc_a += ap + am
                acc_b += bp - bm
            m_used = m
            m += 1
        return FoldReport(k=k, folded_a=acc_a, folded_b=acc_b, m_used=m_used, tail_bound=0.0)

    p = signal.p
    is_cos = signal.kind == POWER_DECAY_COSINE
    if k == 0:
        # Constant class: only cosine terms survive at the nodes.
        total = 2.0 * _series.progression_tail(p, N, 0.0) if is_cos else 0.0
        report_val = (total, 0.0)
    else:
        m = np.arange(1, _DIRECT_TERMS + 1, dtype=float)
        plus = np.sum((m * N + k) ** -p) + _series.progression_tail(
            p, N, float(k), m_start=_DIRECT_TERMS + 1
        )
        minus = np.sum((m * N - k) ** -p) + _series.progression_tail(
            p, N, float(-k), m_start=_DIRECT_TERMS + 1
        )
        base = float(k) ** -p
        if is_cos:
            report_val = (base + plus + minus, 0.0)
        else:
            report_val = (0.0, base + plus - minus)
    scale = max(abs(report_val[0]), abs(report_val[1]), 1.0)
    tail = 16.0 * np.finfo(float).eps * scale
    if tail > tol:
        raise SeriesPrecisionError(
            f"fold sum cannot be certified below tol={tol} (rounding floor {tail:.2e})"
        )
    return FoldReport(
        k=k,
        folded_a=report_val[0],
        folded_b=report_val[1],
        m_used=_DIRECT_TERMS,
        tail_bound=tail,
    )


def aliasing_error_bound(k, grid, smoothness):
    """Upper bound on |a_k - a*_k| (and |b_k - b*_k|) for the smoothness class.

    The bound is ``(variation/pi) * sum_m [(mN+k)^-(r+1) + (mN-k)^-(r+1)]``,
    evaluated exactly via Hurwitz zeta tails. For r = 0 the series
    diverges and the bound is reported as ``inf`` (still a true bound).
    """
    if k < 1 or k > grid.n:
        raise ValueError("band index k must lie in 1..n")
    if smoothness.variation == 0.0:
        return 0.0
    s = smoothness.r + 1
    if s < 2:
        return math.inf
    N = grid.N
    total = _series.progression_tail(s, N, float(k)) + _series.progression_tail(
        s, N, float(-k)
    )
    return smoothness.variation / math.pi * float(total)


def band_component(signal, n, t):
    """Partial sum of the true series through harmonic n (the band part)."""
    if n < 1 or n != int(n):
        raise ValueError("band size n must be an integer >= 1")
    a0 = true_coefficient(signal, 0)[0]
    a = np.empty(int(n))
    b = np.empty(int(n))
    for k in range(1, int(n) + 1):
        a[k - 1], b[k - 1] = true_coefficient(signal, k)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _kernels.synth(a0, a, b, t_arr)
    return vals if np.ndim(t) else float(vals[0])


def dc_class_component(signal, grid, t):
    """The constant-class tail ``sum_m (a_mN cos(mNt) + b_mN sin(mNt))``.

    Every shipped signal kind gives it in closed form.
    """
    _require_analytic(signal)
    N = grid.N
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if signal.kind == HARMONIC_SUM:
        out = np.zeros(t_arr.shape)
        for k, a, b in signal.terms:
            if k >= N and k % N == 0:
                out += a * np.cos(k * t_arr) + b * np.sin(k * t_arr)
        return out if np.ndim(t) else float(out[0])
    # sum_m (mN)^-p trig(mNt) = N^-p f(Nt): the signal itself at the scaled angle.
    out = N**-signal.p * evaluate(signal, N * t_arr)
    return out if np.ndim(t) else float(out[0])


def residual_component(signal, grid, t):
    """The out-of-band, non-constant-class remainder of the signal.

    This is ``sum over j > n, j not a multiple of N`` of the true series,
    i.e. the part of the signal the grid cannot represent and folds onto
    the band. Computed as f(t) minus the band part minus the constant
    class tail; each piece is exact for the shipped signal kinds.
    """
    full = evaluate(signal, t)
    return (
        full
        - band_component(signal, grid.n, t)
        - dc_class_component(signal, grid, t)
    )


def time_domain_overlay_bound(n, smoothness):
    """Sup-norm bound 2*variation/n^r on the band-vs-folded mismatch.

    Requires smoothness order r >= 1.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be an integer >= 1")
    if smoothness.r < 1:
        raise ValueError("the sup-norm bound needs smoothness order r >= 1")
    return 2.0 * smoothness.variation / float(n) ** smoothness.r


# -- report table -----------------------------------------------------------


def fold_report_table(signal, grid, tol=1e-12):
    """Rows comparing fold sums against the sampled discrete coefficients."""
    spec = discrete_coeffs(sample(signal, grid))
    rows = []
    for k in range(0, grid.n + 1):
        rep = folded_coefficients(signal, grid, k, tol)
        if k == 0:
            dft_a, dft_b = spec.a0, 0.0
            bound = None
        else:
            dft_a, dft_b = spec.a[k - 1], spec.b[k - 1]
            bound = aliasing_error_bound(k, grid, signal.smoothness)
        rows.append(
            {
                "k": k,
                "a_star_fold": rep.folded_a,
                "b_star_fold": rep.folded_b,
                "a_star_dft": dft_a,
                "b_star_dft": dft_b,
                "abs_diff_a": abs(rep.folded_a - dft_a),
                "abs_diff_b": abs(rep.folded_b - dft_b),
                "bound8": bound,
            }
        )
    return rows


def fold_table_to_csv(rows):
    """CSV with the fixed fold-report column set; a missing bound8 is empty."""
    header = [
        "k",
        "a_star_fold",
        "b_star_fold",
        "a_star_dft",
        "b_star_dft",
        "abs_diff_a",
        "abs_diff_b",
        "bound8",
    ]
    return csv_text(header, ([r[col] for col in header] for r in rows))
