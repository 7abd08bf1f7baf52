"""The hot kernels, in NumPy.

- ``synth``: evaluate a finite trigonometric series at arbitrary points.
- ``dft``: direct discrete Fourier coefficients on an odd uniform grid
  (no FFT); each coefficient is NumPy's pairwise sum of its N products.
"""

import numpy as np

# Evaluation is blocked so the (points x terms) work array stays small.
_BLOCK = 512
# The DFT builds its (coefficients x samples) phase matrix in row blocks
# of about this many cells.
_DFT_CELLS = 1 << 16


def synth(a0, coeff_a, coeff_b, t):
    """Evaluate a0/2 + sum_j (a_j cos(j t) + b_j sin(j t)) at points t.

    Parameters
    ----------
    a0 : float
        Constant-term coefficient; contributes a0/2.
    coeff_a, coeff_b : 1-D arrays
        Cosine and sine coefficients for harmonics j = 1..J.
    t : 1-D array
        Evaluation points in radians.

    Returns
    -------
    1-D array of series values, same length as `t`.
    """
    coeff_a = np.ascontiguousarray(coeff_a, dtype=float)
    coeff_b = np.ascontiguousarray(coeff_b, dtype=float)
    t = np.ascontiguousarray(t, dtype=float)
    if coeff_a.shape != coeff_b.shape:
        raise ValueError("coefficient arrays must have equal length")
    out = np.full(t.shape, 0.5 * a0)
    J = coeff_a.shape[0]
    for start in range(0, J, _BLOCK):
        stop = min(start + _BLOCK, J)
        j = np.arange(start + 1, stop + 1, dtype=float)
        phase = np.multiply.outer(t, j)
        out += np.cos(phase) @ coeff_a[start:stop]
        out += np.sin(phase) @ coeff_b[start:stop]
    return out


def dft(values):
    """Discrete Fourier coefficients of samples on the odd uniform grid.

    For N = 2n+1 samples f_1..f_N taken at t_j = 2*pi*(j-1)/N returns

        a0  = (2/N) sum_j f_j
        a_k = (2/N) sum_j f_j cos(k t_j)      k = 1..n
        b_k = (2/N) sum_j f_j sin(k t_j)

    Each sum over j is NumPy's pairwise summation of the N products, the
    same for every coefficient and independent of the row blocking.

    Returns
    -------
    (a0, a, b) : float, array of n, array of n
    """
    values = np.ascontiguousarray(values, dtype=float)
    N = values.shape[0]
    if N < 3 or N % 2 == 0:
        raise ValueError("need an odd number of samples, N = 2n+1 >= 3")
    n = (N - 1) // 2
    tj = 2.0 * np.pi * np.arange(N) / N
    scale = 2.0 / N
    a0 = scale * np.sum(values)
    a = np.empty(n)
    b = np.empty(n)
    rows = max(_DFT_CELLS // N, 1)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        phase = np.multiply.outer(np.arange(start + 1, stop + 1, dtype=float), tj)
        a[start:stop] = scale * np.sum(values * np.cos(phase), axis=1)
        b[start:stop] = scale * np.sum(values * np.sin(phase), axis=1)
    return a0, a, b
