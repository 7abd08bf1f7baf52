"""The hot kernels, in NumPy.

- ``synth``: evaluate a finite trigonometric series at arbitrary points.
- ``dft``: direct discrete Fourier coefficients on an odd uniform grid
  (no FFT) with exact phases: k*j is reduced mod N in integers and cos/sin
  of 2*pi*m/N are read from one table of N entries, so no transcendental
  call is left in the O(nN) loop. The gathered (n, N) phase matrices of a
  grid are one entry of the package's store (:mod:`trigspec._cache`) when
  they fit its byte budget (n <= 1023), read in row blocks; each
  coefficient is NumPy's pairwise sum of its N products.
"""

import numpy as np

from . import _cache

# Evaluation is blocked so the (points x terms) work array stays small.
_BLOCK = 512
# The DFT reads its (coefficients x samples) cos and sin matrices in row
# blocks that together hold at most this many cells (one row when 2N is
# larger), so every grid with n <= 127 is one block.
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

    The phase is exact: cos(k t_j) and sin(k t_j) are read from a table of
    cos/sin(2*pi*m/N), m = 0..N-1, at m = k(j-1) mod N, reduced in
    integers, and each table entry is within about 0.6 eps of the true
    value. Each sum over j is NumPy's pairwise summation of the N products
    along a contiguous row, the same for every coefficient and independent
    of the row blocking.

    The gathered (n x N) cos and sin matrices of a grid are kept, read-only,
    as one entry of the package's store, when their 16 nN bytes fit its
    budget (32 MiB: n <= 1023), so a repeated N costs only the products
    and sums. A larger grid gathers its row blocks from one table per call
    and leaves the store as it was.

    Returns
    -------
    (a0, a, b) : float, array of n, array of n
    """
    values = np.ascontiguousarray(values, dtype=float)
    N = values.shape[0]
    if N < 3 or N % 2 == 0:
        raise ValueError("need an odd number of samples, N = 2n+1 >= 3")
    n = (N - 1) // 2
    scale = 2.0 / N
    a0 = scale * np.sum(values)
    a = np.empty(n)
    b = np.empty(n)
    phases = _cache.get(_phase_matrices, N) if _cache.fits(16 * n * N) else None
    table = _phase_table(N) if phases is None else None
    rows = max(_DFT_CELLS // (2 * N), 1)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        if phases is None:
            cos, sin = _phase_rows(table, N, start, stop)
        else:
            cos, sin = phases[0][start:stop], phases[1][start:stop]
        a[start:stop] = scale * np.sum(values * cos, axis=1)
        b[start:stop] = scale * np.sum(values * sin, axis=1)
    return a0, a, b


def _phase_table(N):
    # cos/sin(2 pi m/N), m = 0..N-1, from the nearest quarter turn q and
    # the integer remainder r = 4m - qN, |r| < N/2: the rounded angle
    # (pi/2) r/N stays within pi/4, and the quarter turns are exact sign
    # swaps, so entries m and N-m are exact conjugates.
    m = np.arange(N)
    q = (8 * m + N) // (2 * N)
    x = 0.5 * np.pi * (4 * m - q * N) / N
    c = np.cos(x)
    s = np.sin(x)
    turns = np.stack((c, -s, -c, s))
    q %= 4
    # sin(x + q pi/2) = cos(x + (q - 1) pi/2).
    return turns[q, m], turns[(q + 3) % 4, m]


def _phase_rows(table, N, start, stop):
    # The cos and sin matrices of rows k = start+1..stop: entry (k, j) is
    # the table entry at m = kj mod N.
    m = np.multiply.outer(np.arange(start + 1, stop + 1), np.arange(N)) % N
    return table[0][m], table[1][m]


def _phase_matrices(N):
    # The store's entry: the (n, N) cos and sin matrices of the grid.
    return _phase_rows(_phase_table(N), N, 0, (N - 1) // 2)
