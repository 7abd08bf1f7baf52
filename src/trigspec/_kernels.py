"""The hot kernels, in NumPy.

- ``synth``: evaluate a finite trigonometric series at arbitrary points.
- ``dft``: direct discrete Fourier coefficients on an odd uniform grid
  (no FFT) with exact phases: k*j is reduced mod N in integers and cos/sin
  of 2*pi*m/N are read from one table of N entries, so no transcendental
  call is left in the O(nN) loop. The gathered phase matrices are cached
  per (N, row block) for grids whose blocks all fit the cache (n <= 711),
  within a fixed memory bound; each coefficient is NumPy's pairwise sum
  of its N products.
"""

import functools

import numpy as np

# Evaluation is blocked so the (points x terms) work array stays small.
_BLOCK = 512
# The DFT gathers its (coefficients x samples) cos and sin matrices in row
# blocks that together hold at most this many cells (one row when 2N is
# larger), so every grid with n <= 127 is one block.
_DFT_CELLS = 1 << 16
# Blocks kept by the phase cache: at most _DFT_BLOCKS * _DFT_CELLS float64
# cells, 16 MiB. Only grids of at most this many blocks are cached.
_DFT_BLOCKS = 32


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

    The gathered (rows x N) cos and sin matrices of each row block are
    cached, read-only, per (N, block) in an LRU cache of _DFT_BLOCKS = 32
    blocks of at most _DFT_CELLS = 65536 cells: at most 16 MiB. A grid is
    cached only when all its blocks fit (n <= 711; n <= 127 is one
    block), so a repeated N costs only the products and sums. A grid of
    more blocks would cycle them through the cache without a hit, so its
    blocks are gathered from one table per call and not cached.

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
    rows = _dft_rows(N)
    # Cache a grid's blocks only when all of them fit. Rows over the cell
    # budget (2N > _DFT_CELLS) need n >= 16384 one-row blocks, so they are
    # never cached: the 16 MiB bound rests on that.
    gather = (_phase_block if -(-n // rows) <= _DFT_BLOCKS
              else functools.partial(_gather_block, table=_phase_table(N)))
    for block, start in enumerate(range(0, n, rows)):
        cos, sin = gather(N, block)
        stop = start + cos.shape[0]
        a[start:stop] = scale * np.sum(values * cos, axis=1)
        b[start:stop] = scale * np.sum(values * sin, axis=1)
    return a0, a, b


def _dft_rows(N):
    return max(_DFT_CELLS // (2 * N), 1)


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


@functools.lru_cache(maxsize=_DFT_BLOCKS)
def _phase_block(N, block):
    # The table is rebuilt on each miss: O(N) beside the block's gather,
    # and paid on cold calls only.
    return _gather_block(N, block, _phase_table(N))


def _gather_block(N, block, table):
    # The read-only cos and sin matrices of the block's rows k: entry
    # (k, j) is the table entry at m = kj mod N.
    rows = _dft_rows(N)
    start = block * rows
    k = np.arange(start + 1, min(start + rows, (N - 1) // 2) + 1)
    m = np.multiply.outer(k, np.arange(N)) % N
    cos, sin = table[0][m], table[1][m]
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin
