"""The hot kernels, in NumPy.

- ``point_series`` and ``grid_series``: evaluate a finite trigonometric
  series term by term, one accumulator adding the terms in their given
  order; they differ only in where cos and sin come from.
  ``point_series`` takes them at the rounded phases k*t of arbitrary
  points, so a point has the same bits alone as inside any array.
  ``grid_series`` takes the uniform grid 2*pi*g/G with exact phases: k*g
  is reduced mod G in integers and cos/sin of 2*pi*m/G are read from the
  grid's table of G entries, one entry of the package's store per G.
  Both add their terms in blocks of at most 2^14 (terms x points) cells,
  small enough that the heap reuses a block's arrays instead of mapping
  and faulting in fresh pages for each; the blocks change no bit.
  ``grid_phases`` reads one harmonic's row of that table, for quadrature.
- ``dft``: direct discrete Fourier coefficients on an odd uniform grid
  (no FFT) with exact phases: k*j is reduced mod N in integers and cos/sin
  of 2*pi*m/N are read from one table of N entries, so no transcendental
  call is left in the O(nN) loop. The gathered (n, N) phase matrices of a
  grid are one entry of the package's store (:mod:`trigspec._cache`) when
  they fit its byte budget (n <= 1023), read in row blocks; each
  coefficient is NumPy's pairwise sum of its N products.
"""

import numpy as np

from . import _cache, _series

# The DFT reads its (coefficients x samples) cos and sin matrices in row
# blocks that together hold at most this many cells (one row when 2N is
# larger), so every grid with n <= 127 is one block.
_DFT_CELLS = 1 << 16
# A series adds its terms in blocks of rows that together hold at most
# this many (terms x points) cells (one row when there are more points).
# Blocks this small are reused from the heap; blocks of 2^16 cells are
# mapped afresh on each call at G = 2^14, at 500-700 page faults a call.
_GRID_CELLS = 1 << 14
# Largest uniform grid of the package (grid_series, grid_phases, signal
# and spline grid values, quadrature): the phase index (k mod G) g <
# G^2 <= 2^64 is exact in unsigned 64-bit integers.
MAX_GRID = 1 << 32
_GRID_MESSAGE = f"grid size G must be an integer in 1..{MAX_GRID}"


def point_series(ks, a, b, t):
    """Evaluate sum_i (a_i cos(k_i t) + b_i sin(k_i t)) at finite points t of any shape.

    The terms ks, a, b are taken and added as by :func:`grid_series`, with
    cos and sin of the rounded products k_i t (t as given, not reduced),
    each off by up to |k_i t| eps/2. A value depends on its point alone:
    a point gives the same bits alone as inside any array. The result is
    shaped like t.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()

    def phases(k, cosines):
        phase = np.multiply.outer(k, flat)
        np.cos(phase, out=cosines)
        return np.sin(phase, out=phase)

    return _term_sum(ks, a, b, flat.size, phases).reshape(t.shape)


def grid_series(ks, a, b, G):
    """Evaluate sum_i (a_i cos(2 pi k_i g/G) + b_i sin(2 pi k_i g/G)) at g = 0..G-1.

    The phases are exact: cos and sin of 2*pi*m/G are read from the grid's
    table of G entries at m = (k_i mod G) g mod G, reduced in unsigned
    64-bit integers (a mask when G is a power of two). Term i contributes
    a_i C + b_i S, and the terms are added one after another in their
    given order, starting from 0: the bits are those of summing a_i
    cos(k_i t) + b_i sin(k_i t) term by term, but for the phases. Terms go
    in blocks of rows of at most 2^14 (terms x points) cells (one row when
    G is larger), so a call at G <= 2^14 takes no fresh pages once warm,
    and the table is one entry of the package's store per G while its
    16 G bytes fit the budget; neither changes a bit.

    Each table entry is within 2 eps of the true value (the angle, at most
    pi/4, within 0.93 eps, and one rounding of its cosine or sine; 0.58
    eps is the largest error measured up to G = 2^16), so away from
    underflow each value lies within (3 + M/2) eps sum_i (|a_i| + |b_i|)
    of the exact sum of the M terms: 3 eps per term for the entries, the
    two products and their sum, and M/2 eps for adding the terms one
    after another.

    ks (integers >= 0, in the order their terms are added), a and b (the
    cosine and sine coefficients) are 1-D arrays of one length. G, an
    integer in 1..2^32, is refused otherwise with ValueError before
    anything is allocated. Returns the G values as a 1-D array.
    """
    G = _series.integer(G, 1, _GRID_MESSAGE, MAX_GRID)
    cos, sin = _cache.get(_phase_table, G)
    g = np.arange(G, dtype=np.uint64)

    def phases(k, cosines):
        m = _phase_index((k % G).astype(np.uint64), g, G)
        np.take(cos, m, out=cosines)
        return np.take(sin, m)

    return _term_sum(ks, a, b, G, phases)


def _term_sum(ks, a, b, P, phases):
    # The one accumulator: sum_i (a_i C_i + b_i S_i) at P points, where
    # phases(k, out) writes the cos rows C of harmonics k into out and
    # returns their sin rows S. Row 0 of each block carries the sum so far,
    # so the terms are added one after another, whatever the blocks.
    ks = np.atleast_1d(_series.integers(ks, 0, "harmonic indices must be integers >= 0"))
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if ks.ndim != 1 or not ks.shape == a.shape == b.shape:
        raise ValueError("indices and coefficient arrays must be 1-D of equal length")
    out = np.zeros(P)
    rows = max(_GRID_CELLS // max(P, 1), 1)
    for start in range(0, ks.size, rows):
        stop = min(start + rows, ks.size)
        block = np.empty((stop - start + 1, P))
        block[0] = out
        terms = block[1:]
        sines = phases(ks[start:stop], terms)
        terms *= a[start:stop, None]
        sines *= b[start:stop, None]
        terms += sines
        out = _row_sum(block)
    return out


def grid_phases(k, G):
    """cos and sin of 2*pi*k*g/G at g = 0..G-1, read from the grid's phase table.

    The table entries of :func:`grid_series` at m = (k mod G) g mod G, so
    each value is within 2 eps of the true one. k is an integer >= 0 and G
    an integer in 1..2^32, refused with ValueError before anything is
    allocated.
    """
    G = _series.integer(G, 1, _GRID_MESSAGE, MAX_GRID)
    k = _series.integer(k, 0, "harmonic index k must be an integer >= 0")
    cos, sin = _cache.get(_phase_table, G)
    m = _phase_index(np.array([k % G], dtype=np.uint64), np.arange(G, dtype=np.uint64), G)[0]
    return cos[m], sin[m]


def _phase_index(k, g, G):
    # The (len k, len g) table positions m = k g mod G of harmonics k < G at
    # points g < G, both uint64: the product stays below 2^64, and the
    # result, below G <= 2^32, is viewed as int64 indices.
    m = np.multiply.outer(k, g)
    if G & (G - 1):
        # m - G floor(m/G): NumPy divides by a scalar faster than it takes
        # the remainder.
        m -= np.floor_divide(m, np.uint64(G)) * np.uint64(G)
    else:
        m &= np.uint64(G - 1)
    return m.view(np.int64)


def _row_sum(block):
    # The rows' sum, added one after another. NumPy reduces over the rows of
    # a block of two or more columns that way, but sums a single column
    # pairwise, so a single point accumulates instead.
    if block.shape[1] > 1:
        return np.add.reduce(block, axis=0)
    return np.add.accumulate(block, axis=0)[-1]


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
    k = np.arange(start + 1, stop + 1, dtype=np.uint64)
    m = _phase_index(k, np.arange(N, dtype=np.uint64), N)
    return table[0][m], table[1][m]


def _phase_matrices(N):
    # The store's entry: the (n, N) cos and sin matrices of the grid.
    return _phase_rows(_phase_table(N), N, 0, (N - 1) // 2)
