"""The hot kernels, in NumPy.

- ``point_series`` and ``grid_series``: evaluate a finite trigonometric
  series term by term, one accumulator adding the terms in their given
  order; they differ only in where cos and sin come from.
  ``point_series`` takes them at the rounded phases k*t of arbitrary
  points, so a point has the same bits alone as inside any array.
  ``grid_series`` takes the uniform grid 2*pi*g/G with exact phases: k*g
  is reduced mod G in integers and cos/sin of 2*pi*m/G are read from the
  grid's table of G entries, one entry of the package's store per G.
  On an even grid the table's entry m + G/2 is exactly minus entry m, so
  ``grid_series`` reads the phases of the first G/2 points only and adds
  each term there and, negated for odd k, at the second half's points.
  Both add their terms in blocks of at most 2^14 (terms x points) cells,
  small enough that the heap reuses a block's arrays instead of mapping
  and faulting in fresh pages for each; a block of one row is added in
  place. Neither the blocks nor the half-turn changes a bit. (Quadrature
  needs no table: ``filon_oracle`` takes all of a grid's trapezoid sums
  from one real FFT of its values.)
- ``dft``: direct discrete Fourier coefficients on an odd uniform grid
  (no FFT) with exact phases: k*j is reduced mod N in integers and cos/sin
  of 2*pi*m/N are read from one table of N entries, so no transcendental
  call is left in the O(nN) loop. a0, a and b are one product and one
  reduction over the grid's stacked (2n+1, N) matrix of ones, cos and sin
  rows, one entry of the package's store (:mod:`trigspec._cache`) when it
  fits its budget (n <= 1023); each coefficient is a pairwise sum.
"""

import numpy as np

from . import _cache, _series

# The DFT reads its stacked (2n+1, N) matrix in row blocks of at most this
# many cells (one row when N is larger): one block for every n <= 127.
_DFT_CELLS = 1 << 16
# A series adds its terms in blocks of rows that together hold at most
# this many (terms x points) cells (one row when there are more points;
# an even grid's points are its first half).
# Blocks this small are reused from the heap; blocks of 2^16 cells are
# mapped afresh on each call at G = 2^14, at 500-700 page faults a call.
_GRID_CELLS = 1 << 14
# Largest uniform grid of the package (grid_series, signal and spline grid
# values, the sampler, each quadrature grid and its FFT): the phase index
# (k mod G) g < G^2 <= 2^64 is exact in unsigned 64-bit integers.
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
    cos(k_i t) + b_i sin(k_i t) term by term, but for the phases. On an
    even grid the indices, gathers and products are formed at g < G/2
    only: entry m + G/2 of the table is exactly minus entry m, so term i
    at g + G/2 is its value u at g for even k_i and -u for odd k_i, the
    same products and sums, and each half adds its terms in order. Terms
    go in blocks of rows of at most 2^14 (terms x points computed) cells
    (one row, added in place, when more points are computed), so a call
    at G <= 2^14 takes no fresh pages once warm, and the table is one
    entry of the package's store per G while its 16 G bytes fit the
    budget; neither changes a bit.

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
    # On an even grid the points g + G/2 repeat the first half's terms,
    # negated for odd k, so only the first half's phases are read.
    half = G % 2 == 0
    g = np.arange(G // 2 if half else G, dtype=np.uint64)

    def phases(k, cosines):
        m = _phase_index((k % G).astype(np.uint64), g, G)
        # The indices lie in 0..G-1, so no bounds check (and no buffer).
        np.take(cos, m, out=cosines, mode="clip")
        return np.take(sin, m, mode="clip")

    return _term_sum(ks, a, b, g.size, phases, half)


def _term_sum(ks, a, b, P, phases, half_turn=False):
    # The one accumulator: sum_i (a_i C_i + b_i S_i) at P points, where
    # phases(k, out) writes the cos rows C of harmonics k into out and
    # returns their sin rows S. With half_turn the P points are the first
    # half of 2P and term i at point g + P is its value at g, negated for
    # odd k_i: the half-turn entries of an even grid's table are exact
    # negatives. (Negated, a term's exact zero can change sign, but a sum
    # started at +0 is never -0, so either zero adds the same bits.) Each
    # block's rows are added to the sum so far one after another, whatever
    # the blocks.
    ks = np.atleast_1d(_series.integers(ks, 0, "harmonic indices must be integers >= 0"))
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if ks.ndim != 1 or not ks.shape == a.shape == b.shape:
        raise ValueError("indices and coefficient arrays must be 1-D of equal length")
    out = np.zeros(2 * P if half_turn else P)
    rows = max(_GRID_CELLS // max(P, 1), 1)
    for start in range(0, ks.size, rows):
        stop = min(start + rows, ks.size)
        block = np.empty((stop - start + 1, P))
        terms = block[1:]
        sines = phases(ks[start:stop], terms)
        terms *= a[start:stop, None]
        sines *= b[start:stop, None]
        terms += sines
        _add_rows(out[:P], block)
        if half_turn:
            _add_rows(out[P:], block, ks[start:stop] % 2 == 1)
    return out


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


def _add_rows(out, block, negate=None):
    # Add the rows block[1:] to out in place, one after another, each row
    # negated where `negate` is true. One row is added (or subtracted) in
    # place. NumPy reduces over the rows of a block of two or more columns
    # in order, but sums a single column pairwise, so a single point
    # accumulates instead.
    if block.shape[0] == 2:
        if negate is not None and negate[0]:
            out -= block[1]
        else:
            out += block[1]
        return
    if negate is not None:
        np.negative(block[1:], out=block[1:], where=negate[:, None])
    block[0] = out
    if block.shape[1] > 1:
        np.add.reduce(block, axis=0, out=out)
    else:
        out[:] = np.add.accumulate(block, axis=0)[-1]


def dft(values):
    """Discrete Fourier coefficients of samples on the odd uniform grid.

    For N = 2n+1 samples f_1..f_N taken at t_j = 2*pi*(j-1)/N returns

        a0  = (2/N) sum_j f_j
        a_k = (2/N) sum_j f_j cos(k t_j)      k = 1..n
        b_k = (2/N) sum_j f_j sin(k t_j)

    The phase is exact: cos(k t_j) and sin(k t_j) are read from a table of
    cos/sin(2*pi*m/N), m = 0..N-1, at m = k(j-1) mod N, reduced in
    integers, and each table entry is within about 0.6 eps of the true
    value. The coefficients are one product and one reduction: the samples
    times the stacked (2n+1) x N matrix of a row of ones, the n cos rows
    and the n sin rows, each row summed by NumPy's pairwise summation of
    its N contiguous products, whatever the row blocking.

    A grid's stacked matrix is kept, read-only, as one entry of the
    package's store when its 8 N^2 bytes fit its budget (32 MiB: n <=
    1023), so a repeated N costs only the product and the sums. A larger
    grid gathers its row blocks from one table per call, storing nothing.

    Returns
    -------
    (a0, a, b) : float, array of n, array of n
    """
    values = np.ascontiguousarray(values, dtype=float)
    N = values.shape[0]
    if N < 3 or N % 2 == 0:
        raise ValueError("need an odd number of samples, N = 2n+1 >= 3")
    stacked = _cache.get(_dft_matrix, N)[0] if _cache.fits(8 * N * N) else None
    table = np.concatenate(_phase_table(N)) if stacked is None else None
    sums = np.empty(N)
    rows = max(_DFT_CELLS // N, 1)
    for start in range(0, N, rows):
        stop = min(start + rows, N)
        block = _dft_rows(table, N, start, stop) if stacked is None else stacked[start:stop]
        np.add.reduce(values * block, axis=1, out=sums[start:stop])
    sums *= 2.0 / N
    return sums[0], sums[1:N // 2 + 1], sums[N // 2 + 1:]


def _phase_table(N):
    # cos/sin(2 pi m/N), m = 0..N-1, from the nearest quarter turn q and
    # the integer remainder r = 4m - qN, |r| <= N/2: the rounded angle
    # (pi/2) r/N stays within pi/4, and the quarter turns are exact sign
    # swaps. So, bit for bit, entry m + N/2 is minus entry m for every even
    # N (grid_series reads half an even grid by it), and entry m + N/4 is
    # entry m turned a quarter, (-sin, cos), when 4 divides N. Entries m
    # and N - m are conjugates in value only when 8 does not divide N, as
    # on every odd DFT grid: when it does, the 45-degree entries m = N/8,
    # 3N/8, ... all take the angle -pi/4 (r = -N/2), and their pairs mix
    # the rounded cos(pi/4) and sin(pi/4), one ulp apart.
    m = np.arange(N)
    q = (8 * m + N) // (2 * N)
    x = 0.5 * np.pi * (4 * m - q * N) / N
    c = np.cos(x)
    s = np.sin(x)
    turns = np.stack((c, -s, -c, s))
    q %= 4
    # sin(x + q pi/2) = cos(x + (q - 1) pi/2).
    return turns[q, m], turns[(q + 3) % 4, m]


def _dft_rows(table, N, start, stop):
    # Rows start..stop-1 of the stacked matrix, from the joined cos and sin
    # table: row k <= n reads cos at m = kj mod N (row 0 is exactly 1) and
    # row n + k reads sin, at m + N.
    i = np.arange(start, stop, dtype=np.uint64)
    sine = i > N // 2
    m = _phase_index(i - sine * np.uint64(N // 2), np.arange(N, dtype=np.uint64), N)
    m[sine] += N
    return table[m]


def _dft_matrix(N):
    # The store's entry: the grid's whole stacked (2n+1, N) matrix.
    return (_dft_rows(np.concatenate(_phase_table(N)), N, 0, N),)
