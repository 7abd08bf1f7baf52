"""Uniform grids, sampling, and the discrete Fourier coefficient map.

An odd grid of N = 2n+1 nodes t_j = 2*pi*(j-1)/N carries exactly N
independent discrete coefficients a*_0, a*_k, b*_k (k = 1..n). Requesting
a coefficient at any higher harmonic index only replays those N values:
the cosine sequence extends periodically and evenly, the sine sequence
periodically and oddly. ``extended_coefficient`` applies that folding
(``_series.alias_fold``) to an index or an index array.

The discrete spectrum is also the band-limited interpolant of the
samples: called at t, it evaluates a*_0/2 + sum_k (a*_k cos kt + b*_k sin kt).
``spectrum_to_csv`` is its one wire format.

Coefficients are computed by direct summation (no FFT) so every number
is auditable against the defining formula.
"""

import math

import numpy as np

from . import _kernels, _series
from ._wire import csv_text


# Largest grid parameter: N = 2n + 1 <= 2^25 + 1 nodes, whose node array
# takes 256 MiB. Larger n is refused before anything is allocated.
_MAX_N = 2**24


class UniformGrid:
    """N = 2n+1 equally spaced nodes on [0, 2*pi), starting at 0; n is an integer in 1..2^24."""

    __slots__ = ("n", "N", "nodes")

    def __init__(self, n):
        message = f"grid parameter n must be an integer in 1..{_MAX_N}"
        self.n = _series.integer(n, 1, message, _MAX_N)
        self.N = 2 * self.n + 1
        nodes = 2.0 * np.pi * np.arange(self.N) / self.N
        nodes.setflags(write=False)
        self.nodes = nodes

    def __eq__(self, other):
        return isinstance(other, UniformGrid) and other.n == self.n

    def __hash__(self):
        return hash(("UniformGrid", self.n))

    def __repr__(self):
        return f"UniformGrid(n={self.n})"


def make_grid(n):
    """Grid with N = 2n+1 nodes; the only grid shape the package supports.

    n is an integer in 1..2^24; a larger n is refused with ValueError
    before its nodes are allocated.
    """
    return UniformGrid(n)


class SampleVector:
    """Signal values on the nodes of a uniform grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.N,):
            raise ValueError(f"expected {grid.N} samples, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"SampleVector(N={self.grid.N})"


def sample(signal, grid):
    """Evaluate the signal at the grid nodes.

    The signal is any callable of t: the package's analytic signals or a
    black box (black-box signals sample fine; only the analytic bound
    checks need known coefficients). It is called once on the array of
    nodes; one that does not return an array of that shape is called
    node by node.
    """
    values = np.asarray(signal(grid.nodes), dtype=float)
    if values.shape != grid.nodes.shape:
        values = np.array([float(signal(t)) for t in grid.nodes])
    return SampleVector(grid, values)


class DiscreteSpectrum:
    """The N independent discrete coefficients of a sample vector.

    Called at t it is the band-limited interpolating polynomial of the
    samples.

    Attributes
    ----------
    grid : UniformGrid
    a0 : float
    a, b : arrays of length n
        Cosine and sine coefficients for k = 1..n.
    """

    __slots__ = ("grid", "a0", "a", "b")

    def __init__(self, grid, a0, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (grid.n,) or b.shape != (grid.n,):
            raise ValueError("coefficient arrays must have length n")
        if not (math.isfinite(a0) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        self.grid = grid
        self.a0 = float(a0)
        self.a = a
        self.b = b

    def __call__(self, t):
        """Polynomial value at t; scalar in, scalar out, arrays keep their shape."""
        t_arr = _series.finite_points(t)
        vals = _kernels.synth(self.a0, self.a, self.b, _series.reduce_angle(np.atleast_1d(t_arr)))
        return vals if t_arr.ndim else float(vals[0])

    def fourier_series(self):
        """The polynomial's series (a0, a[1..n], b[1..n])."""
        return self.a0, self.a, self.b

    def __repr__(self):
        return f"DiscreteSpectrum(n={self.grid.n})"


def discrete_coeffs(samples):
    """Discrete Fourier coefficients of the samples, by direct summation."""
    a0, a, b = _kernels.dft(samples.values)
    return DiscreteSpectrum(samples.grid, a0, a, b)


def extended_coefficient(spectrum, j):
    """Discrete coefficients (a*_j, b*_j) at any index j >= 1, by the folding rule.

    Class k's cosine coefficient repeats on every member, its sine
    coefficient flips sign on the mN - k branch, and the constant class
    (j a multiple of N) reads (a*_0, 0). j is an index or an index array:
    a pair of floats or a pair of arrays shaped like j, with the same bits
    either way.
    """
    j = _series.integers(j, 1, "extended index must be an integer >= 1")
    a, b = _folded_coefficient(spectrum, *_series.alias_fold(j, spectrum.grid.N))
    return (a, b) if np.ndim(j) else (float(a), float(b))


def _folded_coefficient(spectrum, k, sin_sign):
    # extended_coefficient's body, for indices already folded to their
    # class k and sine sign; the spline's coefficient law keeps that fold.
    a = np.concatenate(([spectrum.a0], spectrum.a))[k]
    b = sin_sign * np.concatenate(([0.0], spectrum.b))[k]
    return a, b


# -- CSV wire format ------------------------------------------------------


def spectrum_to_csv(spectrum):
    """CSV text with header ``k,a,b``; the k = 0 row carries (a0, 0)."""
    n = spectrum.grid.n
    rows = [[0, spectrum.a0, 0.0]]
    rows += ([k, spectrum.a[k - 1], spectrum.b[k - 1]] for k in range(1, n + 1))
    return csv_text(["k", "a", "b"], rows)
