"""Uniform grids, sampling, and the discrete Fourier coefficient map.

An odd grid of N = 2n+1 nodes t_j = 2*pi*(j-1)/N carries exactly N
independent discrete coefficients a*_0, a*_k, b*_k (k = 1..n). Requesting
a coefficient at any higher harmonic index only replays those N values:
the cosine sequence extends periodically and evenly, the sine sequence
periodically and oddly. ``alias_class`` names that folding and
``extended_coefficient`` applies it.

The discrete spectrum is also the band-limited interpolant of the
samples: called at t, it evaluates a*_0/2 + sum_k (a*_k cos kt + b*_k sin kt).

Coefficients are computed by direct summation (no FFT) so every number
is auditable against the defining formula.
"""

import csv
import io
import math
from typing import NamedTuple

import numpy as np

from . import _kernels, _series
from ._wire import csv_text

# Largest distance a CSV t value may lie from its node 2*pi*(j-1)/N.
_NODE_TOL = 1e-12


class UniformGrid:
    """N = 2n+1 equally spaced nodes on [0, 2*pi), starting at 0."""

    __slots__ = ("n", "N", "nodes")

    def __init__(self, n):
        if n < 1 or n != int(n):
            raise ValueError("grid parameter n must be an integer >= 1")
        self.n = int(n)
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
    """Grid with N = 2n+1 nodes; the only grid shape the package supports."""
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
        t_arr = np.asarray(t, dtype=float)
        vals = _kernels.synth(self.a0, self.a, self.b, _series.reduce_angle(np.atleast_1d(t_arr)))
        return vals if t_arr.ndim else float(vals[0])

    def eval_on_uniform_grid(self, points):
        """Polynomial values at t_g = 2*pi*g/points, g = 0..points-1."""
        if points < 1 or points != int(points):
            raise ValueError("points must be a positive integer")
        t = 2.0 * np.pi * np.arange(int(points)) / points
        return _kernels.synth(self.a0, self.a, self.b, t)

    def fourier_series(self):
        """The polynomial's series (a0, a[1..n], b[1..n])."""
        return self.a0, self.a, self.b

    def __repr__(self):
        return f"DiscreteSpectrum(n={self.grid.n})"


def discrete_coeffs(samples):
    """Discrete Fourier coefficients of the samples, by direct summation."""
    a0, a, b = _kernels.dft(samples.values)
    return DiscreteSpectrum(samples.grid, a0, a, b)


def interpolating_polynomial(samples):
    """Band-limited interpolating polynomial of the samples: their discrete spectrum."""
    return discrete_coeffs(samples)


class AliasClass(NamedTuple):
    """Band representative of a harmonic index and the signs its folding applies."""

    k: int
    cos_sign: int
    sin_sign: int


def alias_class(j, N):
    """Fold harmonic index j onto its band representative.

    On N = 2n+1 nodes the harmonics j and mN +- k are indistinguishable:
    cosines coincide with sign +1 always, sines pick up -1 on the mN - k
    branch. k = 0 marks the constant class (j a multiple of N).
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")
    if j < 0 or j != int(j):
        raise ValueError("harmonic index must be an integer >= 0")
    # Reduced by Python's % first, so indices beyond the int64 range fold too.
    k, sin_sign = _series.alias_fold(int(j) % N, N)
    return AliasClass(int(k), +1, int(sin_sign))


def extended_coefficient(spectrum, j):
    """Discrete coefficients at any index j >= 1 via the folding rule."""
    if j < 1 or j != int(j):
        raise ValueError("extended index must be an integer >= 1")
    cls = alias_class(j, spectrum.grid.N)
    if cls.k == 0:
        return (spectrum.a0, 0.0)
    return (spectrum.a[cls.k - 1], cls.sin_sign * spectrum.b[cls.k - 1])


# -- CSV wire formats -----------------------------------------------------


def samples_to_csv(samples):
    """CSV text with header ``j,t,f``, one row per node."""
    grid = samples.grid
    return csv_text(
        ["j", "t", "f"],
        ([j + 1, grid.nodes[j], samples.values[j]] for j in range(grid.N)),
    )


def samples_from_csv(text):
    """Inverse of :func:`samples_to_csv`; malformed text raises ValueError."""
    rows = _csv_body(text, ["j", "t", "f"], first_index=1)
    N = len(rows)
    if N % 2 == 0 or N < 3:
        raise ValueError("sample CSV must hold an odd number of rows")
    grid = make_grid((N - 1) // 2)
    for row, node in zip(rows, grid.nodes):
        try:
            t = float(row[1])
        except ValueError:
            raise ValueError(f"row j = {row[0]} has t = {row[1]!r}, not a number") from None
        if not abs(t - node) <= _NODE_TOL:
            raise ValueError(f"row j = {row[0]} has t = {row[1]!r}, expected the node {float(node)!r}")
    return SampleVector(grid, [float(r[2]) for r in rows])


def spectrum_to_csv(spectrum):
    """CSV text with header ``k,a,b``; the k = 0 row carries (a0, 0)."""
    n = spectrum.grid.n
    rows = [[0, spectrum.a0, 0.0]]
    rows += ([k, spectrum.a[k - 1], spectrum.b[k - 1]] for k in range(1, n + 1))
    return csv_text(["k", "a", "b"], rows)


def spectrum_from_csv(text):
    """Inverse of :func:`spectrum_to_csv`; malformed text raises ValueError."""
    rows = _csv_body(text, ["k", "a", "b"], first_index=0)
    if len(rows) < 2:
        raise ValueError("spectrum CSV needs the k = 0 row and at least one more")
    a0 = float(rows[0][1])
    a = [float(r[1]) for r in rows[1:]]
    b = [float(r[2]) for r in rows[1:]]
    return DiscreteSpectrum(make_grid(len(rows) - 1), a0, a, b)


def _csv_body(text, header, first_index):
    # The data rows, once the header, each row's width and the index
    # column (counting up from first_index) have been checked.
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"expected header {','.join(header)}")
    body = rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"row {i + 1} has {len(row)} cells, expected {len(header)}")
        if int(row[0]) != first_index + i:
            raise ValueError(
                f"row {i + 1} has {header[0]} = {row[0]!r}, expected {first_index + i}"
            )
    return body
