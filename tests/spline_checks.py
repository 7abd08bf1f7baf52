"""Value checks shared by the high-order spline tests.

At n = 64 and orders from about 130, N^-s is subnormal or zero, so class
sums that form it lose their fold tails and splines miss their own
samples; the seeded 130-term harmonic sum has energy in every class and
shows that. Each check here reads values.
"""

import math

import numpy as np

from trigspec import harmonic_sum, spline_eval, values_on_uniform_grid
from trigspec.trig_spline import scattered_eval_bound


def long_harmonic_sum():
    """130 seeded harmonics at indices 0..129 (max|f| about 26)."""
    ab = np.random.default_rng(3).standard_normal((130, 2))
    return harmonic_sum([(j, a, b if j else 0.0) for j, (a, b) in enumerate(ab.tolist())])


def assert_spline_values_hold(spline, samples, grids=(64,)):
    """Nodes, bound and grid agreement of a spline built from `samples`.

    Scattered evaluation and the uniform-grid fold at G = N both reproduce
    the samples within 1e-12 max|f|; ``scattered_eval_bound`` is finite;
    at each G in `grids` the scattered values agree with the fold within
    that bound plus 1e-12 max|f|.
    """
    N = spline.config.grid.N
    tol = 1e-12 * max(1.0, float(np.max(np.abs(samples.values))))
    assert np.max(np.abs(spline_eval(spline, samples.grid.nodes) - samples.values)) <= tol
    assert np.max(np.abs(values_on_uniform_grid(spline, N) - samples.values)) <= tol
    bound = scattered_eval_bound(spline)
    assert math.isfinite(bound) and bound >= 0.0
    for G in grids:
        t = 2.0 * np.pi * np.arange(G) / G
        assert np.max(np.abs(spline_eval(spline, t) - values_on_uniform_grid(spline, G))) <= bound + tol
