"""Total variation of sampled periodic values, for the tests' smoothness checks."""

import numpy as np


def grid_total_variation(values):
    """Total variation of a periodic sequence, wrap-around step included."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(np.diff(values))) + abs(values[0] - values[-1]))
