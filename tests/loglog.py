"""Least-squares decay slopes for the tests' smoothness checks."""

import numpy as np


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x), ignoring nonpositive y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > 0
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two positive values for a slope fit")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
