"""Exception types shared across the package.

Domain errors (bad arguments, invalid configuration) raise plain
``ValueError``; the classes below mark *numerical* failures that a caller
may want to catch separately, e.g. the command line front end maps them
to a dedicated exit code.
"""


class NumericalError(Exception):
    """A computation could not reach its accuracy contract."""


class DegenerateKernelError(NumericalError):
    """A class normalizer cancelled to below the guard threshold.

    Checked, and raised, only for the signed sinc-power factor family
    with an odd power, the one family whose class sums can cancel. A
    class sum or raw gain that leaves the float range is a
    :class:`SeriesPrecisionError` in every family.
    """


class QuadratureConvergenceError(NumericalError):
    """Grid-doubling quadrature failed to converge.

    Carries the last two estimates so callers can report how far apart
    they were.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class SeriesPrecisionError(NumericalError):
    """A series result cannot be certified to its accuracy contract.

    Raised when a term of a closed form leaves the float range, or when
    rounding alone already exceeds the requested tolerance.
    """


class UnsupportedSignalError(ValueError):
    """The operation needs analytically known Fourier coefficients."""
