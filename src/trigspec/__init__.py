"""Trigonometric-spline spectral analysis.

Discrete Fourier coefficients of uniformly sampled periodic signals,
exact aliasing fold identities with error bounds, interpolating
trigonometric splines held as Fourier series, spectrum unfolding beyond
the Nyquist band, and quadrature-based coefficient estimation — all
checkable against analytic test signals.
"""

from .alias_analysis import (
    FoldReport,
    aliasing_error_bound,
    band_component,
    dc_class_component,
    folded_coefficients,
    residual_component,
    time_domain_overlay_bound,
)
from .errors import (
    DegenerateKernelError,
    NumericalError,
    QuadratureConvergenceError,
    SeriesPrecisionError,
    UnsupportedSignalError,
)
from .filon_oracle import (
    cnorm_error_bound,
    diff_variation_bound,
    filon_coeffs,
    quad_fourier_coeff,
    refined_error_bound,
    sup_distance,
)
from .sampling import (
    DiscreteSpectrum,
    SampleVector,
    UniformGrid,
    discrete_coeffs,
    extended_coefficient,
    make_grid,
    sample,
)
from .signal_model import (
    AnalyticSignal,
    SmoothnessInfo,
    coefficient_bound,
    evaluate,
    harmonic_sum,
    power_decay_cosine,
    power_decay_sine,
    signal_from_json,
    signal_to_json,
    suite_signals,
    true_coefficient,
)
from .spline_kernel import (
    ClassTable,
    FilterTable,
    FilterVariant,
    KernelConfig,
    class_table,
    filter_response,
    gain,
    raw_gain,
)
from .trig_spline import (
    TrigSpline,
    build_spline,
    curvature_functional,
    spline_eval,
    spline_fourier_coeff,
    spline_from_json,
    spline_to_json,
    unfolded_spectrum,
    values_on_uniform_grid,
)

__version__ = "0.1.0"

# The kernels exist in one implementation; benchmark results carry this
# stamp and are compared only against results with the same one.
kernel_backend = "python"
