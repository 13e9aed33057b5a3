"""Large-sieve concentration bounds on compact two-point homogeneous spaces.

Computes the sharp cap concentration constant T2(K, delta), the Nyquist
bound constant A_K and its Bessel limit, L^p extensions, and Monte Carlo
estimates of maximum Nyquist densities for cap-union regions, together with
independent brute-force and spectral verification oracles.
"""

from ._version import __version__
from .manifold import (
    EigenspaceInfo,
    Family,
    SpaceParams,
    cap_measure,
    eigenspace_info,
    make_space,
    space_from_id,
    zonal_coefficient,
)
from .oracle import (
    ExtremalResult,
    SpectralResult,
    concentration_eigenvalue,
    convolution_check,
    extremal_bruteforce,
    limit_check,
    ordering_check,
    sphere_kernel,
)
from .region import (
    DensityEstimate,
    MeasureSpec,
    RegionSpec,
    cap_contains,
    cap_fraction,
    max_nyquist_density,
    measure_bound,
    sample_cap,
    sample_space,
)
from .sieve import (
    BoundReport,
    a_constant,
    a_infinity,
    bound_report,
    constants_table,
    lp_bound,
    nyquist_delta,
    t2_constant,
)
from .specfun import (
    JacobiIndex,
    QuadratureRule,
    ZeroResult,
    bessel_first_zero,
    bessel_j,
    gauss_jacobi_rule,
    incomplete_beta,
    jacobi_at_one,
    jacobi_derivative,
    jacobi_eval,
    jacobi_eval_rows,
    jacobi_norm_sq,
    largest_zero,
    log_gamma,
    mehler_heine_residual,
    tail_quadrature,
)

__all__ = [
    "__version__",
    # specfun
    "JacobiIndex", "ZeroResult", "QuadratureRule",
    "jacobi_eval", "jacobi_eval_rows", "jacobi_at_one", "jacobi_derivative",
    "jacobi_norm_sq", "largest_zero", "gauss_jacobi_rule", "tail_quadrature",
    "log_gamma", "incomplete_beta", "bessel_j", "bessel_first_zero",
    "mehler_heine_residual",
    # manifold
    "Family", "SpaceParams", "EigenspaceInfo", "make_space", "space_from_id",
    "eigenspace_info", "cap_measure", "zonal_coefficient",
    # sieve
    "BoundReport", "t2_constant", "a_constant", "a_infinity",
    "lp_bound", "bound_report", "constants_table", "nyquist_delta",
    # region
    "RegionSpec", "DensityEstimate", "MeasureSpec", "cap_contains", "sample_cap",
    "sample_space", "cap_fraction", "max_nyquist_density", "measure_bound",
    # oracle
    "ExtremalResult", "SpectralResult", "extremal_bruteforce", "sphere_kernel",
    "concentration_eigenvalue", "convolution_check", "ordering_check",
    "limit_check",
]
