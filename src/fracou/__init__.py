"""Gamma-mixed fractional Ornstein-Uhlenbeck processes.

Special functions of Mittag-Leffler type, the resolvent and mean kernels of
the associated Volterra equation, Gaussian stochastic-convolution
simulation, and empirical convergence diagnostics.
"""

from .errors import AccuracyError, DomainError, TruncationError
from .kernels import (
    MeanKernel,
    ResolventKernel,
    empirical_kernel,
    mean_kernel,
    mean_kernel_deriv,
    resolvent,
    resolvent_deriv,
    resolvent_l2_norm,
    stationary_variance,
    tail_variance_bound,
    variance_integral,
    volterra_residual,
)
from .mixing import GammaMixing, check_condition, moment_frac, moment_int, sample_alphas
from .simulate import (
    PathEnsemble,
    TimeGrid,
    brownian_increments,
    empirical_mean_path,
    simulate_component_paths,
    simulate_empirical_mean_paths,
    simulate_exact_gaussian,
    simulate_limit_path,
    simulate_limit_paths,
    simulate_stationary_paths,
    y_minus_s_at_zero,
)
from .special_functions import (
    EvalResult,
    FractionalOrder,
    g_rho_quadrature,
    g_rho_series,
    ml_asymptotic,
    ml_one,
    ml_one_deriv,
    ml_two,
    pochhammer,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "DomainError",
    "TruncationError",
    "EvalResult",
    "FractionalOrder",
    "GammaMixing",
    "MeanKernel",
    "PathEnsemble",
    "ResolventKernel",
    "TimeGrid",
    "brownian_increments",
    "check_condition",
    "empirical_kernel",
    "empirical_mean_path",
    "g_rho_quadrature",
    "g_rho_series",
    "mean_kernel",
    "mean_kernel_deriv",
    "ml_asymptotic",
    "ml_one",
    "ml_one_deriv",
    "ml_two",
    "moment_frac",
    "moment_int",
    "pochhammer",
    "resolvent",
    "resolvent_deriv",
    "resolvent_l2_norm",
    "sample_alphas",
    "simulate_component_paths",
    "simulate_empirical_mean_paths",
    "simulate_exact_gaussian",
    "simulate_limit_path",
    "simulate_limit_paths",
    "simulate_stationary_paths",
    "stationary_variance",
    "tail_variance_bound",
    "variance_integral",
    "volterra_residual",
    "y_minus_s_at_zero",
]
