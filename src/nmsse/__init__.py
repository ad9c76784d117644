"""Exact dynamics of a free particle under memory-carrying collapse noise.

The package solves a linear stochastic wave equation whose noise has an
exponentially decaying two-time correlation, entirely in closed form: the
propagator stays Gaussian in the position representation, its quadratic and
linear coefficients come from a pair of boundary-value kernels, and every
analytic route is cross-checked by an independent discretized path sum.

Layer map
    core        parameter records, time grids, validation errors
    noise       correlated-noise sampling and the correlation kernel
    kernels     boundary-kernel solutions, closed form and collocation
    propagator  Gaussian state propagation, moments, spread curves
    oracle      discretized path-sum reduction to the propagator coefficients
    ensemble    Monte Carlo trajectory statistics (physical measure)
    cli         command-line drivers and file export
"""

from .core import (
    HBAR_SI,
    InvalidGridError,
    InvalidParameterError,
    PhysicalParams,
    TimeGrid,
    make_grid,
    make_params,
)
from .ensemble import EnsembleStats, run_ensemble
from .kernels import (
    CharacteristicRoots,
    KernelSolution,
    characteristic_roots,
    f_exponential,
    f_markovian,
    f_ratio_form,
    h_exponential,
    kernel_residual,
    solve_f_numeric,
    solve_h_numeric,
)
from .noise import (
    CorrelationKernel,
    NoisePath,
    exponential_kernel,
    sample_exponential_noise,
    sample_exponential_noise_batch,
)
from .oracle import OracleReport, oracle_coefficients, oracle_convergence
from .propagator import (
    FunctionalDerivativeCoeffs,
    GaussianState,
    GreensCoefficients,
    asymptotic_spread,
    functional_derivative_coeffs,
    gaussian_from_moments,
    greens_coefficients,
    mean_momentum,
    mean_position,
    normalize,
    propagate_gaussian,
    spread_curve,
    spread_momentum,
    spread_position,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_SI",
    "InvalidGridError",
    "InvalidParameterError",
    "PhysicalParams",
    "TimeGrid",
    "make_grid",
    "make_params",
    "CorrelationKernel",
    "NoisePath",
    "exponential_kernel",
    "sample_exponential_noise",
    "sample_exponential_noise_batch",
    "CharacteristicRoots",
    "KernelSolution",
    "characteristic_roots",
    "f_exponential",
    "f_markovian",
    "f_ratio_form",
    "h_exponential",
    "kernel_residual",
    "solve_f_numeric",
    "solve_h_numeric",
    "FunctionalDerivativeCoeffs",
    "GaussianState",
    "GreensCoefficients",
    "asymptotic_spread",
    "functional_derivative_coeffs",
    "gaussian_from_moments",
    "greens_coefficients",
    "mean_momentum",
    "mean_position",
    "normalize",
    "propagate_gaussian",
    "spread_curve",
    "spread_momentum",
    "spread_position",
    "OracleReport",
    "oracle_coefficients",
    "oracle_convergence",
    "EnsembleStats",
    "run_ensemble",
    "__version__",
]
