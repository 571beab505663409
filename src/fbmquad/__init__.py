"""Riemann-sum stochastic integration against fractional Brownian motion.

Exact fBm samplers (Cholesky and circulant embedding), the four composite
quadrature schemes with their critical Hurst exponents, the Hermite/chaos
toolkit behind the error analysis, the limit constants of the critical-case
Gaussian fluctuation law, and seeded Monte Carlo experiments that verify the
theory at desk scale.
"""

from .constants import KappaResult, beta, beta_squared, beta_terms, kappa, predicted_error_variance
from .covariance import (
    GRAM_CAP_DEFAULT,
    HurstGrid,
    cov,
    fgn_autocov,
    increment_gram,
    rho,
)
from .experiments import (
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    ExperimentReport,
    canonical_json,
    partial_interval_second_moment,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)
from .hermite import ChaosExpansion, hermite_eval, power_to_hermite
from .pathgen import (
    EIGENVALUE_TOL,
    FbmPath,
    GeneratorKind,
    circulant_eigenvalues,
    generate,
    generate_batch,
    replication_seeds,
)
from .schemes import (
    ErrorDecomposition,
    Polynomial,
    ScaledCosine,
    SchemeKind,
    TestFunction,
    error_decomposition,
    parse_test_function,
    riemann_sum,
    simpson_error_decomposition,
)
from .stats import (
    KsResult,
    SampleSummary,
    SlopeFit,
    correlation,
    fit_loglog_slope,
    kolmogorov_p_value,
    ks_test_normal,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "GRAM_CAP_DEFAULT",
    "EIGENVALUE_TOL",
    "DEFAULT_MASTER_SEED",
    "HurstGrid",
    "FbmPath",
    "GeneratorKind",
    "SchemeKind",
    "TestFunction",
    "Polynomial",
    "ScaledCosine",
    "ErrorDecomposition",
    "ChaosExpansion",
    "KappaResult",
    "KsResult",
    "SampleSummary",
    "SlopeFit",
    "ExperimentConfig",
    "ExperimentReport",
    "rho",
    "cov",
    "increment_gram",
    "fgn_autocov",
    "generate",
    "generate_batch",
    "replication_seeds",
    "circulant_eigenvalues",
    "hermite_eval",
    "power_to_hermite",
    "riemann_sum",
    "error_decomposition",
    "simpson_error_decomposition",
    "parse_test_function",
    "kappa",
    "beta",
    "beta_squared",
    "beta_terms",
    "summarize",
    "ks_test_normal",
    "kolmogorov_p_value",
    "fit_loglog_slope",
    "correlation",
    "canonical_json",
    "predicted_error_variance",
    "partial_interval_second_moment",
    "run_clt_experiment",
    "run_rate_experiment",
    "run_divergence_probe",
]
