"""Functional AR(1) simulation, estimation and consistency diagnostics.

The package simulates a first-order autoregressive process in a truncated
spectral basis on [0, 1], estimates the autocorrelation operator with a
truncated componentwise estimator built from empirical covariance
eigenpairs, and reports one-step prediction errors in a wavelet-domain
sup norm together with the quantities that certify estimator consistency.

The names below are re-exported lazily (PEP 562): `import banach_ar1`
loads no numpy, so the command-line program can choose its BLAS thread
count before numpy starts.
"""

from importlib import import_module

_EXPORTS = {
    "diagnostics": (
        "ConsistencyReport",
        "ExperimentResult",
        "consistency_ratio",
        "eigen_decay_report",
        "empirical_mse_curve",
        "exceedance_bound",
        "exceedance_table",
        "trace_embedding_report",
    ),
    "estimation": (
        "EigenGapError",
        "EstimatorState",
        "TruncationRankError",
        "TruncationRule",
        "empirical_covariance",
        "empirical_cross_covariance",
        "fit_estimator",
        "gap_coefficients",
        "max_inverse_gap",
        "plug_in_predict",
        "prediction_error_besov",
        "truncation_order",
    ),
    "harness": (
        "ConfigError",
        "ExperimentConfig",
        "StationarityError",
        "parse_config",
        "read_estimator_csv",
        "run_experiment",
        "write_estimator_csv",
    ),
    "model": (
        "ModelParams",
        "NoiseCovarianceError",
        "SpectralOperator",
        "Trajectory",
        "build_covariance",
        "build_noise_covariance",
        "build_rho",
        "check_stationarity",
        "sample_initial_condition",
        "simulate_trajectory",
        "stationary_covariance",
    ),
    "wavelet": (
        "GelfandWeights",
        "WaveletBasisSpec",
        "WaveletCoeffs",
        "besov_l1_norm",
        "besov_sup_norm",
        "daubechies_filter",
        "dwt_forward",
        "dwt_inverse",
        "make_gelfand_weights",
        "weighted_norm",
    ),
}
_SOURCE_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    # an AttributeError for any other name lets `from banach_ar1 import cli` import the submodule
    if name not in _SOURCE_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
