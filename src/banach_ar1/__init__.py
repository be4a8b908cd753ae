"""Functional AR(1) simulation, estimation and consistency diagnostics.

The package simulates a first-order autoregressive process in a truncated
spectral basis on [0, 1], estimates the autocorrelation operator with a
truncated componentwise estimator built from empirical covariance
eigenpairs, and reports one-step prediction errors in a wavelet-domain
sup norm together with the quantities that certify estimator consistency.

Import names from the module that defines them: `banach_ar1.model`,
`banach_ar1.estimation`, `banach_ar1.diagnostics`, `banach_ar1.wavelet`
and `banach_ar1.harness`.  This file imports nothing, so `import
banach_ar1` loads no numpy and `banach_ar1.cli` can set the BLAS thread
variables before numpy starts.
"""

__version__ = "0.1.0"
