"""Empirical covariance operators and the truncated componentwise estimator.

Given a trajectory X_0..X_{n-1} in an orthonormal coordinate system, the
empirical covariance is (1/n) sum X_i X_i^T and the lag-1 cross-covariance
is (1/(n-1)) sum X_{i+1} X_i^T.  The autocorrelation estimate projects the
cross-covariance onto the span of the top k_n empirical eigenvectors and
inverts the covariance on that span only:

    rho_hat = P_k D_n C_n^+ P_k,

which is the componentwise estimator written as a matrix.  The plug-in
one-step prediction is rho_hat applied to the newest state.

Inner products here are plain Euclidean ones: the coordinate system is the
model eigenbasis, which is orthonormal for the geometry the estimator needs.
The wavelet-domain weighted norms are used only for error reporting, never
inside the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import SpectralOperator, Trajectory, eigenfunctions_on_grid
from .wavelet import WaveletBasisSpec, dwt_forward


class EigenGapError(RuntimeError):
    """Raised when consecutive eigenvalues have a vanishing gap."""


class TruncationRankError(RuntimeError):
    """Raised when the empirical covariance is too degenerate for the requested truncation."""


@dataclass(frozen=True)
class TruncationRule:
    """How many empirical eigenpairs the estimator keeps.

    kind "log_ceil" grows the order like ceil(ln n); kind "fixed" pins it.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("log_ceil", "fixed"):
            raise ValueError(f"unknown truncation rule kind {self.kind!r}")
        if self.kind == "fixed" and (self.k is None or self.k < 1):
            raise ValueError("fixed rule needs k >= 1")

    @classmethod
    def log_ceil(cls) -> "TruncationRule":
        return cls(kind="log_ceil")

    @classmethod
    def fixed(cls, k: int) -> "TruncationRule":
        return cls(kind="fixed", k=k)


def truncation_order(n: int, rule: TruncationRule, p_max: int | None = None) -> int:
    """Truncation order for sample size n, clamped to [1, p_max]."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = math.ceil(math.log(n)) if rule.kind == "log_ceil" else int(rule.k)
    k = max(k, 1)
    if p_max is not None:
        k = min(k, p_max)
    return k


@dataclass
class EstimatorState:
    """Everything fitted from one trajectory, or from a stack of them.

    eigenvalues/eigenvectors are the full empirical covariance eigensystem
    (descending, orthonormal columns, in model-basis coordinates);
    d_matrix is the raw cross-covariance in the same coordinates, from which
    the empirical-basis entries are eigenvectors.T @ d_matrix @ eigenvectors;
    rho_hat is the rank <= k_n estimator matrix.  A stack of fits to
    trajectories of the same length carries a leading replication axis on
    every array; state[r] is fit r of the stack.
    """

    n: int
    k_n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    d_matrix: np.ndarray
    rho_hat: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=float)
        self.d_matrix = np.asarray(self.d_matrix, dtype=float)
        self.rho_hat = np.asarray(self.rho_hat, dtype=float)
        if not 1 <= self.k_n <= self.n:
            raise ValueError("need 1 <= k_n <= n")
        if np.any(np.diff(self.eigenvalues, axis=-1) > 1e-12) or np.any(self.eigenvalues[..., -1] < -1e-12):
            raise ValueError("eigenvalues must be sorted non-increasing and non-negative")
        p = self.eigenvalues.shape[-1]
        gram = np.swapaxes(self.eigenvectors, -1, -2) @ self.eigenvectors
        if np.abs(gram - np.eye(p)).max() > 1e-10:
            raise ValueError("eigenvector columns must be orthonormal within 1e-10")

    def __getitem__(self, r: int) -> "EstimatorState":
        return EstimatorState(
            n=self.n,
            k_n=self.k_n,
            eigenvalues=self.eigenvalues[r],
            eigenvectors=self.eigenvectors[r],
            d_matrix=self.d_matrix[r],
            rho_hat=self.rho_hat[r],
        )


def empirical_covariance(traj: Trajectory) -> SpectralOperator:
    """(1/n) sum of X_i X_i^T over all n states of the trajectory."""
    if len(traj) < 2:
        raise ValueError("need at least 2 states")
    x = traj.states
    m = x.T @ x / len(traj)
    return SpectralOperator(0.5 * (m + m.T), symmetric=True)


def empirical_cross_covariance(traj: Trajectory) -> SpectralOperator:
    """(1/(n-1)) sum of X_{i+1} X_i^T over consecutive pairs; not symmetric."""
    if len(traj) < 2:
        raise ValueError("need at least 2 states")
    x = traj.states
    m = x[1:].T @ x[:-1] / (len(traj) - 1)
    return SpectralOperator(m, symmetric=False)


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray
    near_degenerate: list[int]


def eigen_decompose(op: SpectralOperator, gap_tol: float = 1e-8) -> EigenDecomposition:
    """Full symmetric eigendecomposition, values descending.

    Positions j (1-based) whose relative gap (values[j-1] - values[j]) /
    max(values[0], tiny) falls below gap_tol are reported in near_degenerate:
    eigenvectors at those positions are not individually identifiable.
    """
    m = op.matrix
    if np.abs(m - m.T).max() > 1e-10 * max(1.0, float(np.abs(m).max())):
        raise ValueError("eigen_decompose requires a symmetric matrix")
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))
    values = values[::-1]
    vectors = vectors[:, ::-1]
    scale = max(float(values[0]), 1e-300)
    gaps = np.diff(values) * -1.0
    near = [int(j + 1) for j in range(gaps.size) if gaps[j] / scale < gap_tol]
    return EigenDecomposition(values=values, vectors=vectors, near_degenerate=near)


def sign_align(empirical_vec: np.ndarray, reference_vec: np.ndarray) -> np.ndarray:
    """Reference eigenvector flipped to match the empirical one's orientation.

    The sign is +1 when the inner product is >= 0 (ties resolve to +1), so
    aligning twice gives the same result as aligning once.
    """
    empirical_vec = np.asarray(empirical_vec, dtype=float)
    reference_vec = np.asarray(reference_vec, dtype=float)
    if empirical_vec.shape != reference_vec.shape:
        raise ValueError("vectors must have the same length")
    sign = 1.0 if float(np.dot(empirical_vec, reference_vec)) >= 0.0 else -1.0
    return sign * reference_vec


def _checked_gaps(values: np.ndarray, k: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if k < 1:
        raise ValueError("need k >= 1")
    if values.size < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} eigenvalues, got {values.size}")
    gaps = values[:k] - values[1 : k + 1]
    if (gaps < 1e-12).any():
        worst = int(np.argmin(gaps)) + 1
        raise EigenGapError(
            f"eigenvalue gap at position {worst} is {gaps[worst - 1]:.3e}; "
            "spectral gaps must be positive and bounded away from zero "
            "(one-dimensional eigenspaces)"
        )
    return gaps


def gap_coefficients(values: np.ndarray, k: int) -> np.ndarray:
    """Inverse-gap constants a_1..a_k controlling eigenvector perturbations.

    a_1 = 2 sqrt(2) / (C_1 - C_2); for j >= 2 the larger of the two
    neighbouring inverse gaps enters: a_j = 2 sqrt(2) max(1/(C_{j-1}-C_j),
    1/(C_j-C_{j+1})).
    """
    gaps = _checked_gaps(values, k)
    inv = 1.0 / gaps
    out = np.empty(k)
    out[0] = 2.0 * math.sqrt(2.0) * inv[0]
    for j in range(1, k):
        out[j] = 2.0 * math.sqrt(2.0) * max(inv[j - 1], inv[j])
    return out


def max_inverse_gap(values: np.ndarray, k: int) -> float:
    """Largest inverse eigenvalue gap over the first k positions."""
    gaps = _checked_gaps(values, k)
    return float((1.0 / gaps).max())


def fit_stack(states: np.ndarray, rule: TruncationRule) -> EstimatorState:
    """Fit the truncated componentwise estimator on each of a stack of trajectories.

    states has shape (R, n, p): R trajectories of n states each.  Both
    moment matrices inside a fit are averaged over the same n-1 observed
    transitions (X_i, X_{i+1}), so a noiseless trajectory with an
    identifiable span recovers the autocorrelation matrix exactly rather
    than up to an n/(n-1) factor.  Every product is a per-trajectory gemm,
    so a fit does not depend on the rest of the stack.

    Requires every trajectory's k_n-th empirical eigenvalue to be
    meaningfully positive (above 1e-10 times the leading one, the
    resolution of the Gram eigensolve); a more degenerate spectrum demands
    a smaller truncation order rather than silent regularization.
    """
    states = np.asarray(states, dtype=float)
    _, n, p = states.shape
    if n < 2:
        raise ValueError("need at least 2 states to fit")
    k_n = truncation_order(n, rule, p_max=min(n - 1, p))
    inputs = states[:, :-1]
    outputs = states[:, 1:]
    # one symmetric eigensolve of each Gram matrix, reversed to descending;
    # rounding negatives become 0, and the rank is at most n - 1, so the
    # eigenvalues beyond it are exactly 0
    values, vectors = np.linalg.eigh(np.swapaxes(inputs, 1, 2) @ inputs / (n - 1))
    values = np.clip(values[:, ::-1], 0.0, None)
    values[:, n - 1 :] = 0.0
    vectors = vectors[:, :, ::-1]
    degenerate = (values[:, 0] <= 0.0) | (values[:, k_n - 1] <= 1e-10 * values[:, 0])
    if degenerate.any():
        first = values[np.argmax(degenerate)]
        raise TruncationRankError(
            f"empirical eigenvalue {k_n} is {first[k_n - 1]:.3e} "
            f"(leading {first[0]:.3e}); use a smaller truncation order"
        )
    d = np.swapaxes(outputs, 1, 2) @ inputs / (n - 1)
    # rho_hat = P_k D C^+ P_k = U_k (U_k^T D U_k / lambda_k) U_k^T
    u_k = vectors[:, :, :k_n]
    u_k_t = np.swapaxes(u_k, 1, 2)
    rho_hat = u_k @ ((u_k_t @ d @ u_k) / values[:, None, :k_n]) @ u_k_t
    return EstimatorState(
        n=n,
        k_n=k_n,
        eigenvalues=values,
        eigenvectors=vectors,
        d_matrix=d,
        rho_hat=rho_hat,
    )


def fit_estimator(traj: Trajectory, rule: TruncationRule) -> EstimatorState:
    """Fit the estimator on one trajectory: fit_stack on a stack of one."""
    return fit_stack(traj.states[None], rule)[0]


def plug_in_predict(state: EstimatorState, x: np.ndarray) -> np.ndarray:
    """One-step-ahead prediction: the estimator applied to the newest state.

    For a stack of fits, x holds one state per fit; each product is a gemv.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != state.rho_hat.shape[:-1]:
        raise ValueError(f"state has dimension {state.rho_hat.shape[-1]}, got {x.shape}")
    return (state.rho_hat @ x[..., None])[..., 0]


@lru_cache(maxsize=8)
def _wavelet_matrix(modes: int, grid_len: int, spec: WaveletBasisSpec) -> np.ndarray:
    """Row j holds the flattened wavelet coefficients of eigenfunction j+1; read-only."""
    w = np.array([dwt_forward(phi, spec).flatten() for phi in eigenfunctions_on_grid(modes, grid_len)])
    w.setflags(write=False)
    return w


def prediction_error_besov(
    truth: np.ndarray,
    predicted: np.ndarray,
    grid_len: int,
    spec: WaveletBasisSpec,
) -> float:
    """Sup-norm of the wavelet coefficients of the prediction error.

    The error is the largest coefficient magnitude of the wavelet transform
    of the difference expanded on the dyadic grid.  Both steps are linear,
    so it is computed as max |(truth - predicted) @ W| with the cached
    p x L matrix W of the eigenfunctions' wavelet coefficients.  With a
    leading replication axis on truth and predicted it returns one error per
    replication, each from its own gemv.
    """
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if truth.shape != predicted.shape:
        raise ValueError("truth and prediction must have the same length")
    w = _wavelet_matrix(truth.shape[-1], grid_len, spec)
    errors = np.abs(((truth - predicted)[..., None, :] @ w)[..., 0, :]).max(axis=-1)
    return float(errors) if errors.ndim == 0 else errors
