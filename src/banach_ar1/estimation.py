"""Transition moments and the truncated componentwise estimator (Bosq, 2000, ch. 8).

Given a trajectory X_0..X_{n-1} in an orthonormal coordinate system, the
empirical covariance is (1/n) sum X_i X_i^T and the lag-1 cross-covariance
is (1/(n-1)) sum X_{i+1} X_i^T.  The autocorrelation estimate projects the
cross-covariance onto the span of the top k_n empirical eigenvectors and
inverts the covariance on that span only:

    rho_hat = P_k D_n C_n^+ P_k,

which is the componentwise estimator written as a matrix.  The fit reads a
trajectory only through the sums of X_i X_i^T and X_{i+1} X_i^T over its
transitions (TransitionMoments), summed one way: in consecutive blocks of
model.PIECE_ROWS transitions, from X_0 on, whether a whole trajectory
(fit_estimator) or a streamed path's pieces one by one are added, so both
give the same bits (fit_moments).  The plug-in one-step prediction is
rho_hat applied to the newest state.

Inner products here are plain Euclidean ones: the coordinate system is the
model eigenbasis, which is orthonormal for the geometry the estimator needs.
The wavelet-domain weighted norms are used only for error reporting, never
inside the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import PIECE_ROWS, Trajectory, eigenfunctions_on_grid
from .wavelet import WaveletBasisSpec, besov_sup_norm, coefficient_matrix


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
    """Truncation order for sample size n, clamped to [1, min(n - 1, p_max)]: n states give n - 1 transitions."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = math.ceil(math.log(n)) if rule.kind == "log_ceil" else int(rule.k)
    limit = n - 1 if p_max is None else min(n - 1, p_max)
    return max(min(k, limit), 1)


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
        # every comparison with NaN is false, so the checks below would pass one
        for name in ("eigenvalues", "eigenvectors", "d_matrix", "rho_hat"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        p = self.eigenvalues.shape[-1]
        if not 1 <= self.k_n <= min(self.n, p):
            raise ValueError(f"need 1 <= k_n <= n and k_n <= {p}, the number of eigenpairs")
        if np.any(np.diff(self.eigenvalues, axis=-1) > 1e-12) or np.any(self.eigenvalues[..., -1] < -1e-12):
            raise ValueError("eigenvalues must be sorted non-increasing and non-negative")
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
    inv = 1.0 / _checked_gaps(values, k)
    return 2.0 * math.sqrt(2.0) * np.maximum(inv, np.concatenate((inv[:1], inv[:-1])))


def max_inverse_gap(values: np.ndarray, k: int) -> float:
    """Largest inverse eigenvalue gap over the first k positions."""
    gaps = _checked_gaps(values, k)
    return float((1.0 / gaps).max())


class TransitionMoments:
    """Running sums over the transitions (X_i, X_{i+1}) of a stack of paths.

    gram holds sum X_i X_i^T and cross sum X_{i+1} X_i^T, one p x p matrix
    per path, summed block by block in the order the blocks are added;
    transitions counts the pairs.  Both are None until a transition is
    added.
    """

    def __init__(self):
        self.gram: np.ndarray | None = None
        self.cross: np.ndarray | None = None
        self.transitions = 0

    def add(self, states: np.ndarray) -> None:
        """Add the transitions of a stack of paths: states[:, i] holds X_(a+i) of each path.

        They are summed in consecutive blocks of PIECE_ROWS transitions from
        states[:, 0] on.  A stream_paths piece, which starts at a multiple of
        PIECE_ROWS, is one block, and consecutive pieces share their seam
        state, whose transition belongs to the earlier piece; so adding a
        whole path gives the bits of adding its pieces one by one.  Every
        product is a per-path gemm.
        """
        for start in range(0, states.shape[1] - 1, PIECE_ROWS):
            block = states[:, start : start + PIECE_ROWS + 1]
            inputs = block[:, :-1]
            gram = np.swapaxes(inputs, 1, 2) @ inputs
            cross = np.swapaxes(block[:, 1:], 1, 2) @ inputs
            if self.gram is None:
                self.gram, self.cross = gram, cross
            else:
                self.gram += gram
                self.cross += cross
            self.transitions += inputs.shape[1]


def fit_moments(moments: TransitionMoments, rule: TruncationRule) -> EstimatorState:
    """Fit the truncated componentwise estimator on each path of a stack from its transition moments.

    Both moment matrices are averaged over the same n - 1 transitions of the
    path's n states, so a noiseless trajectory with an identifiable span
    recovers the autocorrelation matrix exactly rather than up to an
    n/(n-1) factor.  Every product is a per-path gemm, so a fit does not
    depend on the rest of the stack.

    Requires every path's k_n-th empirical eigenvalue to be meaningfully
    positive (above 1e-10 times the leading one, the resolution of the Gram
    eigensolve); a more degenerate spectrum demands a smaller truncation
    order rather than silent regularization.  Raises ValueError before any
    transition is added.
    """
    if moments.gram is None:
        raise ValueError("need at least 2 states: no transition was added")
    n = moments.transitions + 1
    p = moments.gram.shape[-1]
    k_n = truncation_order(n, rule, p_max=p)
    # one symmetric eigensolve of each Gram matrix, reversed to descending;
    # rounding negatives become 0, and the rank is at most n - 1, so the
    # eigenvalues beyond it are exactly 0
    values, vectors = np.linalg.eigh(moments.gram / (n - 1))
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
    d = moments.cross / (n - 1)
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


# p x p arrays per path that fit_moments keeps alive at its peak: the two
# moment sums, the scaled Gram matrix (then its eigenvectors), D_n, rho_hat
# and the three of EstimatorState's orthonormality check
FIT_PEAK_ARRAYS = 8


def fit_estimator(traj: Trajectory, rule: TruncationRule) -> EstimatorState:
    """Fit the estimator on one trajectory, a stack of one: its transitions added at once, then fit_moments."""
    moments = TransitionMoments()
    moments.add(traj.states[None])
    return fit_moments(moments, rule)[0]


def plug_in_predict(state: EstimatorState, x: np.ndarray) -> np.ndarray:
    """One-step-ahead prediction: the estimator applied to the newest state.

    For a stack of fits, x holds one state per fit; each product is a gemv.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != state.rho_hat.shape[:-1]:
        raise ValueError(f"state has dimension {state.rho_hat.shape[-1]}, got {x.shape}")
    return (state.rho_hat @ x[..., None])[..., 0]


@lru_cache(maxsize=8)
def _wavelet_matrix(modes: int, grid_len: int, spec: WaveletBasisSpec, coarse_step: float | None) -> np.ndarray:
    """Row j: the wavelet coefficients of eigenfunction j+1 as model.eigenfunctions_on_grid tabulates it; read-only."""
    w = coefficient_matrix(eigenfunctions_on_grid(modes, grid_len, coarse_step), spec)
    w.setflags(write=False)
    return w


def prediction_error_besov(
    truth: np.ndarray,
    predicted: np.ndarray,
    grid_len: int,
    spec: WaveletBasisSpec,
    coarse_step: float | None = None,
) -> float | np.ndarray:
    """wavelet.besov_sup_norm of the wavelet coefficients of the prediction error.

    The coefficients are those of the wavelet transform of the difference
    expanded on the dyadic grid, or, with a coarse_step, through the spline
    of its values on the coarse grid (spline mode).  All steps are linear,
    so they are (truth - predicted) @ W with the cached p x L matrix W of
    the eigenfunctions' wavelet coefficients.  With a leading replication
    axis on truth and predicted it returns one error per replication, each
    from its own gemv.
    """
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if truth.shape != predicted.shape:
        raise ValueError("truth and prediction must have the same length")
    w = _wavelet_matrix(truth.shape[-1], grid_len, spec, coarse_step)
    return besov_sup_norm(((truth - predicted)[..., None, :] @ w)[..., 0, :])
