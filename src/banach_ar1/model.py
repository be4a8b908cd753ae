"""Concrete first-order autoregressive model in a spectral sine basis.

The state covariance is diagonal in the Dirichlet eigenbasis of the interval
Laplacian: eigenfunctions sqrt(2) sin(j pi t) on [0, 1] with eigenvalues
pi^2 j^2, so the covariance eigenvalues are (1 + pi^2 j^2)^(-gamma).  The
autocorrelation and innovation-covariance matrices follow the banded forms
(1+j)^(-1.5) / exp(-|j-h|/W) and C_j (1 - rho_jj^2) / exp(-|j-h|^2/W^2).

States live in the truncated eigenbasis as length-p coefficient vectors;
trajectories iterate X_n = rho(X_{n-1}) + eps_n with Gaussian innovations
drawn through the symmetric square root of the innovation covariance.
All randomness flows through an explicit numpy Generator, so identical
parameters and generator state reproduce trajectories bit for bit.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class NoiseCovarianceError(RuntimeError):
    """Raised when the innovation covariance cannot be repaired to PSD."""


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the concrete autoregressive model.

    gamma must exceed 2 * beta_exponent > 1 so that the covariance decay is
    fast enough for the weighted-norm embeddings used downstream.
    """

    gamma: float
    beta_exponent: float
    width: float = 0.4
    modes: int = 50
    grid_len: int = 2048

    def __post_init__(self):
        if not self.gamma > 2 * self.beta_exponent > 1:
            raise ValueError(
                f"need gamma > 2*beta_exponent > 1 (so beta_exponent > 1/2), got gamma={self.gamma}, "
                f"beta_exponent={self.beta_exponent}"
            )
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.modes < 2:
            raise ValueError("need at least 2 modes")
        if self.grid_len < 2 or self.grid_len & (self.grid_len - 1):
            raise ValueError(f"grid_len must be a power of two, got {self.grid_len}")


@dataclass
class SpectralOperator:
    """An operator as a p x p matrix in the model eigenbasis."""

    matrix: np.ndarray
    symmetric: bool = False
    # (s, stack, top) of the latest power_table(s), and the lock that guards it
    _powers: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _powers_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"operator matrix must be square, got {self.matrix.shape}")
        if self.symmetric and np.abs(self.matrix - self.matrix.T).max() > 1e-12:
            raise ValueError("matrix marked symmetric but is not, within 1e-12")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Symmetric PSD square root, computed once and read-only; tiny negative eigenvalues become 0."""
        w, v = np.linalg.eigh(self.matrix)
        if w[0] < -1e-10 * max(float(np.abs(w).max()), 1e-300):
            raise ValueError(f"matrix is not positive semi-definite: min eigenvalue {w[0]:.6e}")
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        root.setflags(write=False)
        return root

    @cached_property
    def positive_diagonal(self) -> np.ndarray:
        """The diagonal, checked once to be the whole matrix and positive; read-only."""
        diag = np.diag(self.matrix).copy()
        if np.abs(self.matrix - np.diag(diag)).max() > 0 or (diag <= 0).any():
            raise ValueError("covariance must be diagonal with positive entries")
        diag.setflags(write=False)
        return diag

    def power_table(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Powers of M = matrix.T: the (s p, p) stack [M^(s-1); ...; M; I] and M^s.

        Both are read-only.  Only the table of the latest s is kept, so a
        sweep over ascending sizes builds one table per size.  Threads that
        ask at once take turns, and each gets the table of its own s.
        """
        with self._powers_lock:
            if self._powers is None or self._powers[0] != s:
                self._powers = None  # free the old table before the new one is built
                p = self.dim
                a = self.matrix.T
                stack = np.empty((s * p, p))
                blocks = stack.reshape(s, p, p)
                blocks[-1] = np.eye(p)
                for k in range(s - 2, -1, -1):
                    np.matmul(blocks[k + 1], a, out=blocks[k])
                top = blocks[0] @ a
                stack.setflags(write=False)
                top.setflags(write=False)
                self._powers = s, stack, top
            return self._powers[1:]


@dataclass
class Trajectory:
    """A simulated path: states[i] is X_i in eigenbasis coordinates."""

    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2:
            raise ValueError("states must be a 2-d array (steps x modes)")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def head(self, count: int) -> "Trajectory":
        """The first `count` states as a new trajectory."""
        return Trajectory(states=self.states[:count])


class StationarityResult(NamedTuple):
    holds: bool
    j0: int
    norm: float


def covariance_eigenvalues(gamma: float, count: int) -> np.ndarray:
    """(1 + pi^2 j^2)^(-gamma) for j = 1..count, strictly decreasing."""
    j = np.arange(1, count + 1, dtype=float)
    return (1.0 + np.pi**2 * j**2) ** (-gamma)


def build_covariance(params: ModelParams) -> SpectralOperator:
    """Diagonal state covariance in the eigenbasis."""
    return SpectralOperator(np.diag(covariance_eigenvalues(params.gamma, params.modes)), symmetric=True)


def _sine_modes(modes: int, points) -> np.ndarray:
    """The eigenfunctions sqrt(2) sin(j pi t), j = 1..modes, at the points: shape (modes, len(points))."""
    j = np.arange(1, modes + 1)
    return np.sqrt(2.0) * np.sin(np.outer(j, np.pi * np.asarray(points, dtype=float)))


@lru_cache(maxsize=8)
def eigenfunctions_on_grid(modes: int, grid_len: int) -> np.ndarray:
    """Stacked eigenfunctions, shape (modes, grid_len); read-only."""
    phi = _sine_modes(modes, (np.arange(grid_len) + 0.5) / grid_len)
    phi.setflags(write=False)
    return phi


def _mode_distance(modes: int) -> np.ndarray:
    """The band |j - h| of mode indices j, h = 1..modes, as a (modes, modes) float matrix."""
    j = np.arange(1, modes + 1, dtype=float)
    return np.abs(j[:, None] - j)


def build_rho(params: ModelParams) -> SpectralOperator:
    """Autocorrelation matrix: (1+j)^(-1.5) on the diagonal, exp(-|j-h|/W) off it."""
    m = np.exp(-_mode_distance(params.modes) / params.width)
    np.fill_diagonal(m, (1.0 + np.arange(1, params.modes + 1, dtype=float)) ** -1.5)
    return SpectralOperator(m, symmetric=True)


def build_noise_covariance(
    params: ModelParams, covariance: SpectralOperator, rho: SpectralOperator
) -> SpectralOperator:
    """Innovation covariance, repaired to be positive semi-definite.

    The banded formula C_j (1 - rho_jj^2) / exp(-|j-h|^2 / W^2) is indefinite
    once the diagonal decays below the off-diagonal band (which happens for
    every moderately large mode count), so the matrix is repaired by
    clipping negative eigenvalues at zero, the minimal symmetric PSD
    perturbation.  The operator comes back with its square root computed:
    SpectralOperator.sqrt is the one check that the repaired matrix is PSD,
    and its failure is raised as NoiseCovarianceError.
    """
    c_diag = covariance.positive_diagonal
    if rho.dim != covariance.dim:
        raise ValueError("rho and covariance dimensions differ")
    m = np.exp(-_mode_distance(params.modes) ** 2 / params.width**2)
    np.fill_diagonal(m, c_diag * (1.0 - np.diag(rho.matrix) ** 2))

    w, v = np.linalg.eigh(m)
    if w[0] < 0:
        logger.info("innovation covariance indefinite (min eigenvalue %.3e); clipping to PSD", w[0])
        m = (v * np.clip(w, 0.0, None)) @ v.T
        m = 0.5 * (m + m.T)
    noise = SpectralOperator(m, symmetric=True)
    try:
        noise.sqrt
    except ValueError as exc:
        raise NoiseCovarianceError(f"repaired innovation covariance: {exc}") from None
    return noise


def check_stationarity(rho: SpectralOperator, j0_max: int = 10) -> StationarityResult:
    """Find the first power j <= j0_max with spectral norm of rho^j below 1."""
    power = np.eye(rho.dim)
    norm = math.inf
    for j in range(1, j0_max + 1):
        power = power @ rho.matrix
        norm = float(np.linalg.norm(power, 2))
        if norm < 1.0:
            return StationarityResult(True, j, norm)
    return StationarityResult(False, j0_max, norm)


def sample_initial_condition(covariance: SpectralOperator, rng: np.random.Generator) -> np.ndarray:
    """Independent centered Gaussians with variances C_j, truncated at 3 sigma.

    Draws outside three standard deviations are rejected and resampled, so
    the coordinates (hence any norm of the state) are almost surely bounded.
    """
    c_diag = covariance.positive_diagonal
    z = rng.standard_normal(c_diag.size)
    while True:
        bad = np.abs(z) > 3.0
        if not bad.any():
            break
        z[bad] = rng.standard_normal(int(bad.sum()))
    return np.sqrt(c_diag) * z


# Rows of a path's normals that draw_paths draws and maps at a time.  Every
# piece but the last has DRAW_ROWS rows and the last takes the leftover, so
# no piece is shorter than DRAW_ROWS unless the whole block is: OpenBLAS can
# give the product of a few rows other last bits than the same rows of the
# whole block's product.
DRAW_ROWS = 256


def draw_paths(
    noise_cov: SpectralOperator, x0: np.ndarray, rngs: list[np.random.Generator], steps: int
) -> np.ndarray:
    """The draw stage of simulate_paths: the start and the innovations of each path.

    Returns a new (len(rngs), steps + 1, p) array: row 0 of path r holds
    x0[r], and rows 1..steps its innovations eps_1..eps_steps, one
    standard_normal((steps, p)) block drawn from rngs[r] and mapped through
    the symmetric square root of noise_cov.  The block is drawn and mapped
    DRAW_ROWS rows at a time through a scratch of this call's own (a product
    written over its own input makes numpy copy the whole input first), so
    draws in two threads share nothing.  step_paths turns the result into
    states in place.
    """
    x0 = np.asarray(x0, dtype=float)
    count, p = len(rngs), noise_cov.dim
    if x0.shape != (count, p):
        raise ValueError("dimension mismatch between noise_cov, x0 and rngs")
    x = np.empty((count, steps + 1, p))
    x[:, 0] = x0
    edges = [DRAW_ROWS * i for i in range(max(1, steps // DRAW_ROWS))] + [steps]
    normals = np.empty((steps - edges[-2], p))  # the last piece is the longest
    root_t = noise_cov.sqrt.T
    for path, rng in zip(x, rngs):
        for start, stop in zip(edges, edges[1:]):
            piece = normals[: stop - start]
            rng.standard_normal(out=piece)
            np.matmul(piece, root_t, out=path[1 + start : 1 + stop])
    return x


def step_paths(x: np.ndarray, rho: SpectralOperator) -> np.ndarray:
    """The compute stage of simulate_paths: X_i = rho X_{i-1} + eps_i, in place on a draw_paths result.

    Returns x, row i of each path now holding its X_i.  The N = length - 1
    steps run anchor-first in blocks of s = isqrt(N) states.  One gemm per
    path maps each full block's innovations to its zero-start end state
    through the power table of rho (rho.power_table, cached on the
    operator: s p^2 doubles, 1.8 MB at N = 8000, p = 50).  The anchors
    X_s, X_2s, ... then follow from X_0 one block at a time through rho^s,
    and s - 1 stacked products step every block, the tail after the last
    anchor included, forward from its anchor.  A path's states do not
    depend on the other paths in the stack: each product is a per-path gemm
    or gemv, as for a stack of one.
    """
    count, length, p = x.shape
    if rho.dim != p:
        raise ValueError("dimension mismatch between rho and the paths")
    steps = length - 1
    # as row vectors X_i = X_{i-1} @ M + eps_i with M = rho^T
    s = math.isqrt(steps)
    blocks = steps // s
    stack, top = rho.power_table(s)
    # 1. each full block's zero-start end state, sum_j eps_(b-1)s+j @ M^(s-j)
    ends = x[:, 1 : 1 + blocks * s].reshape(count, blocks, s * p) @ stack
    # 2. carry the anchors X_s, X_2s, ... from X_0, one gemv per path
    for b in range(1, blocks + 1):
        x[:, b * s] = (x[:, (b - 1) * s, None] @ top)[:, 0] + ends[:, b - 1]
    # 3. step every block, and the tail after the last anchor, from its anchor
    for m in range(1, s):
        rows = x[:, m::s]
        rows += x[:, m - 1 :: s][:, : rows.shape[1]] @ rho.matrix.T
    return x


def simulate_paths(
    n: int,
    rho: SpectralOperator,
    noise_cov: SpectralOperator,
    x0: np.ndarray,
    rngs: list[np.random.Generator],
    burn_in: int = 0,
) -> np.ndarray:
    """Iterate X_i = rho X_{i-1} + eps_i for i = 1..n on a stack of paths.

    Path r starts from x0[r] and draws its innovations from rngs[r], one
    standard_normal((burn_in + n, p)) block mapped through the symmetric
    square root of noise_cov; the result has shape (len(rngs), n + 1, p),
    row i of path r holding its X_i.  With burn_in > 0 the recursion first
    runs burn_in unrecorded steps from x0, and X_0 is the state reached at
    the end of the burn-in.  This is the two stages composed: draw_paths,
    then step_paths.
    """
    if n < 2:
        raise ValueError("need n >= 2 (downstream estimators require at least two states)")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    return step_paths(draw_paths(noise_cov, x0, rngs, burn_in + n), rho)[:, burn_in:]


def simulate_trajectory(
    n: int,
    rho: SpectralOperator,
    noise_cov: SpectralOperator,
    x0: np.ndarray,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> Trajectory:
    """One path X_0..X_n of the recursion: simulate_paths on a stack of one."""
    return Trajectory(states=simulate_paths(n, rho, noise_cov, np.asarray(x0)[None], [rng], burn_in)[0])


def evaluate_via_spline(x: np.ndarray, coarse_step: float, grid_len: int) -> np.ndarray:
    """Coarse-grid evaluation followed by natural cubic spline interpolation.

    Mimics generating the function on a coarse grid of step ~coarse_step and
    smoothing it back onto the fine dyadic grid; used only in the optional
    spline mode of the experiment harness.  The last axis of x holds the
    eigenbasis coefficients, so a (count, p) stack gives (count, grid_len)
    values.
    """
    from scipy.interpolate import CubicSpline  # imported here: only spline mode needs scipy
    if not 0 < coarse_step < 0.5:
        raise ValueError("coarse_step must lie in (0, 0.5)")
    x = np.asarray(x, dtype=float)
    n_nodes = round(1.0 / coarse_step) + 1
    s = np.linspace(0.0, 1.0, n_nodes)
    coarse = x @ _sine_modes(x.shape[-1], s)
    spline = CubicSpline(s, coarse, axis=-1, bc_type="natural")
    t = (np.arange(grid_len) + 0.5) / grid_len
    return spline(t)


def covariance_kernel_surface(covariance: SpectralOperator, points: np.ndarray) -> np.ndarray:
    """Kernel matrix K[a, b] = sum_j C_j phi_j(points[a]) phi_j(points[b])."""
    c_diag = covariance.positive_diagonal
    phi = _sine_modes(c_diag.size, points)
    return phi.T @ (c_diag[:, None] * phi)


def stationary_covariance(rho: SpectralOperator, noise_cov: SpectralOperator) -> np.ndarray:
    """Solve the discrete Lyapunov equation Sigma = rho Sigma rho^T + noise_cov.

    From 10 modes up scipy's solver takes the bilinear (Bartels-Stewart)
    route, O(p^3) time and O(p^2) memory; smaller systems it solves in the
    p^4-memory Kronecker form.
    """
    from scipy.linalg import solve_discrete_lyapunov  # imported here: only this solve needs scipy
    if noise_cov.dim != rho.dim:
        raise ValueError("dimension mismatch")
    sigma = solve_discrete_lyapunov(rho.matrix, noise_cov.matrix)
    return 0.5 * (sigma + sigma.T)
