"""Concrete first-order autoregressive model in a spectral sine basis.

The state covariance is diagonal in the Dirichlet eigenbasis of the interval
Laplacian: eigenfunctions sqrt(2) sin(j pi t) on [0, 1] with eigenvalues
pi^2 j^2, so the covariance eigenvalues are (1 + pi^2 j^2)^(-gamma).  The
autocorrelation and innovation-covariance matrices follow the banded forms
(1+j)^(-1.5) / exp(-|j-h|/W) and C_j (1 - rho_jj^2) / exp(-|j-h|^2/W^2).

States live in the truncated eigenbasis as length-p coefficient vectors;
trajectories iterate X_n = rho(X_{n-1}) + eps_n with Gaussian innovations
drawn through the symmetric square root of the innovation covariance.  A
stack of paths is drawn and stepped in pieces (stream_paths) of PIECE_ROWS
to 2 PIECE_ROWS - 1 steps, so a path's live memory does not grow with its
length; simulate_trajectory stitches one path's pieces together.  A piece
is drawn one path at a time through one scratch (draw_paths) and stepped in
blocks of BLOCK states whose anchors come from a log-depth scan
(step_paths), about 22 stacked products a piece whatever the stack's
width.  All randomness flows through an explicit numpy Generator, so
identical parameters and generator state reproduce trajectories bit for
bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise
from typing import Iterator, NamedTuple

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
        if self.grid_len < 2 or self.grid_len & (self.grid_len - 1):
            raise ValueError(f"grid_len must be a power of two, got {self.grid_len}")
        # the sine modes at the grid_len midpoints are the DST-II basis: mode
        # 2 grid_len - j equals mode j there, so higher modes alias
        if not 2 <= self.modes <= self.grid_len:
            raise ValueError(f"modes must lie in [2, grid_len = {self.grid_len}], got {self.modes}")


@dataclass
class SpectralOperator:
    """An operator as a p x p matrix in the model eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"operator matrix must be square, got {self.matrix.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Symmetric PSD square root, computed once and read-only; tiny negative eigenvalues become 0."""
        # eigh reads one triangle only, so an asymmetric matrix would pass unseen
        if np.abs(self.matrix - self.matrix.T).max() > 1e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
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

    @cached_property
    def block_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Powers of M = matrix.T for step_paths: the stack [M^(s-1); ...; M; I] and the jumps, s = BLOCK.

        The stack has shape (s p, p).  The jumps M^(s 2^k), k = 0..JUMPS - 1,
        have shape (JUMPS, p, p), each the square of the one before.  Both
        are computed once, each product flushed of subnormals, and read-only.
        """
        p = self.dim
        a = self.matrix.T
        stack = np.empty((BLOCK * p, p))
        blocks = stack.reshape(BLOCK, p, p)
        blocks[-1] = np.eye(p)
        for k in range(BLOCK - 2, -1, -1):
            _flush_subnormals(np.matmul(blocks[k + 1], a, out=blocks[k]))
        jumps = np.empty((JUMPS, p, p))
        _flush_subnormals(np.matmul(blocks[0], a, out=jumps[0]))
        for k in range(1, JUMPS):
            _flush_subnormals(np.matmul(jumps[k - 1], jumps[k - 1], out=jumps[k]))
        stack.setflags(write=False)
        jumps.setflags(write=False)
        return stack, jumps


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

    def head(self, count: int) -> "Trajectory":
        """The first `count` states as a new trajectory."""
        return Trajectory(states=self.states[:count])


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero a's subnormal entries, which slow every product that reads them, in place; returns a."""
    np.copyto(a, 0.0, where=np.abs(a) < np.finfo(float).tiny)
    return a


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
    return SpectralOperator(np.diag(covariance_eigenvalues(params.gamma, params.modes)))


def _sine_modes(modes: int, points) -> np.ndarray:
    """The eigenfunctions sqrt(2) sin(j pi t), j = 1..modes, at the points: shape (modes, len(points))."""
    j = np.arange(1, modes + 1)
    return np.sqrt(2.0) * np.sin(np.outer(j, np.pi * np.asarray(points, dtype=float)))


def eigenfunctions_on_grid(modes: int, grid_len: int) -> np.ndarray:
    """Stacked eigenfunctions at the grid_len dyadic midpoints, shape (modes, grid_len)."""
    return _sine_modes(modes, (np.arange(grid_len) + 0.5) / grid_len)


def _mode_distance(modes: int) -> np.ndarray:
    """The band |j - h| of mode indices j, h = 1..modes, as a (modes, modes) float matrix."""
    j = np.arange(1, modes + 1, dtype=float)
    return np.abs(j[:, None] - j)


def build_rho(params: ModelParams) -> SpectralOperator:
    """Autocorrelation matrix: (1+j)^(-1.5) on the diagonal, exp(-|j-h|/W) off it, subnormals flushed to 0."""
    m = _flush_subnormals(np.exp(-_mode_distance(params.modes) / params.width))
    np.fill_diagonal(m, (1.0 + np.arange(1, params.modes + 1, dtype=float)) ** -1.5)
    return SpectralOperator(m)


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
    noise = SpectralOperator(m)
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


# Steps of a path that stream_paths draws and steps at a time.  A path is
# cut at every burn_in + k PIECE_ROWS that lies at least PIECE_ROWS steps
# from both of its ends, so each piece has PIECE_ROWS to 2 PIECE_ROWS - 1
# steps unless the path is one piece (fewer than 2 PIECE_ROWS steps after
# the burn-in's leftover burn_in % PIECE_ROWS, so at most 3 PIECE_ROWS - 2),
# and a path's live memory is one piece and its normals whatever its
# length.  A piece is also the slice of normals that one gemm maps through
# the noise root: OpenBLAS can give the product of a few rows other last
# bits than the same rows of a longer product, so no slice is shorter than
# PIECE_ROWS either.
PIECE_ROWS = 256
# States per block of step_paths.  A 511-step piece takes 2 + 2 log2(512 /
# BLOCK) + 2 (BLOCK - 1) stacked products and adds: 22 at 4, against 20 at 2
# (whose scan does more than twice the flops), 28 at 8 and 42 at 16.  In-process sweeps
# on two threads (2 shared cores, medians of 10) ran desk's chunks in 0.57,
# 0.50, 0.50 and 0.49 s at blocks of 2, 4, 8 and 16 and short-many's in 0.40,
# 0.38, 0.38 and 0.39 s, short-many using the least CPU at 4 (0.65 s against
# 0.68 to 0.72 s).
BLOCK = 4
# Jumps M^(BLOCK 2^k) that step_paths' anchor scan needs for the longest piece,
# 3 PIECE_ROWS - 2 steps: one round per power of two below its anchor count.
JUMPS = ((3 * PIECE_ROWS - 2) // BLOCK).bit_length()


def piece_edges(n: int, burn_in: int = 0) -> Iterator[int]:
    """Where stream_paths cuts a path of burn_in + n steps, made as they are asked for: 0, its seams, burn_in + n."""
    steps = burn_in + n
    return chain((0,), range(PIECE_ROWS + burn_in % PIECE_ROWS, steps - PIECE_ROWS + 1, PIECE_ROWS), (steps,))


def longest_piece(n: int, burn_in: int = 0) -> int:
    """Steps in the longest piece of piece_edges(n, burn_in), the first or the last, without making the edges."""
    steps = burn_in + n
    first = PIECE_ROWS + burn_in % PIECE_ROWS
    if steps < first + PIECE_ROWS:
        return steps
    return max(first, PIECE_ROWS + (steps - first) % PIECE_ROWS)


def draw_paths(
    noise_cov: SpectralOperator, x: np.ndarray, rngs: list[np.random.Generator], normals: np.ndarray
) -> np.ndarray:
    """The draw stage of a piece: the next innovations of each path, in place.

    x has shape (len(rngs), steps + 1, p).  Row 0 of each path, its carried
    state, is left as it is; rows 1..steps of path r receive its next
    `steps` innovations: a standard_normal((steps, p)) block drawn from
    rngs[r] into normals and mapped through the symmetric square root of
    noise_cov in one gemm.  The paths are drawn and mapped in turn through
    the one scratch normals, of shape (steps, p): a product written over
    its own input would make numpy copy the whole input first.  Returns x;
    step_paths turns it into states.
    """
    count, length, p = x.shape
    if count != len(rngs) or p != noise_cov.dim or normals.shape != (length - 1, p):
        raise ValueError("dimension mismatch between noise_cov, the paths, rngs and normals")
    root = noise_cov.sqrt.T
    for path, rng in zip(x, rngs):
        rng.standard_normal(out=normals)
        np.matmul(normals, root, out=path[1:])
    return x


def step_paths(x: np.ndarray, rho: SpectralOperator) -> np.ndarray:
    """The step stage of a piece: X_i = rho X_{i-1} + eps_i, in place on a draw_paths result.

    Returns x, row i of each path now holding its X_i.  The steps run
    anchor-first in blocks of s = BLOCK states, with the powers of rho
    cached on the operator (rho.block_table: (BLOCK + JUMPS) p^2 doubles,
    0.24 MB at p = 50).  One gemm per path maps each full block's
    innovations to its zero-start end state.  A Hillis-Steele scan then
    turns X_0 and the end states into the anchors X_0, X_s, X_2s, ...: in
    round k every anchor adds the one 2^k blocks before it, carried through
    M^(s 2^k), so a piece of at most 3 PIECE_ROWS - 2 steps takes at most
    JUMPS rounds (7 for the 511 steps of a piece after a cut).  Last, s - 1
    stacked products step every block, the tail after the last anchor
    included, forward from its anchor; a piece shorter than one block is
    all tail.  A path's states do not depend on the other paths in the
    stack: each product is a per-path gemm or gemv, as for a stack of one.
    """
    count, length, p = x.shape
    if rho.dim != p:
        raise ValueError("dimension mismatch between rho and the paths")
    # as row vectors X_i = X_{i-1} @ M + eps_i with M = rho^T
    s = BLOCK
    blocks = (length - 1) // s
    stack, jumps = rho.block_table
    rounds = blocks.bit_length()  # the strides 1, 2, 4, ... below the anchor count blocks + 1
    if rounds > JUMPS:
        raise ValueError(f"a piece of {length - 1} steps needs more than the {JUMPS} jumps of rho.block_table")
    # 1. each full block's zero-start end state, sum_j eps_(b-1)s+j @ M^(s-j),
    # written over the innovation it ends with
    anchors = x[:, : blocks * s + 1 : s]
    anchors[:, 1:] = x[:, 1 : 1 + blocks * s].reshape(count, blocks, s * p) @ stack
    # 2. scan: anchor b gets X_0 and every end state before it, carried to it
    for k in range(rounds):
        d = 1 << k
        anchors[:, d:] += anchors[:, :-d] @ jumps[k]
    # 3. step every block, and the tail after the last anchor, from its anchor:
    # row m + 1 of each block from its row m
    inputs, outputs = x[:, :-1], x[:, 1:]
    step = rho.matrix.T
    for m in range(min(s, length) - 1):
        rows = outputs[:, m::s]
        rows += inputs[:, m::s] @ step
    return x


def stream_paths(
    n: int,
    rho: SpectralOperator,
    noise_cov: SpectralOperator,
    x0: np.ndarray,
    rngs: list[np.random.Generator],
    burn_in: int = 0,
) -> Iterator[tuple[np.ndarray, int]]:
    """Iterate X_i = rho X_{i-1} + eps_i for i = 1..n on a stack of paths, one piece at a time.

    Path r starts from x0[r] and draws its innovations from rngs[r], one
    standard_normal((burn_in + n, p)) block in step order mapped through
    the symmetric square root of noise_cov.  With burn_in > 0 the recursion
    first runs burn_in unrecorded steps from x0, and X_0 is the state
    reached at the end of the burn-in.

    Returns an iterator of (states, first) pairs, one for each piece that
    reaches past X_0: states[:, i] holds X_(first + i) of every path, and
    each piece starts with the last state of the one before, so the last
    piece ends at X_n.  The pieces are views of one buffer, the longest
    piece's rows of every path, that the next piece overwrites; one normals
    scratch, the longest piece's rows of one path, serves every draw.  The
    path is cut at piece_edges(n, burn_in): at every burn_in + k PIECE_ROWS
    that lies at least PIECE_ROWS steps from both ends, so its recorded
    pieces start at X_0, X_PIECE_ROWS, X_2 PIECE_ROWS, ... and the last one
    takes any leftover shorter than PIECE_ROWS.  Every piece runs draw_paths on the
    whole stack, then step_paths.
    """
    if n < 2:
        raise ValueError("need n >= 2 (downstream estimators require at least two states)")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(rngs), rho.dim) or noise_cov.dim != rho.dim:
        raise ValueError("dimension mismatch between rho, noise_cov, x0 and rngs")
    return _pieces(n, rho, noise_cov, x0, rngs, burn_in)


def _pieces(
    n: int,
    rho: SpectralOperator,
    noise_cov: SpectralOperator,
    x0: np.ndarray,
    rngs: list[np.random.Generator],
    burn_in: int,
) -> Iterator[tuple[np.ndarray, int]]:
    """stream_paths' pieces, drawn and stepped as they are asked for."""
    rows = longest_piece(n, burn_in)
    x = np.empty((len(rngs), rows + 1, rho.dim))
    normals = np.empty((rows, rho.dim))
    x[:, 0] = x0
    length = 0
    for start, stop in pairwise(piece_edges(n, burn_in)):
        if length:
            x[:, 0] = x[:, length]  # carry the last state into the next piece
        length = stop - start
        piece = step_paths(draw_paths(noise_cov, x[:, : length + 1], rngs, normals[:length]), rho)
        if stop > burn_in:
            skip = max(0, burn_in - start)
            yield piece[:, skip:], start + skip - burn_in


def simulate_trajectory(
    n: int,
    rho: SpectralOperator,
    noise_cov: SpectralOperator,
    x0: np.ndarray,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> Trajectory:
    """One path X_0..X_n of the recursion: the pieces of stream_paths on a stack of one, stitched together."""
    pieces = stream_paths(n, rho, noise_cov, np.asarray(x0)[None], [rng], burn_in)
    states = np.empty((n + 1, rho.dim))
    for piece, first in pieces:
        states[first : first + piece.shape[1]] = piece[0]
    return Trajectory(states=states)


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
