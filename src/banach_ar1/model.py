"""Concrete first-order autoregressive model in a spectral sine basis.

The state covariance is diagonal in the Dirichlet eigenbasis of the interval
Laplacian: eigenfunctions sqrt(2) sin(j pi t) on [0, 1] with eigenvalues
pi^2 j^2, so the covariance eigenvalues are (1 + pi^2 j^2)^(-gamma).  The
autocorrelation and innovation-covariance matrices follow the banded forms
(1+j)^(-1.5) / exp(-|j-h|/W) and C_j (1 - rho_jj^2) / exp(-|j-h|^2/W^2).

States live in the truncated eigenbasis as length-p coefficient vectors;
trajectories iterate X_n = rho(X_{n-1}) + eps_n with Gaussian innovations
drawn through the symmetric square root of the innovation covariance.  A
stack of paths is simulated in pieces (stream_paths) of at most PIECE_ROWS
steps, cut at fixed seams, so a path's live memory does not grow with its
length; simulate_trajectory stitches one path's pieces together.  rho is
symmetric, so in its eigenbasis the recursion is p independent scalar AR(1)
recursions.  One loop over the pieces fills each path's normals from its
own generator, maps the whole stack into that basis, steps it there in
blocks of BLOCK states whose anchors are carried from block to block, and
rotates it back to the model basis, one numpy call per stage.  All
randomness flows through an explicit numpy Generator, so identical
parameters and generator state reproduce trajectories bit for bit.
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

# Most doubles (1 GiB) of a modes x grid_len table: the eigenfunctions on the
# grid, or the scoring matrix W.  The default model's hold 102,400.
MAX_TABLE_DOUBLES = 2**27


class NoiseCovarianceError(RuntimeError):
    """Raised when the innovation covariance cannot be repaired to PSD."""


class FieldError(ValueError):
    """Raised by a parameter check; fields names the fields that the check read."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the concrete autoregressive model.

    Every check on these fields is made here, before any array of the model
    exists, and raises a FieldError naming the fields it read;
    ExperimentConfig checks only the sweep around them.  gamma must exceed
    2 * beta_exponent > 1, the decay that the weighted-norm embedding of
    the Gelfand triple needs.  beta_exponent only gates gamma today: no
    command builds the weights it sets (wavelet.make_gelfand_weights).
    """

    gamma: float
    beta_exponent: float
    width: float = 0.4
    modes: int = 50
    grid_len: int = 2048

    def __post_init__(self):
        if (cells := self.modes * self.grid_len) > MAX_TABLE_DOUBLES:  # on ints: no table is built yet
            raise FieldError(f"modes x grid_len = {cells:,} doubles, above {MAX_TABLE_DOUBLES:,}", "modes", "grid_len")
        if not math.inf > self.gamma > 2 * self.beta_exponent > 1:
            raise FieldError(
                f"need gamma > 2*beta_exponent > 1 (so beta_exponent > 1/2) and gamma finite, "
                f"got gamma={self.gamma}, beta_exponent={self.beta_exponent}", "gamma", "beta_exponent",
            )
        if self.grid_len < 2 or self.grid_len & (self.grid_len - 1):
            raise FieldError(f"grid_len must be a power of two, got {self.grid_len}", "grid_len")
        # the sine modes at the grid_len midpoints are the DST-II basis: mode
        # 2 grid_len - j equals mode j there, so higher modes alias
        if not 2 <= self.modes <= self.grid_len:
            raise FieldError(f"modes must lie in [2, grid_len = {self.grid_len}], got {self.modes}", "modes", "grid_len")
        # the innovation covariance divides |j - h|^2, at most (modes - 1)^2, by width**2
        try:
            quotient = (self.modes - 1) ** 2 / self.width**2
        except (OverflowError, ZeroDivisionError):
            quotient = math.inf
        if not (0 < self.width < math.inf and quotient < math.inf):
            raise FieldError(
                f"width must be finite and positive with (modes-1)**2 / width**2 finite, got {self.width}",
                "width", "modes",
            )
        c = covariance_eigenvalues(self.gamma, self.modes + 1)
        if not (c[-1] > 0 and (np.diff(c) < 0).all()):
            raise FieldError(
                f"gamma = {self.gamma} is too large: the covariance eigenvalues (1 + pi^2 j^2)^(-gamma), "
                f"j <= modes + 1, must be positive and strictly decreasing", "gamma", "modes",
            )


class Eigen(NamedTuple):
    """eigh of a symmetric matrix: ascending eigenvalues and the orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


class StepTable(NamedTuple):
    """What stream_paths steps a piece with, for rho = Q diag(lam) Q^T: Q and powers of lam, s = BLOCK.

    basis is Q; values is lam; toeplitz[j, i, m] is lam_j^(m - i) for
    i <= m < s and 0 above, so a row of s innovations of coordinate j times
    toeplitz[j] steps a block from a zero start; ends is its last column,
    shape (p, s, 1), kept contiguous because the batched product runs
    faster from a copy than from a view; jump is lam^s, which carries an
    anchor one block on.
    """

    basis: np.ndarray
    values: np.ndarray
    toeplitz: np.ndarray
    ends: np.ndarray
    jump: np.ndarray


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
    def eigen(self) -> Eigen:
        """The symmetric eigendecomposition, computed once and read-only."""
        # eigh reads one triangle only, so an asymmetric matrix would pass unseen
        if np.abs(self.matrix - self.matrix.T).max() > 1e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return Eigen(w, v)

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Symmetric PSD square root, computed once and read-only; tiny negative eigenvalues become 0."""
        w, v = self.eigen
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
    def step_table(self) -> StepTable:
        """The eigenbasis and the powers of the eigenvalues that stream_paths steps each piece in.

        Computed once from eigen, every table flushed of subnormals and
        read-only: (s^2 + s + 2) p + p^2 doubles, s = BLOCK.
        """
        lam, q = self.eigen
        span = np.arange(BLOCK)
        gaps = span - span[:, None]  # [i, m] = m - i
        toeplitz = _flush_subnormals(np.where(gaps >= 0, lam[:, None, None] ** np.maximum(gaps, 0), 0.0))
        jump = _flush_subnormals(lam**BLOCK)
        tables = StepTable(_flush_subnormals(q.copy()), lam, toeplitz, toeplitz[:, :, BLOCK - 1 :].copy(), jump)
        for table in tables:
            table.setflags(write=False)
        return tables


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


def eigenfunctions_on_grid(modes: int, grid_len: int, coarse_step: float | None = None) -> np.ndarray:
    """Stacked eigenfunctions at the grid_len dyadic midpoints, shape (modes, grid_len).

    With a coarse_step (spline mode), each is the natural cubic spline
    through its values at the round(1 / coarse_step) + 1 uniform nodes.
    """
    midpoints = (np.arange(grid_len) + 0.5) / grid_len
    if coarse_step is None:
        return _sine_modes(modes, midpoints)
    if not 1 / 1024 <= coarse_step < 0.5:
        raise ValueError(f"coarse_step must lie in [1/1024, 0.5), got {coarse_step}")
    return _natural_spline(_sine_modes(modes, np.linspace(0.0, 1.0, round(1.0 / coarse_step) + 1)), midpoints)


def _natural_spline(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each row's natural cubic spline through its values y at the uniform nodes s_i = i h of [0, 1], at the points.

    One dense solve gives the second derivatives m: 0 at both ends, and
    m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) / h^2 inside.
    On [s_i, s_i + h], with b = (t - s_i) / h and a = 1 - b, the spline is
    a y_i + b y_(i+1) + h^2 / 6 ((a^3 - a) m_i + (b^3 - b) m_(i+1)), added
    term by term into the table, so no nodes x points matrix is made.
    """
    nodes = values.shape[1]
    h = 1.0 / (nodes - 1)
    system = 4.0 * np.eye(nodes - 2) + np.eye(nodes - 2, k=1) + np.eye(nodes - 2, k=-1)
    second = np.pad(np.linalg.solve(system, (6.0 / h**2) * np.diff(values, 2).T).T, ((0, 0), (1, 1)))
    left = np.minimum((points * (nodes - 1)).astype(int), nodes - 2)
    b = points * (nodes - 1) - left
    table, term = np.zeros((len(values), len(points))), np.empty((len(values), len(points)))
    for column, weight in ((left, 1.0 - b), (left + 1, b)):  # the interval's left node, then its right one
        table += np.multiply(np.take(values, column, axis=1, out=term), weight, out=term)
        table += np.multiply(np.take(second, column, axis=1, out=term), (weight**3 - weight) * h**2 / 6, out=term)
    return table


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

    noise = SpectralOperator(m)
    w, v = noise.eigen
    if w[0] < 0:
        logger.info("innovation covariance indefinite (min eigenvalue %.3e); clipping to PSD", w[0])
        m = (v * np.clip(w, 0.0, None)) @ v.T
        noise = SpectralOperator(0.5 * (m + m.T))
    try:
        noise.sqrt
    except ValueError as exc:
        raise NoiseCovarianceError(f"repaired innovation covariance: {exc}") from None
    return noise


def check_stationarity(rho: SpectralOperator, j0_max: int = 10) -> StationarityResult:
    """Find the first power j <= j0_max with spectral norm of rho^j below 1.

    rho must be symmetric (rho.eigen), so the norm of rho^j is r^j for its
    spectral radius r: the first power is 1 if r < 1 and none otherwise.
    """
    r = np.abs(rho.eigen.values).max()  # a numpy float, whose power overflows to inf rather than raising
    if r < 1.0:
        return StationarityResult(True, 1, float(r))
    return StationarityResult(False, j0_max, float(r**j0_max))


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


# Steps of a path that stream_paths simulates at a time.  A path is cut at
# every k PIECE_ROWS inside its burn-in and at every burn_in + k PIECE_ROWS
# after it, so no piece has more than PIECE_ROWS steps, the burn-in ends at
# a seam, and a path's live memory is one piece and its stage whatever its
# length.
PIECE_ROWS = 256
# States per block of a piece's steps.  Each block is filled by one s x s
# Toeplitz product per coordinate, and a piece has at most PIECE_ROWS /
# BLOCK = 16 block anchors, carried one after another.
BLOCK = 16


def piece_edges(n: int, burn_in: int = 0) -> Iterator[int]:
    """Where stream_paths cuts a path of burn_in + n steps, made as they are asked for: 0, its seams, burn_in + n."""
    return chain(range(0, burn_in, PIECE_ROWS), range(burn_in, burn_in + n, PIECE_ROWS), (burn_in + n,))


def longest_piece(n: int, burn_in: int = 0) -> int:
    """Steps in the longest piece of piece_edges(n, burn_in), without making the edges."""
    return min(PIECE_ROWS, max(burn_in, n))


def _blocks(steps: int) -> int:
    """Blocks of BLOCK states that _pieces steps a piece of `steps` steps in, the last one zero-padded."""
    return -(-steps // BLOCK)


def _piece_buffers(n: int, burn_in: int, p: int) -> tuple[int, int]:
    """Doubles of one path's row of _pieces' piece buffer, and of its row of the stage buffer."""
    rows = longest_piece(n, burn_in)
    columns = _blocks(rows) * BLOCK
    return p * max(rows + 1, columns), p * columns


def stream_doubles(n: int, burn_in: int, p: int, paths: int) -> int:
    """Doubles a stream_paths call on `paths` paths of p modes keeps alive, besides its p x p draw map.

    Each path's row of the piece buffer (its longest piece and the carried
    state, or its block columns), its row of the stage buffer (the piece's
    normals, then its stepped block columns), its block anchors (a p-row per
    block, at most 16) and its carried start.
    """
    row, stage = _piece_buffers(n, burn_in, p)
    return paths * (row + stage + stage // BLOCK + p)


def _draw_map(rho: SpectralOperator, noise_cov: SpectralOperator) -> np.ndarray:
    """(sqrt(N) Q)^T, rho = Q diag(lam) Q^T: a step's normals to its innovation in Q's basis, subnormals flushed.

    A transpose view of a contiguous sqrt(N) Q, which OpenBLAS runs faster than a contiguous Q^T sqrt(N).
    """
    return _flush_subnormals(noise_cov.sqrt @ rho.step_table.basis).T


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
    reached at the end of the burn-in.  rho must be symmetric: the steps
    run in its eigenbasis.

    Returns an iterator of (states, first) pairs, one for each piece that
    reaches past X_0: states[:, i] holds X_(first + i) of every path, and
    each piece starts with the last state of the one before, so the last
    piece ends at X_n.  The path is cut at piece_edges(n, burn_in), so its
    recorded pieces start at X_0, X_PIECE_ROWS, X_2 PIECE_ROWS, ...; they
    are views of one buffer that the next piece overwrites, and
    stream_doubles counts what the call keeps alive.
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
    """stream_paths' pieces, each drawn, stepped and rotated back as it is asked for.

    With rho = Q diag(lam) Q^T (rho.step_table, O(p s^2) doubles for s =
    BLOCK), Y_i = Q^T X_i follows p scalar recursions Y_i = lam Y_(i-1) +
    e_i, one per coordinate, stepped in blocks of s states.  A piece of
    `steps` steps lives in each path's row of one buffer, first as p rows
    of its steps rounded up to whole blocks (y, time along the last axis),
    then as its steps + 1 states (x), which overwrite y once the stepped y
    is in the stage buffer.  Only the generator fills run path by path;
    every other stage is one numpy call on the stack, whose products are a
    stack of one's per-path gemms, so no path depends on the others.
    """
    p, count = rho.dim, len(rngs)
    basis, lam, toeplitz, ends, jump = rho.step_table
    draw_map = _draw_map(rho, noise_cov)
    row, stage_doubles = _piece_buffers(n, burn_in, p)
    paths = np.empty((count, row))
    stage = np.empty((count, stage_doubles))
    anchor_rows = np.empty(count * stage_doubles // BLOCK)  # a p-row per block of the longest piece and path
    start = x0.copy()
    for first, stop in pairwise(piece_edges(n, burn_in)):
        steps = stop - first
        blocks = _blocks(steps)
        columns = blocks * BLOCK
        y = paths[:, : p * columns].reshape(count, p, columns)
        cells = y.reshape(count, p, blocks, BLOCK)
        stepped = stage[:, : p * columns].reshape(count, p, columns)
        # 1. draw: each path's next `steps` normals into its row of the stage,
        # their innovations into y, and zeros past `steps`, which the block
        # products read (times 0, which NaN survives)
        normals = stage[:, : steps * p].reshape(count, steps, p)
        for path_normals, rng in zip(normals, rngs):
            rng.standard_normal(out=path_normals)
        np.matmul(draw_map, normals.transpose(0, 2, 1), out=y[:, :, :steps])
        y[:, :, steps:] = 0.0
        # 2. anchor b: Y_0, then the zero-start end state of block b - 1
        # (written into the anchor rows), carried one block on into the next
        anchors = anchor_rows[: count * p * blocks].reshape(count, p, blocks, 1)
        anchors[:, :, 0, 0] = (start[:, None] @ basis)[:, 0]
        np.matmul(cells[:, :, :-1], ends, out=anchors[:, :, 1:])
        for b in range(1, blocks):
            anchors[:, :, b] += anchors[:, :, b - 1] * jump[:, None]
        # 3. lam Y_bs joins each block's first innovation, the Toeplitz
        # products fill the stage and the rotation writes x over y
        cells[:, :, :, :1] += lam[:, None, None] * anchors
        np.matmul(cells, toeplitz, out=stepped.reshape(count, p, blocks, BLOCK))
        x = paths[:, : p * (steps + 1)].reshape(count, steps + 1, p)
        np.matmul(stepped[:, :, :steps].transpose(0, 2, 1), basis.T, out=x[:, 1:])
        x[:, 0] = start
        start[...] = x[:, steps]
        if first >= burn_in:
            yield x, first - burn_in


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


def covariance_kernel_surface(covariance: SpectralOperator, points: np.ndarray) -> np.ndarray:
    """Kernel matrix K[a, b] = sum_j C_j phi_j(points[a]) phi_j(points[b])."""
    c_diag = covariance.positive_diagonal
    phi = _sine_modes(c_diag.size, points)
    return phi.T @ (c_diag[:, None] * phi)


def stationary_covariance(rho: SpectralOperator, noise_cov: SpectralOperator) -> np.ndarray:
    """S = rho S rho + N, the covariance of X_i = rho X_(i-1) + eps_i at stationarity, Cov eps_i = N = noise_cov.

    For rho = Q diag(lam) Q^T symmetric (rho.eigen), spectral radius below 1: S = Q ((Q^T N Q) / (1 - lam lam^T)) Q^T.
    """
    lam, q = rho.eigen
    if not np.abs(lam).max() < 1.0:
        raise ValueError(f"rho's spectral radius {np.abs(lam).max():.6f} is not below 1: no stationary covariance")
    sigma = q @ ((q.T @ noise_cov.matrix @ q) / (1.0 - np.outer(lam, lam))) @ q.T
    return 0.5 * (sigma + sigma.T)
