"""Periodized Daubechies wavelets on a dyadic grid of [0, 1].

Provides the orthonormal scaling filters, the forward/inverse discrete
wavelet transform (pyramid algorithm with periodic boundary), and the
function-space norms computed from wavelet coefficients: the sup norm over
coefficients, the l1 norm, and the weighted l2 norms built from a positive
weight sequence.

Conventions
-----------
A function f on [0, 1] is represented by its values at the dyadic midpoints
t_i = (i + 1/2) / L with L = 2^(M+1).  The forward transform multiplies the
samples by 2^(-(M+1)/2) before applying the orthonormal discrete pyramid, so
that the resulting coefficients approximate the integrals of f against the
L2-normalized scaling/wavelet functions.  Periodization keeps the discrete
transform exactly orthogonal at every level, at the price of boundary
coefficients that differ from an interval-adapted construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_FILTER_ORDER = 10


@dataclass(frozen=True)
class WaveletBasisSpec:
    """Parameters of the periodized wavelet basis (periodic boundary only).

    order
        Number of vanishing moments of the Daubechies family (filter has
        2 * order taps).
    coarse_level
        Coarsest resolution J; the transform keeps 2^J scaling coefficients.
    max_level
        Finest detail level M; input signals have length 2^(M+1).
    """

    order: int
    coarse_level: int
    max_level: int

    def __post_init__(self):
        if not 1 <= self.order <= MAX_FILTER_ORDER:
            raise ValueError(f"wavelet order must lie in 1..{MAX_FILTER_ORDER}, got {self.order}")
        if self.coarse_level < 1:
            raise ValueError("coarse_level must be >= 1")
        if self.max_level < self.coarse_level:
            raise ValueError("max_level must be >= coarse_level")

    @property
    def grid_len(self) -> int:
        return 2 ** (self.max_level + 1)

    @property
    def levels(self) -> range:
        """Detail levels carried by a coefficient set, coarse to fine."""
        return range(self.coarse_level, self.max_level + 1)


@dataclass
class WaveletCoeffs:
    """A function in the wavelet domain.

    alpha holds the 2^J scaling coefficients; beta[i] holds the 2^(J+i)
    detail coefficients of level J+i, for levels J..M.
    """

    spec: WaveletBasisSpec
    alpha: np.ndarray
    beta: list[np.ndarray]

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = [np.asarray(b, dtype=float) for b in self.beta]
        J, M = self.spec.coarse_level, self.spec.max_level
        if self.alpha.shape != (2**J,):
            raise ValueError(f"alpha must have 2^{J} = {2**J} entries, got {self.alpha.shape}")
        if len(self.beta) != M - J + 1:
            raise ValueError(f"expected {M - J + 1} detail levels, got {len(self.beta)}")
        for i, b in enumerate(self.beta):
            j = J + i
            if b.shape != (2**j,):
                raise ValueError(f"detail level {j} must have 2^{j} = {2**j} entries, got {b.shape}")
        if not np.isfinite(self.alpha).all() or not all(np.isfinite(b).all() for b in self.beta):
            raise ValueError("wavelet coefficients must be finite")

    def level(self, j: int) -> np.ndarray:
        """Detail coefficients of level j."""
        return self.beta[j - self.spec.coarse_level]

    def flatten(self) -> np.ndarray:
        """All coefficients as one vector, alpha first, then levels J..M."""
        return np.concatenate([self.alpha, *self.beta])


@dataclass
class GelfandWeights:
    """Positive weights attached to each wavelet coefficient position.

    The raw weights are 2^-J on the scaling block and
    (2^(2b) - 1) * 2^(-2b(1-J)) * 2^(-2jb) on detail level j, where
    b = beta_exponent > 1/2 guarantees a summable sequence.  When
    renormalized, all weights are divided by their total so they sum to 1;
    total_mass records the pre-normalization sum either way.
    """

    spec: WaveletBasisSpec
    beta_exponent: float
    t_alpha: np.ndarray
    t_beta: list[np.ndarray]
    renormalized: bool
    total_mass: float

    def __post_init__(self):
        self.t_alpha = np.asarray(self.t_alpha, dtype=float)
        self.t_beta = [np.asarray(b, dtype=float) for b in self.t_beta]
        if (self.t_alpha <= 0).any() or any((b <= 0).any() for b in self.t_beta):
            raise ValueError("all weights must be strictly positive")
        if self.total_mass <= 0:
            raise ValueError("total_mass must be positive")
        if self.renormalized:
            total = self.t_alpha.sum() + sum(b.sum() for b in self.t_beta)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"renormalized weights must sum to 1, got {total!r}")

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.t_alpha, *self.t_beta])


def daubechies_filter(order: int) -> np.ndarray:
    """Orthonormal Daubechies scaling filter with `order` vanishing moments.

    Built by spectral factorization of the Daubechies polynomial, keeping
    the roots inside the unit circle (the extremal-phase filter matching
    the standard published coefficient tables).  The result has 2 * order
    taps, sums to sqrt(2), and is orthonormal to its even translates.
    """
    if not 1 <= order <= MAX_FILTER_ORDER:
        raise ValueError(f"unsupported wavelet order {order}; supported range is 1..{MAX_FILTER_ORDER}")
    return _filter_pair(order)[0].copy()


@lru_cache(maxsize=None)
def _filter_pair(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(low-pass h, high-pass g) filters; arrays are read-only."""
    if order == 1:
        h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    else:
        # Roots y_i of P(y) = sum_k C(order-1+k, k) y^k, then each maps to
        # the root of z^2 - (2 - 4y) z + 1 = 0 inside the unit circle.
        # Factoring the low-degree P first keeps the construction
        # well-conditioned up to order 10 and beyond.
        p_coeffs = [math.comb(order - 1 + k, k) for k in range(order)]
        y_roots = np.roots(p_coeffs[::-1])
        h = np.array([1.0 + 0j])
        for _ in range(order):
            h = np.convolve(h, [1.0, 1.0])
        for y in y_roots:
            b = 2.0 - 4.0 * y
            disc = np.sqrt(b * b - 4.0 + 0j)
            z = (b + disc) / 2.0
            if abs(z) >= 1.0:
                z = (b - disc) / 2.0
            h = np.convolve(h, [1.0, -z])
        h = np.real(h)
        h *= math.sqrt(2.0) / h.sum()
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    h.setflags(write=False)
    g.setflags(write=False)
    return h, g


@lru_cache(maxsize=32)
def _periodic_index(length: int, taps: int) -> np.ndarray:
    """Index matrix (length//2, taps): row k selects (2k + i) mod length; read-only."""
    idx = (2 * np.arange(length // 2)[:, None] + np.arange(taps)[None, :]) % length
    idx.setflags(write=False)
    return idx


def dwt_forward(samples: np.ndarray, spec: WaveletBasisSpec) -> WaveletCoeffs:
    """Decompose dyadic-grid samples into periodized wavelet coefficients.

    The samples are function values at the L = 2^(M+1) dyadic midpoints;
    they are scaled by 2^(-(M+1)/2) so that the orthonormal discrete
    transform yields coefficients on the integral-normalized basis.  Energy
    is preserved: the squared coefficients sum to the squared scaled
    samples.
    """
    samples = np.asarray(samples, dtype=float)
    L = spec.grid_len
    if samples.ndim != 1 or samples.size != L:
        raise ValueError(
            f"expected {L} samples (a power of two, 2^(max_level+1)), got shape {samples.shape}"
        )
    if samples.size < 2 ** (spec.coarse_level + 1):
        raise ValueError("signal shorter than 2^(coarse_level+1)")
    h, g = _filter_pair(spec.order)
    approx = samples * 2.0 ** (-(spec.max_level + 1) / 2.0)
    details: list[np.ndarray] = []
    while approx.size > 2**spec.coarse_level:
        idx = _periodic_index(approx.size, h.size)
        windows = approx[idx]
        details.append(windows @ g)
        approx = windows @ h
    details.reverse()
    return WaveletCoeffs(spec=spec, alpha=approx, beta=details)


def coefficient_matrix(rows: np.ndarray, spec: WaveletBasisSpec) -> np.ndarray:
    """Row i holds the flattened dwt_forward coefficients of rows[i], each transformed on its own.

    The rows are written into one preallocated matrix, so building it holds
    no second copy of the coefficients.
    """
    w = np.empty((len(rows), spec.grid_len))
    for out, row in zip(w, rows):
        out[:] = dwt_forward(row, spec).flatten()
    return w


def dwt_inverse(coeffs: WaveletCoeffs) -> np.ndarray:
    """Reconstruct dyadic-grid samples; exact left inverse of dwt_forward."""
    spec = coeffs.spec
    h, g = _filter_pair(spec.order)
    approx = coeffs.alpha
    for detail in coeffs.beta:
        if detail.size != approx.size:
            raise ValueError("detail level size does not match pyramid state")
        L = 2 * approx.size
        out = np.zeros(L)
        base = 2 * np.arange(approx.size)
        for i in range(h.size):
            np.add.at(out, (base + i) % L, h[i] * approx + g[i] * detail)
        approx = out
    return approx * 2.0 ** ((spec.max_level + 1) / 2.0)


def besov_sup_norm(coeffs: WaveletCoeffs) -> float:
    """Sup over all coefficient magnitudes: the B^0_{inf,inf} norm."""
    m = float(np.abs(coeffs.alpha).max()) if coeffs.alpha.size else 0.0
    for b in coeffs.beta:
        m = max(m, float(np.abs(b).max()))
    return m


def besov_l1_norm(coeffs: WaveletCoeffs) -> float:
    """Sum of all coefficient magnitudes: the B^0_{1,1} norm."""
    total = float(np.abs(coeffs.alpha).sum())
    for b in coeffs.beta:
        total += float(np.abs(b).sum())
    return total


def make_gelfand_weights(
    spec: WaveletBasisSpec, beta_exponent: float, renormalize: bool = True
) -> GelfandWeights:
    """Build the coefficient weight sequence for the weighted l2 norms.

    beta_exponent must exceed 1/2, otherwise the weight sequence is not
    summable over levels and the weighted-norm embedding fails.

    With renormalize (the default) the weights are divided by their total
    so they sum to exactly 1, which makes the norm chain
    direct <= sup <= flat <= l1 <= dual hold with all constants equal to 1.
    The raw total is recorded in total_mass so the unnormalized scaling
    remains recoverable.
    """
    if beta_exponent <= 0.5:
        raise ValueError("beta_exponent must be > 1/2 for a summable weight sequence")
    J = spec.coarse_level
    t_alpha = np.full(2**J, 2.0**-J)
    factor = (2.0 ** (2 * beta_exponent) - 1.0) * 2.0 ** (-2 * beta_exponent * (1 - J))
    t_beta = [
        np.full(2**j, factor * 2.0 ** (-2 * j * beta_exponent)) for j in spec.levels
    ]
    total = float(t_alpha.sum() + sum(b.sum() for b in t_beta))
    if renormalize:
        t_alpha = t_alpha / total
        t_beta = [b / total for b in t_beta]
    return GelfandWeights(
        spec=spec,
        beta_exponent=beta_exponent,
        t_alpha=t_alpha,
        t_beta=t_beta,
        renormalized=renormalize,
        total_mass=total,
    )


_NORM_MODES = ("direct", "dual", "flat")


def weighted_norm(coeffs: WaveletCoeffs, weights: GelfandWeights, mode: str) -> float:
    """Weighted l2 norm of the coefficients.

    direct: sqrt(sum t c^2)   - the weak (negative-order) norm
    dual:   sqrt(sum c^2 / t) - the strong (positive-order) norm
    flat:   sqrt(sum c^2)     - the plain l2 norm (weights ignored)
    """
    if mode not in _NORM_MODES:
        raise ValueError(f"mode must be one of {_NORM_MODES}, got {mode!r}")
    if coeffs.spec != weights.spec:
        raise ValueError("coefficients and weights were built for different bases")
    c = coeffs.flatten()
    if mode == "flat":
        return float(np.sqrt(np.sum(c * c)))
    t = weights.flatten()
    if mode == "direct":
        return float(np.sqrt(np.sum(t * c * c)))
    return float(np.sqrt(np.sum(c * c / t)))
