"""Periodized Daubechies wavelets on a dyadic grid of [0, 1].

Provides the orthonormal scaling filters, the forward/inverse discrete
wavelet transform (pyramid algorithm with periodic boundary), and the
function-space norms computed from wavelet coefficients: the sup norm over
coefficients, the l1 norm, and the weighted l2 norms built from a positive
weight sequence.  Coefficients are plain arrays in dwt_forward's dyadic
layout; each norm reduces over the last axis, so it takes one vector or a
stack of them.

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

from .model import FieldError

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
            raise FieldError(f"wavelet order must lie in 1..{MAX_FILTER_ORDER}, got {self.order}", "order")
        if self.coarse_level < 1:
            raise FieldError("coarse_level must be >= 1", "coarse_level")
        if self.max_level < 1:
            raise FieldError(
                f"a wavelet basis needs grid_len >= 4, a detail level of at least 1, got {self.grid_len}", "max_level"
            )
        if self.max_level < self.coarse_level:
            raise FieldError(
                f"coarse_level must be <= {self.max_level}, the finest detail level of a grid of "
                f"{self.grid_len} points, got {self.coarse_level}", "max_level", "coarse_level",
            )

    @property
    def grid_len(self) -> int:
        return 2 ** (self.max_level + 1)

    @property
    def levels(self) -> range:
        """Detail levels carried by a coefficient set, coarse to fine."""
        return range(self.coarse_level, self.max_level + 1)


@dataclass
class GelfandWeights:
    """Positive weights t that sum to 1, one per position of the dyadic coefficient layout.

    Before normalization the weights are 2^-J on the scaling block and
    (2^(2b) - 1) * 2^(-2b(1-J)) * 2^(-2jb) on detail level j, where
    b = beta_exponent > 1/2 guarantees a summable sequence.
    """

    spec: WaveletBasisSpec
    beta_exponent: float
    t: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if self.t.shape != (self.spec.grid_len,):
            raise ValueError(f"expected {self.spec.grid_len} weights, got shape {self.t.shape}")
        # written as "not > 0" so that a NaN fails too
        if not (self.t > 0).all():
            raise ValueError("all weights must be strictly positive")
        if abs(self.t.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.t.sum()!r}")


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
    # Roots y_i of P(y) = sum_k C(order-1+k, k) y^k, then each maps to the
    # root of z^2 - (2 - 4y) z + 1 = 0 inside the unit circle.  Factoring
    # the low-degree P first keeps the construction well-conditioned up to
    # order 10 and beyond.  Order 1 has no root: Haar, sqrt(2)/2 twice.
    p_coeffs = [math.comb(order - 1 + k, k) for k in range(order)]
    h = np.array([1.0 + 0j])
    for _ in range(order):
        h = np.convolve(h, [1.0, 1.0])
    for y in np.roots(p_coeffs[::-1]):
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


def dwt_forward(samples: np.ndarray, spec: WaveletBasisSpec) -> np.ndarray:
    """Decompose dyadic-grid samples into periodized wavelet coefficients.

    The samples are function values at the L = 2^(M+1) dyadic midpoints;
    they are scaled by 2^(-(M+1)/2) so that the orthonormal discrete
    transform yields coefficients on the integral-normalized basis.  Energy
    is preserved: the squared coefficients sum to the squared scaled
    samples.

    Returns the L coefficients in the dyadic layout: the 2^J scaling
    coefficients at [0, 2^J), then level j's 2^j details at [2^j, 2^(j+1)),
    j = J..M.
    """
    samples = np.asarray(samples, dtype=float)
    L = spec.grid_len
    if samples.ndim != 1 or samples.size != L:
        raise ValueError(f"expected {L} samples (a power of two, 2^(max_level+1)), got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    h, g = _filter_pair(spec.order)
    values = np.empty(L)
    approx = samples * 2.0 ** (-(spec.max_level + 1) / 2.0)
    while approx.size > 2**spec.coarse_level:
        windows = approx[_periodic_index(approx.size, h.size)]
        values[approx.size // 2 : approx.size] = windows @ g
        approx = windows @ h
    values[: approx.size] = approx
    return values


def coefficient_matrix(rows: np.ndarray, spec: WaveletBasisSpec) -> np.ndarray:
    """Row i holds dwt_forward(rows[i], spec), each row transformed on its own.

    The rows are written into one preallocated matrix, so building it holds
    no second copy of the coefficients.
    """
    w = np.empty((len(rows), spec.grid_len))
    for out, row in zip(w, rows):
        out[:] = dwt_forward(row, spec)
    return w


def dwt_inverse(values: np.ndarray, spec: WaveletBasisSpec) -> np.ndarray:
    """Reconstruct dyadic-grid samples from dyadic-layout coefficients; exact left inverse of dwt_forward."""
    values = np.asarray(values, dtype=float)
    if values.shape != (spec.grid_len,):
        raise ValueError(f"expected {spec.grid_len} coefficients, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("wavelet coefficients must be finite")
    h, g = _filter_pair(spec.order)
    approx = values[: 2**spec.coarse_level]
    while approx.size < spec.grid_len:
        detail = values[approx.size : 2 * approx.size]
        out = np.zeros(2 * approx.size)
        # the adjoint of dwt_forward's gather: row k scatters back to (2k + i) mod size
        np.add.at(out, _periodic_index(out.size, h.size), approx[:, None] * h + detail[:, None] * g)
        approx = out
    return approx * 2.0 ** ((spec.max_level + 1) / 2.0)


def _per_vector(norms: np.ndarray) -> float | np.ndarray:
    """A float for one vector's norm, the array for a stack's."""
    return float(norms) if norms.ndim == 0 else norms


def besov_sup_norm(values: np.ndarray) -> float | np.ndarray:
    """Sup over the coefficient magnitudes of each vector along the last axis: the B^0_{inf,inf} norm."""
    return _per_vector(np.abs(values).max(axis=-1))


def besov_l1_norm(values: np.ndarray) -> float | np.ndarray:
    """Sum of the coefficient magnitudes of each vector along the last axis: the B^0_{1,1} norm."""
    return _per_vector(np.abs(values).sum(axis=-1))


def make_gelfand_weights(spec: WaveletBasisSpec, beta_exponent: float) -> GelfandWeights:
    """The weights of the weighted l2 norms, divided by their total to sum to 1, as Kuelbs' lemma builds them.

    beta_exponent must exceed 1/2, otherwise the weight sequence is not
    summable over levels.  The unit sum makes the norm chain
    direct <= sup <= flat <= l1 <= dual hold with all constants equal to 1.
    """
    if beta_exponent <= 0.5:
        raise ValueError("beta_exponent must be > 1/2 for a summable weight sequence")
    J = spec.coarse_level
    t = np.empty(spec.grid_len)
    t[: 2**J] = 2.0**-J
    factor = (2.0 ** (2 * beta_exponent) - 1.0) * 2.0 ** (-2 * beta_exponent * (1 - J))
    for j in spec.levels:
        t[2**j : 2 ** (j + 1)] = factor * 2.0 ** (-2 * j * beta_exponent)
    return GelfandWeights(spec=spec, beta_exponent=beta_exponent, t=t / t.sum())


_NORM_MODES = ("direct", "dual", "flat")


def weighted_norm(values: np.ndarray, weights: GelfandWeights, mode: str) -> float | np.ndarray:
    """Weighted l2 norm of each coefficient vector along the last axis.

    direct: sqrt(sum t c^2)   - the weak (negative-order) norm
    dual:   sqrt(sum c^2 / t) - the strong (positive-order) norm
    flat:   sqrt(sum c^2)     - the plain l2 norm (weights ignored)
    """
    if mode not in _NORM_MODES:
        raise ValueError(f"mode must be one of {_NORM_MODES}, got {mode!r}")
    c = np.asarray(values, dtype=float)
    if c.shape[-1:] != weights.t.shape:
        raise ValueError(f"expected vectors of {weights.t.size} coefficients, one per weight, got shape {c.shape}")
    if mode == "flat":
        return _per_vector(np.sqrt(np.sum(c * c, axis=-1)))
    if mode == "direct":
        return _per_vector(np.sqrt(np.sum(weights.t * c * c, axis=-1)))
    return _per_vector(np.sqrt(np.sum(c * c / weights.t, axis=-1)))
