"""Consistency diagnostics and Monte Carlo aggregation.

Computes the quantities that certify (or fail to certify) estimator
consistency for a given spectrum and sample size: the inverse-gap constants,
the truncation-rate ratio, the exceedance bound for prediction errors, the
trace/embedding sums for the eigenfunction family, and the tabulations of
replicated experiment results (exceedance proportions and empirical MSE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .estimation import EstimatorState
from .wavelet import WaveletBasisSpec, coefficient_matrix


@dataclass
class ConsistencyReport:
    """Consistency-certificate quantities for one sample size.

    mode records whether the spectrum behind lambda/a_sum/ratio/xi is the
    known model spectrum ("true") or an empirical estimate ("empirical");
    run_experiment reports only the known spectrum, so it is always "true"
    today.
    """

    n: int
    k_n: int
    lambda_kn: float
    a_sum: float
    ratio: float
    xi: float
    trace_sum: float
    n_sup: float
    v_sup: float
    mode: str

    def __post_init__(self):
        fields = (self.lambda_kn, self.a_sum, self.ratio, self.xi, self.trace_sum, self.n_sup, self.v_sup)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("all report fields must be finite")
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie in (0, 1), got {self.xi!r}")


@dataclass
class ExperimentResult:
    """One replication's prediction error and its exceedance bound."""

    n: int
    replication: int
    error_b: float
    xi: float

    @property
    def exceeded(self) -> bool:
        return self.error_b > self.xi

    @property
    def squared_error_b(self) -> float:
        return self.error_b**2


def _checked_spectrum(k_n: int, c_values, a_values) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and gap coefficients as float arrays, checked to hold at least k_n >= 1 entries each."""
    if k_n < 1:
        raise ValueError("need k_n >= 1")
    c_values = np.asarray(c_values, dtype=float)
    a_values = np.asarray(a_values, dtype=float)
    if a_values.size < k_n or c_values.size < k_n:
        raise ValueError("need at least k_n eigenvalues and gap coefficients")
    return c_values, a_values


def consistency_ratio(n: float, k_n: int, c_values: np.ndarray, a_values: np.ndarray) -> float:
    """(k_n / C_{k_n}) * sum(a_j) divided by sqrt(n / ln n).

    The estimator is strongly consistent when this ratio vanishes as the
    sample grows; plotting it over n makes the truncation-rate condition
    inspectable.
    """
    c_values, a_values = _checked_spectrum(k_n, c_values, a_values)
    if n <= 1:
        raise ValueError("need n > 1 so that ln(n) > 0")
    numerator = k_n / float(c_values[k_n - 1]) * float(a_values[:k_n].sum())
    return numerator / math.sqrt(n / math.log(n))


def exceedance_bound(n: float, k_n: int, c_values: np.ndarray, a_values: np.ndarray) -> float:
    """exp(-n / (C_{k_n}^-2 k_n^2 (sum a_j)^2)), clamped into open (0, 1).

    Prediction errors above this bound count as exceedances; the clamping
    only matters when the exact value would round to a closed endpoint in
    floating point.
    """
    c_values, a_values = _checked_spectrum(k_n, c_values, a_values)
    q = (1.0 / c_values[k_n - 1]) ** 2 * k_n**2 * float(a_values[:k_n].sum()) ** 2
    xi = math.exp(-n / q)
    return min(max(xi, math.ulp(0.0)), np.nextafter(1.0, 0.0))


def exceedance_table(results: Iterable[ExperimentResult]) -> list[tuple[int, int, int, float]]:
    """Rows (n, total, exceeded, proportion), ascending in n.

    total and exceeded give the proportion as an exact fraction; the last
    column is its decimal value.
    """
    rows = []
    for n, group in _groups_by_n(results):
        exceeded = sum(r.exceeded for r in group)
        rows.append((n, len(group), exceeded, exceeded / len(group)))
    return rows


def empirical_mse_curve(results: Iterable[ExperimentResult]) -> list[tuple[int, float, float]]:
    """Rows (n, mean squared error, n^(-1/4) reference), ascending in n.

    The reference column is emitted as data for visual comparison, not
    asserted as a fit.
    """
    return [
        (n, float(np.mean([r.squared_error_b for r in group])), n**-0.25) for n, group in _groups_by_n(results)
    ]


def _groups_by_n(results: Iterable[ExperimentResult]) -> list[tuple[int, list[ExperimentResult]]]:
    """(n, the results of size n in their given order), ascending in n; raises ValueError when empty."""
    groups: dict[int, list[ExperimentResult]] = {}
    for r in results:
        groups.setdefault(r.n, []).append(r)
    if not groups:
        raise ValueError("no results to tabulate")
    return sorted(groups.items())


class TraceReport(NamedTuple):
    trace_sum: float
    n_sup: float
    v_sup: float


def trace_embedding_report(eigvecs_on_grid: np.ndarray, spec: WaveletBasisSpec) -> TraceReport:
    """Trace and embedding sums of the eigenfunction family, truncated at p modes.

    trace_sum is the sum over modes of the squared l2 norm of each
    eigenfunction's wavelet coefficients; n_sup is the largest, over
    coefficient positions, of the squared coefficients summed across modes;
    v_sup is the largest sup-norm of any single mode's coefficients.  All
    three are finite-truncation surrogates for trace-class/embedding sums
    (p modes, detail levels up to the spec's maximum).
    """
    eigvecs_on_grid = np.asarray(eigvecs_on_grid, dtype=float)
    if eigvecs_on_grid.ndim != 2 or eigvecs_on_grid.shape[1] != spec.grid_len:
        raise ValueError("eigvecs_on_grid must be (modes, grid_len)")
    return _trace_sums(coefficient_matrix(eigvecs_on_grid, spec))


def _trace_sums(w: np.ndarray) -> TraceReport:
    """The trace_embedding_report sums of a (modes, coefficients) matrix w, which is left as it is."""
    squared = w * w
    return TraceReport(
        trace_sum=float(squared.sum()), n_sup=float(squared.sum(axis=0).max()), v_sup=float(max(w.max(), -w.min()))
    )


def eigen_decay_report(state: EstimatorState) -> list[tuple[int, float]]:
    """(j, empirical eigenvalue j) for the retained positions j = 1..k_n."""
    return [(j + 1, float(state.eigenvalues[j])) for j in range(state.k_n)]

