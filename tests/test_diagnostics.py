import math

import numpy as np
import pytest

from banach_ar1.diagnostics import (
    ConsistencyReport,
    ExperimentResult,
    consistency_ratio,
    eigen_decay_report,
    empirical_mse_curve,
    exceedance_bound,
    exceedance_table,
    trace_embedding_report,
)
from banach_ar1.estimation import TruncationRule, fit_estimator, gap_coefficients
from banach_ar1.model import Trajectory, covariance_eigenvalues, eigenfunctions_on_grid
from banach_ar1.wavelet import WaveletBasisSpec, besov_sup_norm, dwt_forward

from oracles import trace_report_by_mode

SPEC = WaveletBasisSpec(order=10, coarse_level=2, max_level=10)

PAPER_C = covariance_eigenvalues(1.21, 60)


def results_from(errors_by_n):
    out = []
    for n, (errors, xi) in errors_by_n.items():
        out += [
            ExperimentResult(n=n, replication=i, error_b=e, xi=xi) for i, e in enumerate(errors)
        ]
    return out


class TestConsistencyRatio:
    def test_single_mode_at_n_equal_e(self):
        c = np.array([1.0, 0.5, 0.25])
        a = gap_coefficients(c, 1)
        q = 1 * (1 / c[0]) * a.sum()
        assert consistency_ratio(math.e, 1, c, a) == pytest.approx(q / math.sqrt(math.e), rel=1e-14)

    def test_doubling_law_with_fixed_numerator(self):
        c = np.array([1.0, 0.4, 0.2, 0.05])
        a = gap_coefficients(c, 3)
        n = 1000.0
        r1 = consistency_ratio(n, 3, c, a)
        r2 = consistency_ratio(2 * n, 3, c, a)
        assert r2 == pytest.approx(r1 * math.sqrt(n * math.log(2 * n) / (2 * n * math.log(n))), rel=1e-13)

    def test_reference_spectrum_trend_at_paper_figure_scale(self):
        # at truncation orders 30..40 (astronomically large n under the
        # log-ceiling rule) the ratio decreases monotonically
        ratios = []
        for k in range(30, 41):
            a = gap_coefficients(PAPER_C, k)
            ratios.append(consistency_ratio(math.exp(k), k, PAPER_C, a))
        assert all(x > y for x, y in zip(ratios, ratios[1:]))

    def test_reference_spectrum_trend_at_desk_scale_increases(self):
        # documented spec defect: at n = 2^10..2^18 the log-ceiling rule
        # keeps the numerator growing faster than sqrt(n / ln n), so the
        # ratio rises; the decrease only sets in near k_n ~ 17.  The
        # acceptance criterion asserting a desk-scale decrease fails
        # honestly; this test pins the actual behaviour.
        ratios = []
        for exponent in (10, 14, 18):
            n = 2**exponent
            k = math.ceil(math.log(n))
            ratios.append(consistency_ratio(n, k, PAPER_C, gap_coefficients(PAPER_C, k)))
        assert ratios[0] < ratios[1] < ratios[2]


class TestExceedanceBound:
    def test_always_in_open_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = np.sort(rng.uniform(0.01, 1.0, size=6))[::-1]
            try:
                a = gap_coefficients(c, 4)
            except Exception:
                continue
            xi = exceedance_bound(float(rng.integers(2, 10**6)), 4, c, a)
            assert 0.0 < xi < 1.0

    def test_doubling_squares_the_bound(self):
        c = np.array([1.0, 0.5])
        a = gap_coefficients(c, 1)
        xi1 = exceedance_bound(10, 1, c, a)
        xi2 = exceedance_bound(20, 1, c, a)
        assert 0.1 < xi1 < 0.9
        assert xi2 == pytest.approx(xi1**2, rel=1e-12)

    def test_golden_value_for_reference_spectrum(self):
        # pinned after first verified run: n = 2500, k_n = 8
        a = gap_coefficients(PAPER_C, 8)
        assert float(a.sum()) == pytest.approx(68523.34248425339, rel=1e-12)
        xi = exceedance_bound(2500, 8, PAPER_C, a)
        assert xi == pytest.approx(0.9999999999999987, abs=5e-16)

    def test_clamped_inside_open_interval_at_extremes(self):
        c = np.array([1.0, 0.5])
        a = gap_coefficients(c, 1)
        nearly_one = exceedance_bound(1e-12, 1, c, a)
        nearly_zero = exceedance_bound(1e9, 1, c, a)
        assert 0.0 < nearly_zero < nearly_one < 1.0


class TestTables:
    def test_extreme_proportions(self):
        all_below = results_from({100: ([0.1] * 8, 0.5)})
        assert exceedance_table(all_below) == [(100, 8, 0, 0.0)]
        all_above = results_from({100: ([0.9] * 8, 0.5)})
        assert exceedance_table(all_above) == [(100, 8, 8, 1.0)]

    def test_counting(self):
        errors = [0.9] * 3 + [0.1] * 9
        rows = exceedance_table(results_from({64: (errors, 0.5)}))
        assert rows == [(64, 12, 3, 0.25)]

    def test_mse_of_identical_errors(self):
        rows = empirical_mse_curve(results_from({32: ([0.3] * 5, 0.5)}))
        assert rows == [(32, pytest.approx(0.09), 32**-0.25)]

    def test_reference_column_value(self):
        rows = empirical_mse_curve(results_from({16: ([0.0], 0.5)}))
        assert rows[0][2] == pytest.approx(0.5)

    def test_groups_sorted_by_n(self):
        rows = exceedance_table(
            results_from({200: ([0.1], 0.5), 50: ([0.9], 0.5), 100: ([0.1], 0.5)})
        )
        assert [r[0] for r in rows] == [50, 100, 200]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exceedance_table([])


class TestExperimentResult:
    def test_exceeded_flag_is_derived(self):
        r = ExperimentResult(n=10, replication=0, error_b=0.7, xi=0.5)
        assert r.exceeded
        assert ExperimentResult(n=10, replication=0, error_b=0.4, xi=0.5).exceeded is False
        assert r.squared_error_b == pytest.approx(0.49)


class TestConsistencyReport:
    def test_rejects_xi_outside_open_interval(self):
        kw = dict(n=10, k_n=2, lambda_kn=1.0, a_sum=1.0, ratio=1.0, trace_sum=1.0, n_sup=1.0, v_sup=1.0, mode="true")
        with pytest.raises(ValueError, match="xi"):
            ConsistencyReport(xi=1.0, **kw)
        with pytest.raises(ValueError, match="xi"):
            ConsistencyReport(xi=0.0, **kw)
        ConsistencyReport(xi=0.5, **kw)

    def test_rejects_non_finite_fields(self):
        kw = dict(n=10, k_n=2, lambda_kn=math.inf, a_sum=1.0, ratio=1.0, xi=0.5, trace_sum=1.0, n_sup=1.0, v_sup=1.0, mode="true")
        with pytest.raises(ValueError, match="finite"):
            ConsistencyReport(**kw)


class TestTraceReport:
    def test_single_mode_equals_flat_norm_squared(self):
        phi = eigenfunctions_on_grid(1, SPEC.grid_len)
        report = trace_embedding_report(phi, SPEC)
        coeffs = dwt_forward(phi[0], SPEC)
        assert report.trace_sum == pytest.approx(float(coeffs @ coeffs), rel=1e-12)
        assert report.v_sup == pytest.approx(besov_sup_norm(coeffs))

    def test_trace_nondecreasing_in_mode_count(self):
        traces = []
        for p in (1, 3, 6, 12):
            phi = eigenfunctions_on_grid(p, SPEC.grid_len)
            traces.append(trace_embedding_report(phi, SPEC).trace_sum)
        assert all(a < b for a, b in zip(traces, traces[1:]))

    @pytest.mark.parametrize(
        "modes, spec",
        [(50, SPEC), (7, WaveletBasisSpec(order=4, coarse_level=2, max_level=8))],
        ids=["db10-2048-50", "db4-512-7"],
    )
    def test_matches_one_transform_per_mode(self, modes, spec):
        phi = eigenfunctions_on_grid(modes, spec.grid_len)
        report = trace_embedding_report(phi, spec)
        trace_sum, n_sup, v_sup = trace_report_by_mode(phi, spec)
        assert report.n_sup == n_sup
        assert report.v_sup == v_sup
        assert report.trace_sum == pytest.approx(trace_sum, rel=1e-15)

    def test_sine_family_sup_is_finite_and_modest(self):
        phi = eigenfunctions_on_grid(20, SPEC.grid_len)
        report = trace_embedding_report(phi, SPEC)
        assert math.isfinite(report.v_sup)
        assert report.v_sup < 2.0  # grid sup of each mode is sqrt(2)
        assert report.n_sup >= 0.0


class TestEigenDecay:
    def test_projection_of_state(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((64, 6))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(4))
        rows = eigen_decay_report(state)
        assert [j for j, _ in rows] == [1, 2, 3, 4]
        values = [v for _, v in rows]
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)
        assert values == [float(state.eigenvalues[i]) for i in range(4)]

