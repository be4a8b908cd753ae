"""Self-checks for the brute-force reference implementations."""

import math

import numpy as np
import pytest

from banach_ar1.wavelet import WaveletBasisSpec

from oracles import (
    cascade_basis,
    jacobi_eigh,
    lyapunov_fixed_point,
    natural_spline,
    oracle_estimator,
    oracle_norms,
    qr_factor_estimator,
    truncated_normal_variance_factor,
)


class TestJacobi:
    def test_textbook_two_by_two(self):
        values, vectors = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        assert np.abs(vectors.T @ vectors - np.eye(2)).max() < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            m = m + m.T
            values, vectors = jacobi_eigh(m)
            assert np.abs(vectors @ np.diag(values) @ vectors.T - m).max() < 1e-11
            assert (np.diff(values) <= 1e-12).all()


class TestOracleEstimator:
    def test_full_truncation_is_plain_composition(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        inputs, outputs = x[:-1], x[1:]
        cov = inputs.T @ inputs / 19
        cross = outputs.T @ inputs / 19
        expected = cross @ np.linalg.inv(cov)
        assert np.abs(oracle_estimator(x, 3) - expected).max() < 1e-10

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        rho = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]])
        x = np.empty((40, 3))
        x[0] = rng.standard_normal(3)
        for i in range(39):
            x[i + 1] = rho @ x[i]
        assert np.abs(oracle_estimator(x, 3) - rho).max() < 1e-8


class TestQrFactorEstimator:
    @pytest.mark.parametrize("n, p", [(20, 3), (30, 6), (5, 9)])
    def test_matches_literal_sum_oracle(self, n, p):
        # (5, 9) has fewer transitions than modes
        rng = np.random.default_rng(n * p)
        x = rng.standard_normal((n, p))
        for k in range(1, min(n - 1, p) + 1):
            assert np.abs(qr_factor_estimator(x, k) - oracle_estimator(x, k)).max() < 1e-10


class TestOracleNorms:
    SPEC = WaveletBasisSpec(order=4, coarse_level=2, max_level=5)

    def test_zero_signal(self):
        sup, l1, l2, _ = oracle_norms(np.zeros(self.SPEC.grid_len), self.SPEC)
        assert (sup, l1, l2) == (0.0, 0.0, 0.0)

    def test_single_basis_vector_has_unit_norms(self):
        basis = cascade_basis(self.SPEC)
        scale = 2.0 ** ((self.SPEC.max_level + 1) / 2)
        for row in (0, 5, 20, len(basis) - 1):
            sup, l1, l2, _ = oracle_norms(basis[row] * scale, self.SPEC)
            assert abs(sup - 1.0) < 1e-8
            assert abs(l1 - 1.0) < 1e-8
            assert abs(l2 - 1.0) < 1e-8

    def test_basis_is_orthonormal(self):
        basis = cascade_basis(self.SPEC)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10


class TestLyapunovOracle:
    def test_diagonal_closed_form(self):
        rho = np.diag([0.5, 0.2])
        q = np.diag([1.0, 2.0])
        sigma = lyapunov_fixed_point(rho, q)
        expected = np.diag([1.0 / (1 - 0.25), 2.0 / (1 - 0.04)])
        assert np.abs(sigma - expected).max() < 1e-12

    def test_fixed_point_property(self):
        rng = np.random.default_rng(3)
        rho = 0.4 * rng.standard_normal((4, 4)) / 2
        q = rng.standard_normal((4, 4))
        q = q @ q.T
        sigma = lyapunov_fixed_point(rho, q)
        assert np.abs(rho @ sigma @ rho.T + q - sigma).max() < 1e-10


class TestNaturalSplineOracle:
    def test_interpolates_with_natural_ends(self):
        # through the nodes, and a cubic on the first interval whose x^2 term, S''(0) / 2, is 0
        nodes = np.linspace(0.0, 1.0, 7)
        values = np.random.default_rng(5).standard_normal(7)
        assert np.abs(natural_spline(nodes, values, nodes) - values).max() < 1e-14
        u = np.array([0.01, 0.05, 0.1, 0.15])
        cubic = np.linalg.solve(np.vander(u, 4, increasing=True), natural_spline(nodes, values, u))
        assert abs(cubic[2]) < 1e-9

    def test_matches_scipy(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        nodes = np.linspace(0.0, 1.0, 12)
        values = np.random.default_rng(6).standard_normal(12)
        points = np.linspace(0.0, 1.0, 301)
        expected = interpolate.CubicSpline(nodes, values, bc_type="natural")(points)
        assert np.abs(natural_spline(nodes, values, points) - expected).max() < 1e-13


def test_truncated_normal_factor_value():
    factor = truncated_normal_variance_factor()
    assert factor == pytest.approx(0.9733, abs=5e-5)
    # closed form cross-check via direct quadrature
    grid = np.linspace(-3, 3, 200_001)
    dens = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
    mass = np.trapezoid(dens, grid)
    second = np.trapezoid(grid**2 * dens, grid)
    assert factor == pytest.approx(second / mass, abs=1e-9)
