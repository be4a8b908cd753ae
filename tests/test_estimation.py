import math

import numpy as np
import pytest

from banach_ar1.estimation import (
    EigenGapError,
    EstimatorState,
    TruncationRankError,
    TruncationRule,
    _wavelet_matrix,
    empirical_covariance,
    empirical_cross_covariance,
    fit_estimator,
    fit_moments,
    gap_coefficients,
    max_inverse_gap,
    plug_in_predict,
    prediction_error_besov,
    transition_moments,
    truncation_order,
)
from banach_ar1.model import (
    PIECE_ROWS,
    SpectralOperator,
    Trajectory,
    build_covariance,
    build_noise_covariance,
    build_rho,
    sample_initial_condition,
    simulate_trajectory,
)
from banach_ar1.wavelet import WaveletBasisSpec, besov_sup_norm, dwt_forward

from oracles import grid_values, oracle_estimator, qr_factor_estimator, spline_errors

SPEC = WaveletBasisSpec(order=10, coarse_level=2, max_level=10)


def paper_model(modes):
    from banach_ar1.model import ModelParams

    p = ModelParams(gamma=1.21, beta_exponent=0.6, modes=modes, grid_len=2048)
    cov = build_covariance(p)
    rho = build_rho(p)
    noise = build_noise_covariance(p, cov, rho)
    return cov, rho, noise


class TestEmpiricalMoments:
    def test_constant_trajectory_gives_rank_one(self):
        x = np.array([1.0, -2.0, 0.5])
        traj = Trajectory(states=np.tile(x, (6, 1)))
        cov = empirical_covariance(traj)
        assert np.abs(cov.matrix - np.outer(x, x)).max() < 1e-14
        values = np.linalg.eigvalsh(cov.matrix)[::-1]
        assert values[0] == pytest.approx(float(x @ x), rel=1e-12)
        assert np.abs(values[1:]).max() < 1e-12

    def test_two_state_examples(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        traj = Trajectory(states=np.stack([e1, e2]))
        cov = empirical_covariance(traj)
        assert np.allclose(cov.matrix, np.diag([0.5, 0.5, 0.0]))
        cross = empirical_cross_covariance(traj)
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        assert np.array_equal(cross.matrix, expected)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(21)
        # 3 PIECE_ROWS + 37 states are summed in four pieces, the last of 37 states
        for n in (7, 3 * PIECE_ROWS + 37):
            x = rng.standard_normal((n, 4))
            traj = Trajectory(states=x)
            cov = empirical_covariance(traj).matrix
            cross = empirical_cross_covariance(traj).matrix
            cov_ref = np.zeros((4, 4))
            cross_ref = np.zeros((4, 4))
            for i in range(n):
                cov_ref += np.outer(x[i], x[i]) / n
            for i in range(n - 1):
                cross_ref += np.outer(x[i + 1], x[i]) / (n - 1)
            assert np.abs(cov - cov_ref).max() < 1e-12, n
            assert np.abs(cross - cross_ref).max() < 1e-12, n

    def test_noiseless_cross_covariance_factors_through_rho(self):
        # over aligned windows the cross-covariance of a noiseless path is
        # exactly rho times the covariance of the inputs
        _, rho, _ = paper_model(4)
        zero = SpectralOperator(np.zeros((4, 4)))
        rng = np.random.default_rng(2)
        traj = simulate_trajectory(12, rho, zero, rng.standard_normal(4), rng)
        n = len(traj)
        cross = empirical_cross_covariance(traj).matrix
        inputs_cov = empirical_covariance(traj.head(n - 1)).matrix
        assert np.abs(cross - rho.matrix @ inputs_cov).max() < 1e-10

    def test_too_short(self):
        with pytest.raises(ValueError):
            empirical_covariance(Trajectory(states=np.zeros((1, 3))))


def transition_states(inputs):
    """States whose first len(inputs) rows are the fit's inputs; the last state is only an output."""
    return Trajectory(states=np.vstack([inputs, np.zeros(inputs.shape[1])]))


class TestEigenDecompose:
    # the estimator's one eigen route: fit_moments' eigensystem of the transition Gram matrix

    def test_permuted_diagonal(self):
        # inputs^T inputs / 3 = diag(3, 1, 2)
        state = fit_estimator(transition_states(np.diag(np.sqrt([9.0, 3.0, 6.0]))), TruncationRule.fixed(1))
        assert state.eigenvalues == pytest.approx([3.0, 2.0, 1.0], rel=1e-15)
        expected_cols = [0, 2, 1]
        for rank, col in enumerate(expected_cols):
            assert abs(abs(state.eigenvectors[col, rank]) - 1.0) < 1e-14

    def test_textbook_two_by_two(self):
        # inputs^T inputs / 2 = [[2, 1], [1, 2]]
        a, b = (math.sqrt(3) + 1) / 2, (math.sqrt(3) - 1) / 2
        state = fit_estimator(transition_states(math.sqrt(2) * np.array([[a, b], [b, a]])), TruncationRule.fixed(1))
        assert np.allclose(state.eigenvalues, [3.0, 1.0])
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.abs(np.abs(state.eigenvectors[:, 0]) - inv_sqrt2).max() < 1e-14
        assert np.abs(np.abs(state.eigenvectors[:, 1]) - inv_sqrt2).max() < 1e-14

    def test_reconstruction_and_order(self):
        x = np.random.default_rng(17).standard_normal((12, 6))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(2))
        recon = state.eigenvectors @ np.diag(state.eigenvalues) @ state.eigenvectors.T
        assert np.abs(recon - x[:-1].T @ x[:-1] / 11).max() < 1e-10
        assert (np.diff(state.eigenvalues) <= 1e-12).all()


class TestTruncationOrder:
    def test_log_ceiling_values(self):
        rule = TruncationRule.log_ceil()
        assert truncation_order(2500, rule) == 8
        assert truncation_order(3, rule) == 2

    def test_fixed_rule(self):
        assert truncation_order(10, TruncationRule.fixed(5)) == 5
        assert truncation_order(10**6, TruncationRule.fixed(5)) == 5

    def test_clamped_to_p_max(self):
        assert truncation_order(2500, TruncationRule.log_ceil(), p_max=4) == 4
        assert truncation_order(2500, TruncationRule.fixed(100), p_max=7) == 7
        # n states give n - 1 transitions, with or without p_max
        assert truncation_order(5, TruncationRule.fixed(10)) == 4
        assert truncation_order(5, TruncationRule.fixed(10), p_max=50) == 4


class TestGapQuantities:
    def test_first_coefficient(self):
        a = gap_coefficients(np.array([1.0, 0.5, 0.25]), 1)
        assert a[0] == pytest.approx(4 * math.sqrt(2), rel=1e-14)

    def test_second_takes_worse_gap(self):
        a = gap_coefficients(np.array([1.0, 0.5, 0.25]), 2)
        assert a[1] == pytest.approx(8 * math.sqrt(2), rel=1e-14)

    def test_zero_gap_errors(self):
        with pytest.raises(EigenGapError):
            gap_coefficients(np.array([1.0, 1.0, 0.5]), 2)

    def test_max_inverse_gap_values(self):
        values = np.array([1.0, 0.5, 0.25])
        assert max_inverse_gap(values, 2) == pytest.approx(4.0)
        assert max_inverse_gap(values, 1) == pytest.approx(2.0)

    def test_max_inverse_gap_nondecreasing_in_k(self):
        values = 1.0 / np.arange(1.0, 12.0) ** 2
        sups = [max_inverse_gap(values, k) for k in range(1, 10)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))


class TestFitEstimator:
    def test_noiseless_exact_recovery(self):
        _, rho, _ = paper_model(5)
        zero = SpectralOperator(np.zeros((5, 5)))
        rng = np.random.default_rng(99)
        traj = simulate_trajectory(100, rho, zero, rng.standard_normal(5), rng)
        state = fit_estimator(traj.head(100), TruncationRule.fixed(5))
        assert np.abs(state.rho_hat - rho.matrix).max() < 1e-8

    def test_zero_trajectory_is_degenerate(self):
        traj = Trajectory(states=np.zeros((10, 4)))
        with pytest.raises(TruncationRankError):
            fit_estimator(traj, TruncationRule.fixed(2))

    def test_matches_dense_composition(self):
        rng = np.random.default_rng(6)
        # at 3 PIECE_ROWS + 37 states the fit sums its moments over four pieces, the dense ones in one product
        for n in (6, 3 * PIECE_ROWS + 37):
            x = rng.standard_normal((n, 3))
            state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(2))
            inputs, outputs = x[:-1], x[1:]
            cov = inputs.T @ inputs / (n - 1)
            cross = outputs.T @ inputs / (n - 1)
            lam, u = np.linalg.eigh(cov)
            lam, u = lam[::-1], u[:, ::-1]
            u_k = u[:, :2]
            dense = u_k @ u_k.T @ cross @ u_k @ np.diag(1 / lam[:2]) @ u_k.T
            assert np.abs(state.rho_hat - dense).max() < 1e-10, n

    def test_matches_literal_sum_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            n = int(rng.integers(p + 2, 51))
            k = int(rng.integers(1, p + 1))
            x = rng.standard_normal((n, p))
            state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(k))
            assert state.k_n == k
            assert np.abs(state.rho_hat - oracle_estimator(x, k)).max() < 1e-10

    def test_rank_bounded_by_truncation(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal((40, 8))
        for k in (1, 3, 5):
            state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(k))
            rank = int((np.linalg.svd(state.rho_hat, compute_uv=False) > 1e-10).sum())
            assert rank <= k

    def test_full_truncation_reduces_to_plain_inverse(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((30, 4))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(4))
        inputs, outputs = x[:-1], x[1:]
        cov = inputs.T @ inputs / 29
        cross = outputs.T @ inputs / 29
        assert np.abs(state.rho_hat - cross @ np.linalg.inv(cov)).max() < 1e-9

    def test_snapshot_regime_fewer_samples_than_modes(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((5, 9))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(3))
        gram = state.eigenvectors.T @ state.eigenvectors
        assert np.abs(gram - np.eye(9)).max() < 1e-10
        assert (state.eigenvalues[4:] == 0).all()
        assert np.abs(state.rho_hat - oracle_estimator(x, 3)).max() < 1e-10

    @pytest.mark.parametrize("transitions", [30, 499])
    def test_reference_spectrum_at_fifty_modes_matches_oracle(self, transitions):
        # both sides of n - 1 = p on the reference model: with fewer
        # transitions the eigenvalues beyond rank n - 1 are zero
        cov, rho, noise = paper_model(50)
        rng = np.random.default_rng(transitions)
        traj = simulate_trajectory(transitions, rho, noise, sample_initial_condition(cov, rng), rng)
        state = fit_estimator(traj, TruncationRule.log_ceil())
        assert state.k_n == math.ceil(math.log(transitions + 1))
        assert np.abs(state.rho_hat - oracle_estimator(traj.states, state.k_n)).max() < 1e-9

    @pytest.mark.parametrize("transitions", [30, 499, 7999])
    def test_reference_spectrum_at_fifty_modes_matches_qr_factor_fit(self, transitions):
        cov, rho, noise = paper_model(50)
        rng = np.random.default_rng(transitions)
        traj = simulate_trajectory(transitions, rho, noise, sample_initial_condition(cov, rng), rng)
        state = fit_estimator(traj, TruncationRule.log_ceil())
        expected = qr_factor_estimator(traj.states, state.k_n)
        assert np.abs(state.rho_hat - expected).max() <= 1e-12 * np.abs(expected).max()

    @staticmethod
    def synthetic_states(ratio, seed, p=6, k=4, n=40):
        """States whose inputs have top-k covariance eigenvalues 1 .. ratio.

        The eigenvalues beyond k sit a factor 100 further down, so the k-th
        eigenvector is separated by a gap of about ratio.
        """
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n - 1, p)))
        v, _ = np.linalg.qr(rng.standard_normal((p, p)))
        lam = np.concatenate([np.geomspace(1.0, ratio, k), np.geomspace(1e-2, 1e-3, p - k) * ratio])
        x = np.empty((n, p))
        x[:-1] = (u * np.sqrt(lam * (n - 1))) @ v.T
        x[-1] = rng.standard_normal(p)
        return x

    def test_ill_conditioned_spectrum_matches_qr_factor_fit(self):
        # the Gram eigensolve resolves lambda_k to about eps * lambda_1, so
        # at lambda_k / lambda_1 = 1e-8 the two routes agree to ~1e-8
        for seed in range(20):
            x = self.synthetic_states(1e-8, seed)
            state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(4))
            expected = qr_factor_estimator(x, 4)
            assert np.abs(state.rho_hat - expected).max() <= 1e-7 * np.abs(expected).max()

    def test_spectrum_below_eigensolve_resolution_raises(self):
        x = self.synthetic_states(1e-12, seed=0)
        with pytest.raises(TruncationRankError, match="eigenvalue 4"):
            fit_estimator(Trajectory(states=x), TruncationRule.fixed(4))

    def test_scaled_rank_deficient_trajectory_fits_with_nonnegative_eigenvalues(self):
        # rounding in the rank-3 Gram matrix scaled by 1e12 reaches far
        # beyond the -1e-12 that EstimatorState tolerates, so it is clipped
        rng = np.random.default_rng(8)
        x = 1e6 * rng.standard_normal((60, 3)) @ rng.standard_normal((3, 9))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(3))
        assert (state.eigenvalues >= 0).all()
        expected = qr_factor_estimator(x, 3)
        assert np.abs(state.rho_hat - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_log_rule_stores_matching_order(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((200, 10))
        state = fit_estimator(Trajectory(states=x), TruncationRule.log_ceil())
        assert state.k_n == math.ceil(math.log(200))


class TestFitStack:
    def test_members_equal_single_fits_bit_for_bit(self):
        x = np.random.default_rng(12).standard_normal((4, 30, 6))
        stack = fit_moments(transition_moments(x), TruncationRule.fixed(3))
        predictions = plug_in_predict(stack, x[:, -1])
        for r in range(4):
            single = fit_estimator(Trajectory(states=x[r]), TruncationRule.fixed(3))
            for name in ("eigenvalues", "eigenvectors", "d_matrix", "rho_hat"):
                assert np.array_equal(getattr(stack[r], name), getattr(single, name)), name
            assert np.array_equal(predictions[r], plug_in_predict(single, x[r, -1]))

    def test_invariants_hold_for_every_member(self):
        x = np.random.default_rng(13).standard_normal((3, 20, 5))
        stack = fit_moments(transition_moments(x), TruncationRule.fixed(2))
        skewed = stack.eigenvectors.copy()
        skewed[2, :, 0] *= 1.01
        with pytest.raises(ValueError, match="orthonormal"):
            EstimatorState(stack.n, stack.k_n, stack.eigenvalues, skewed, stack.d_matrix, stack.rho_hat)
        unsorted = stack.eigenvalues.copy()
        unsorted[1, [0, 1]] = unsorted[1, [1, 0]]
        with pytest.raises(ValueError, match="sorted"):
            EstimatorState(stack.n, stack.k_n, unsorted, stack.eigenvectors, stack.d_matrix, stack.rho_hat)

    @pytest.mark.parametrize("name", ["eigenvalues", "eigenvectors", "d_matrix", "rho_hat"])
    def test_non_finite_values_are_rejected_naming_the_array(self, name):
        # every comparison with NaN is false, so the ordering and orthonormality checks alone let it through
        x = np.random.default_rng(13).standard_normal((3, 20, 5))
        stack = fit_moments(transition_moments(x), TruncationRule.fixed(2))
        arrays = {key: getattr(stack, key).copy() for key in ("eigenvalues", "eigenvectors", "d_matrix", "rho_hat")}
        arrays[name][1, ..., -1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EstimatorState(stack.n, stack.k_n, **arrays)

    def test_degenerate_member_raises_with_its_own_spectrum(self):
        x = np.random.default_rng(14).standard_normal((3, 20, 5))
        x[1] = 0.0
        with pytest.raises(TruncationRankError, match="eigenvalue 2 is 0.000e\\+00 \\(leading 0.000e\\+00\\)"):
            fit_moments(transition_moments(x), TruncationRule.fixed(2))


class TestPrediction:
    def test_zero_estimator_predicts_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 3))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(2))
        state.rho_hat = np.zeros((3, 3))
        assert np.array_equal(plug_in_predict(state, np.ones(3)), np.zeros(3))

    def test_projection_identity_on_span(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(2))
        u_k = state.eigenvectors[:, :2]
        state.rho_hat = u_k @ u_k.T
        v = u_k @ np.array([0.3, -1.2])
        assert np.abs(plug_in_predict(state, v) - v).max() < 1e-12

    def test_matches_matrix_vector_product(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 4))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(3))
        v = rng.standard_normal(4)
        assert np.allclose(plug_in_predict(state, v), state.rho_hat @ v)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((9, 4))
        state = fit_estimator(Trajectory(states=x), TruncationRule.fixed(2))
        with pytest.raises(ValueError, match="dimension"):
            plug_in_predict(state, np.ones(5))


class TestPredictionError:
    def test_identical_inputs_give_zero(self):
        v = np.array([0.4, -0.1, 0.2, 0.0, 0.05])
        assert prediction_error_besov(v, v, 2048, SPEC) == 0.0

    def test_zero_prediction_reduces_to_truth_norm(self):
        v = np.array([0.4, -0.1, 0.2])
        expected = besov_sup_norm(dwt_forward(grid_values(v, 2048), SPEC))
        assert prediction_error_besov(v, np.zeros(3), 2048, SPEC) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("modes", [5, 50])
    @pytest.mark.parametrize(
        "spec", [SPEC, WaveletBasisSpec(order=4, coarse_level=2, max_level=8)], ids=["db10-2048", "db4-512"]
    )
    def test_matches_transform_of_grid_difference(self, spec, modes):
        rng = np.random.default_rng(modes)
        for _ in range(10):
            truth, predicted = rng.standard_normal((2, modes))
            diff = grid_values(truth, spec.grid_len) - grid_values(predicted, spec.grid_len)
            expected = besov_sup_norm(dwt_forward(diff, spec))
            got = prediction_error_besov(truth, predicted, spec.grid_len, spec)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_coefficient_matrix_is_read_only(self):
        for coarse_step in (None, 0.0372):
            w = _wavelet_matrix(5, 2048, SPEC, coarse_step)
            assert w.shape == (5, 2048)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0] = 1.0

    @pytest.mark.parametrize("modes", [5, 50])
    def test_spline_matrix_matches_scoring_each_replication(self, modes):
        # the cached matrix route against the transform of each replication's spline difference
        rng = np.random.default_rng(modes + 1)
        truth, predicted = rng.standard_normal((2, 4, modes))
        got = prediction_error_besov(truth, predicted, 2048, SPEC, 0.0372)
        expected = spline_errors(truth, predicted, 0.0372, SPEC)
        assert got.shape == (4,)
        assert (np.abs(got - expected) <= 1e-14 * np.array(expected)).all()

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a, b, c = rng.standard_normal((3, 6))
            ac = prediction_error_besov(a, c, 512, WaveletBasisSpec(order=4, coarse_level=2, max_level=8))
            ab = prediction_error_besov(a, b, 512, WaveletBasisSpec(order=4, coarse_level=2, max_level=8))
            bc = prediction_error_besov(b, c, 512, WaveletBasisSpec(order=4, coarse_level=2, max_level=8))
            assert ac <= ab + bc + 1e-12
