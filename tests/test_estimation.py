import math
import tracemalloc

import numpy as np
import pytest

from banach_ar1.estimation import (
    FIT_PEAK_ARRAYS,
    EigenGapError,
    EstimatorState,
    TransitionMoments,
    TruncationRankError,
    TruncationRule,
    _wavelet_matrix,
    fit_estimator,
    fit_moments,
    gap_coefficients,
    max_inverse_gap,
    plug_in_predict,
    prediction_error_besov,
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
    stream_paths,
)
from banach_ar1.wavelet import WaveletBasisSpec, besov_sup_norm, dwt_forward

from oracles import grid_values, oracle_estimator, qr_factor_estimator, spline_errors, transition_sums

SPEC = WaveletBasisSpec(order=10, coarse_level=2, max_level=10)


def paper_model(modes):
    from banach_ar1.model import ModelParams

    p = ModelParams(gamma=1.21, beta_exponent=0.6, modes=modes, grid_len=2048)
    cov = build_covariance(p)
    rho = build_rho(p)
    noise = build_noise_covariance(p, cov, rho)
    return cov, rho, noise


def added(states):
    """The TransitionMoments of a stack of paths, states of shape (R, n, p), added at once."""
    moments = TransitionMoments()
    moments.add(states)
    return moments


class TestEmpiricalMoments:
    # the transition moments against the oracle's unblocked sums and literal loops

    def test_constant_trajectory_gives_rank_one(self):
        x = np.array([1.0, -2.0, 0.5])
        moments = added(np.tile(x, (1, 6, 1)))
        assert moments.transitions == 5
        gram, cross = transition_sums(np.tile(x, (6, 1)))
        assert np.abs(moments.gram[0] - gram).max() < 1e-13
        assert np.abs(moments.cross[0] - cross).max() < 1e-13
        values = np.linalg.eigvalsh(moments.gram[0] / 5)[::-1]
        assert values[0] == pytest.approx(float(x @ x), rel=1e-12)
        assert np.abs(values[1:]).max() < 1e-12

    def test_two_state_examples(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        moments = added(np.stack([e1, e2])[None])
        assert moments.transitions == 1
        assert np.array_equal(moments.gram[0], np.diag([1.0, 0.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        assert np.array_equal(moments.cross[0], expected)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(21)
        # 3 PIECE_ROWS + 37 states are summed in four blocks, the last of 36 transitions
        for n in (7, 3 * PIECE_ROWS + 37):
            x = rng.standard_normal((n, 4))
            moments = added(x[None])
            gram_ref = np.zeros((4, 4))
            cross_ref = np.zeros((4, 4))
            for i in range(n - 1):
                gram_ref += np.outer(x[i], x[i])
                cross_ref += np.outer(x[i + 1], x[i])
            gram, cross = transition_sums(x)
            assert np.abs(gram - gram_ref).max() < 1e-10 and np.abs(cross - cross_ref).max() < 1e-10, n
            assert np.abs(moments.gram[0] - gram).max() < 1e-10, n
            assert np.abs(moments.cross[0] - cross).max() < 1e-10, n
            assert moments.transitions == n - 1

    def test_noiseless_cross_covariance_factors_through_rho(self):
        # over aligned windows the cross moment of a noiseless path is
        # exactly rho times the inputs' Gram moment
        _, rho, _ = paper_model(4)
        zero = SpectralOperator(np.zeros((4, 4)))
        rng = np.random.default_rng(2)
        traj = simulate_trajectory(12, rho, zero, rng.standard_normal(4), rng)
        moments = added(traj.states[None])
        assert np.abs(moments.cross[0] - rho.matrix @ moments.gram[0]).max() < 1e-10

    def test_too_short(self):
        moments = added(np.zeros((2, 1, 3)))
        assert moments.gram is None and moments.transitions == 0
        with pytest.raises(ValueError, match="need at least 2 states"):
            fit_moments(moments, TruncationRule.fixed(1))
        with pytest.raises(ValueError, match="need at least 2 states"):
            fit_estimator(Trajectory(states=np.zeros((1, 3))), TruncationRule.fixed(1))


class TestBlocking:
    # TransitionMoments.add sums PIECE_ROWS transitions at a time from the first state

    def test_one_add_equals_its_blocks_added_one_by_one(self):
        x = np.random.default_rng(22).standard_normal((3, 3 * PIECE_ROWS + 37, 5))
        blocks = TransitionMoments()
        for start in range(0, x.shape[1] - 1, PIECE_ROWS):
            blocks.add(x[:, start : start + PIECE_ROWS + 1].copy())
        whole = added(x)
        assert whole.transitions == blocks.transitions == x.shape[1] - 1
        assert np.array_equal(whole.gram, blocks.gram)
        assert np.array_equal(whole.cross, blocks.cross)

    @pytest.mark.parametrize("n", [3 * PIECE_ROWS + 37, 2 * PIECE_ROWS + 1])
    @pytest.mark.parametrize("burn_in", [0, 7])
    def test_one_add_equals_the_streamed_pieces(self, n, burn_in):
        # the fit's states end at X_(n-1); at n = 2 PIECE_ROWS + 1 the last
        # piece holds only X_(n-1) of them, so it adds no transition
        cov, rho, noise = paper_model(5)
        rngs = [np.random.default_rng([5, n, r]) for r in range(3)]
        x0 = np.stack([sample_initial_condition(cov, rng) for rng in rngs])
        streamed = TransitionMoments()
        states = np.empty((3, n + 1, 5))
        for piece, first in stream_paths(n, rho, noise, x0, rngs, burn_in):
            streamed.add(piece[:, : n - first])
            states[:, first : first + piece.shape[1]] = piece
        whole = added(states[:, :n])
        assert whole.transitions == streamed.transitions == n - 1
        assert np.array_equal(whole.gram, streamed.gram)
        assert np.array_equal(whole.cross, streamed.cross)


def moments_of(gram, cross, transitions):
    """TransitionMoments of one path whose sums are gram and cross over the given transitions."""
    moments = TransitionMoments()
    moments.gram, moments.cross, moments.transitions = gram[None], cross[None], transitions
    return moments


class TestEigenDecompose:
    # the estimator's one eigen route: fit_moments' eigensystem of the transition
    # Gram matrix.  With D_n = C_n, rho_hat = P_k D_n C_n^+ P_k is the orthogonal
    # projector on the top k eigenvectors; with D_n = C_n^2 it is U_k diag(lambda_k) U_k^T.

    def test_permuted_diagonal(self):
        gram = 3 * np.diag([3.0, 1.0, 2.0])
        for k, projector in ((1, [1.0, 0.0, 0.0]), (2, [1.0, 0.0, 1.0])):
            state = fit_moments(moments_of(gram, gram, 3), TruncationRule.fixed(k))[0]
            assert state.eigenvalues == pytest.approx([3.0, 2.0, 1.0], rel=1e-15)
            assert np.abs(state.rho_hat - np.diag(projector)).max() < 1e-14, k

    def test_textbook_two_by_two(self):
        gram = 2 * np.array([[2.0, 1.0], [1.0, 2.0]])
        state = fit_moments(moments_of(gram, gram, 2), TruncationRule.fixed(1))[0]
        assert np.allclose(state.eigenvalues, [3.0, 1.0])
        assert np.abs(state.rho_hat - 0.5).max() < 1e-14

    def test_reconstruction_and_order(self):
        x = np.random.default_rng(17).standard_normal((11, 6))
        cov = x.T @ x / 11
        lam, u = np.linalg.eigh(cov)
        for k in (2, 6):
            state = fit_moments(moments_of(x.T @ x, 11 * cov @ cov, 11), TruncationRule.fixed(k))[0]
            assert (np.diff(state.eigenvalues) <= 1e-12).all()
            assert np.abs(state.eigenvalues - lam[::-1]).max() < 1e-12
            top = u[:, ::-1][:, :k]
            assert np.abs(state.rho_hat - top @ np.diag(lam[::-1][:k]) @ top.T).max() < 1e-10, k


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
        stack = fit_moments(added(x), TruncationRule.fixed(3))
        predictions = plug_in_predict(stack, x[:, -1])
        for r in range(4):
            single = fit_estimator(Trajectory(states=x[r]), TruncationRule.fixed(3))
            for name in ("eigenvalues", "rho_hat"):
                assert np.array_equal(getattr(stack[r], name), getattr(single, name)), name
            assert np.array_equal(predictions[r], plug_in_predict(single, x[r, -1]))

    def test_invariants_hold_for_every_member(self):
        x = np.random.default_rng(13).standard_normal((3, 20, 5))
        stack = fit_moments(added(x), TruncationRule.fixed(2))
        unsorted = stack.eigenvalues.copy()
        unsorted[1, [0, 1]] = unsorted[1, [1, 0]]
        with pytest.raises(ValueError, match="sorted"):
            EstimatorState(stack.n, stack.k_n, unsorted, stack.rho_hat)

    def test_rho_hat_must_be_p_by_p_per_fit(self):
        x = np.random.default_rng(13).standard_normal((3, 20, 5))
        stack = fit_moments(added(x), TruncationRule.fixed(2))
        single = stack[0]
        for values, rho_hat in (
            (single.eigenvalues, np.eye(6)),
            (single.eigenvalues, np.ones((5, 4))),
            (single.eigenvalues, stack.rho_hat),
            (stack.eigenvalues, stack.rho_hat[:2]),
            (stack.eigenvalues, stack.rho_hat[:, :, :4]),
            (stack.eigenvalues, single.rho_hat),
        ):
            with pytest.raises(ValueError, match="^rho_hat has shape"):
                EstimatorState(stack.n, stack.k_n, values, rho_hat)

    @pytest.mark.parametrize("name", ["eigenvalues", "rho_hat"])
    def test_non_finite_values_are_rejected_naming_the_array(self, name):
        # every comparison with NaN is false, so the ordering check alone lets it through
        x = np.random.default_rng(13).standard_normal((3, 20, 5))
        stack = fit_moments(added(x), TruncationRule.fixed(2))
        arrays = {key: getattr(stack, key).copy() for key in ("eigenvalues", "rho_hat")}
        arrays[name][1, ..., -1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EstimatorState(stack.n, stack.k_n, **arrays)

    def test_degenerate_member_raises_with_its_own_spectrum(self):
        x = np.random.default_rng(14).standard_normal((3, 20, 5))
        x[1] = 0.0
        with pytest.raises(TruncationRankError, match="eigenvalue 2 is 0.000e\\+00 \\(leading 0.000e\\+00\\)"):
            fit_moments(added(x), TruncationRule.fixed(2))

    @pytest.mark.parametrize("p", [50, 200])
    @pytest.mark.parametrize("paths", [1, 10])
    def test_peak_memory_is_within_fit_peak_arrays(self, paths, p):
        # the harness sizes its chunks by this count: the two moment sums and
        # what fit_moments allocates on top of them, per path
        x = np.random.default_rng(p + paths).standard_normal((paths, 300, p))
        fit_moments(added(x), TruncationRule.log_ceil())  # loads LAPACK outside the trace
        moments = added(x)
        tracemalloc.start()
        try:
            fit_moments(moments, TruncationRule.log_ceil())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (peak + moments.gram.nbytes + moments.cross.nbytes) / (paths * p * p * 8)
        assert arrays <= FIT_PEAK_ARRAYS, arrays


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
        u_k, _ = np.linalg.qr(rng.standard_normal((3, 2)))
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
