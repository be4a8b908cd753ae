import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import banach_ar1
from banach_ar1.model import (
    ModelParams,
    NoiseCovarianceError,
    SpectralOperator,
    build_covariance,
    build_noise_covariance,
    build_rho,
    check_stationarity,
    covariance_eigenvalues,
    covariance_kernel_surface,
    draw_paths,
    eigenfunctions_on_grid,
    evaluate_via_spline,
    sample_initial_condition,
    simulate_paths,
    simulate_trajectory,
    stationary_covariance,
    step_paths,
)

from oracles import (
    grid_values,
    kernel_value,
    lyapunov_fixed_point,
    stepped_trajectory,
    truncated_normal_variance_factor,
)

PAPER = dict(gamma=1.21, beta_exponent=0.6)


def params(modes=5, **kw):
    merged = {**PAPER, "modes": modes, "grid_len": 2048, **kw}
    return ModelParams(**merged)


def recursion_operators(kind):
    """(rho, noise) of the reference model at 50 or 8 modes, or a small non-normal pair."""
    if kind in ("reference", "reference_8"):
        p = params(modes=50 if kind == "reference" else 8)
        rho = build_rho(p)
        return rho, build_noise_covariance(p, build_covariance(p), rho)
    # norm above 1 but spectral radius below 1: single steps can grow
    rho = SpectralOperator(np.diag([0.9, -0.5, 0.3, 0.7]) + np.diag([1.5, 1.5, 1.5], 1))
    assert np.linalg.norm(rho.matrix, 2) > 1 > np.abs(np.linalg.eigvals(rho.matrix)).max()
    return rho, SpectralOperator(0.1 * np.eye(4) + 0.02, symmetric=True)


class TestModelParams:
    def test_exponent_constraint(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=1.0, beta_exponent=0.6)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=0.9, beta_exponent=0.4)

    def test_grid_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ModelParams(gamma=1.21, beta_exponent=0.6, grid_len=1000)


class TestCovariance:
    def test_first_eigenvalue_matches_scalar_evaluation(self):
        c = build_covariance(params())
        expected = math.exp(-1.21 * math.log(1.0 + math.pi**2))
        assert c.matrix[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_strictly_decreasing_and_positive(self):
        for gamma in (0.7, 1.21, 3.0):
            vals = covariance_eigenvalues(gamma, 60)
            assert (vals > 0).all()
            assert (np.diff(vals) < 0).all()

    def test_nonincreasing_in_gamma(self):
        lo = covariance_eigenvalues(1.21, 30)
        hi = covariance_eigenvalues(2.0, 30)
        assert (hi <= lo).all()


class TestEigenfunctions:
    def test_midpoint_value(self):
        grid = eigenfunctions_on_grid(1, 2048)[0]
        assert grid[1023] == pytest.approx(math.sqrt(2) * math.sin(math.pi * 1023.5 / 2048))
        t = (np.arange(2048) + 0.5) / 2048
        mid = np.argmin(np.abs(t - 0.5))
        assert abs(grid[mid] - math.sqrt(2)) < 1e-5

    def test_discrete_orthonormality(self):
        phi = eigenfunctions_on_grid(12, 2048)
        gram = phi @ phi.T / 2048
        assert np.abs(gram - np.eye(12)).max() < 1e-3


class TestRho:
    def test_diagonal_and_offdiagonal_entries(self):
        rho = build_rho(params())
        assert rho.matrix[0, 0] == pytest.approx(2.0**-1.5, rel=1e-14)
        assert rho.matrix[0, 1] == pytest.approx(math.exp(-2.5), rel=1e-14)

    def test_symmetry(self):
        rho = build_rho(params(modes=20))
        assert np.array_equal(rho.matrix, rho.matrix.T)
        assert rho.symmetric


class TestNoiseCovariance:
    def test_exact_entries_when_already_psd(self):
        p = params(modes=3)
        cov = build_covariance(p)
        rho = build_rho(p)
        noise = build_noise_covariance(p, cov, rho)
        c1 = cov.matrix[0, 0]
        assert noise.matrix[0, 0] == pytest.approx(c1 * (1 - 2.0**-3), rel=1e-12)
        assert noise.matrix[0, 2] == pytest.approx(math.exp(-4 / 0.16), rel=1e-12)
        assert noise.matrix[0, 2] == pytest.approx(math.exp(-25.0), rel=1e-12)

    def test_entries_near_formula_after_repair(self):
        p = params(modes=50)
        cov = build_covariance(p)
        rho = build_rho(p)
        noise = build_noise_covariance(p, cov, rho)
        c_diag = np.diag(cov.matrix)
        formula_diag = c_diag * (1 - np.diag(rho.matrix) ** 2)
        # the PSD repair perturbs the banded formula by at most the clipped
        # eigenvalue mass
        assert np.abs(np.diag(noise.matrix) - formula_diag).max() < 5e-3
        assert noise.matrix[0, 0] == pytest.approx(formula_diag[0], abs=5e-4)

    @pytest.mark.parametrize("modes", [2, 5, 20, 50])
    def test_psd_after_repair(self, modes):
        p = params(modes=modes)
        noise = build_noise_covariance(p, build_covariance(p), build_rho(p))
        assert np.array_equal(noise.matrix, noise.matrix.T)
        assert np.linalg.eigvalsh(noise.matrix).min() >= -1e-10 * np.abs(noise.matrix).max()

    def test_rejects_nondiagonal_covariance(self):
        p = params(modes=3)
        rho = build_rho(p)
        full = SpectralOperator(np.full((3, 3), 0.5), symmetric=True)
        with pytest.raises(ValueError, match="diagonal"):
            build_noise_covariance(p, full, rho)

    @pytest.mark.parametrize("modes", [8, 50])
    def test_returned_operator_holds_its_root(self, modes):
        p = params(modes=modes)
        noise = build_noise_covariance(p, build_covariance(p), build_rho(p))
        assert "sqrt" in vars(noise)  # the cached_property is already filled
        assert not noise.sqrt.flags.writeable

    def test_failed_root_check_is_a_noise_covariance_error(self, monkeypatch):
        def indefinite(self):
            raise ValueError("matrix is not positive semi-definite: min eigenvalue -1.000000e-03")

        monkeypatch.setattr(SpectralOperator, "sqrt", property(indefinite))
        p = params(modes=8)
        with pytest.raises(NoiseCovarianceError, match="repaired innovation covariance: matrix is not positive"):
            build_noise_covariance(p, build_covariance(p), build_rho(p))


class TestStationarity:
    def test_contraction_holds_immediately(self):
        half = SpectralOperator(0.5 * np.eye(4), symmetric=True)
        result = check_stationarity(half)
        assert result == (True, 1, 0.5)

    def test_identity_never_contracts(self):
        eye = SpectralOperator(np.eye(4), symmetric=True)
        result = check_stationarity(eye, j0_max=15)
        assert not result.holds

    def test_paper_model_is_stationary(self):
        rho = build_rho(params(modes=50))
        result = check_stationarity(rho, j0_max=10)
        assert result.holds and result.j0 <= 10
        assert result.norm < 1.0


class TestInitialCondition:
    def test_three_sigma_bound_enforced(self):
        p = params(modes=8)
        cov = build_covariance(p)
        rng = np.random.default_rng(0)
        bound = 3 * np.sqrt(np.diag(cov.matrix))
        for _ in range(200):
            draw = sample_initial_condition(cov, rng)
            assert (np.abs(draw) <= bound).all()

    def test_empirical_variance_matches_truncated_normal_oracle(self):
        p = params(modes=2)
        cov = build_covariance(p)
        rng = np.random.default_rng(314)
        draws = np.array([sample_initial_condition(cov, rng)[0] for _ in range(100_000)])
        expected = cov.matrix[0, 0] * truncated_normal_variance_factor()
        assert draws.var() == pytest.approx(expected, rel=0.02)

    def test_deterministic_given_seed(self):
        p = params(modes=6)
        cov = build_covariance(p)
        a = sample_initial_condition(cov, np.random.default_rng(7))
        b = sample_initial_condition(cov, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestSimulation:
    def test_needs_two_steps(self):
        p = params(modes=3)
        rho = build_rho(p)
        noise = SpectralOperator(np.eye(3), symmetric=True)
        with pytest.raises(ValueError, match="n >= 2"):
            simulate_trajectory(1, rho, noise, np.zeros(3), np.random.default_rng(0))

    def test_iid_case_has_vanishing_lag_one_cross_moments(self):
        n = 10_000
        zero_rho = SpectralOperator(np.zeros((3, 3)), symmetric=True)
        noise = SpectralOperator(np.eye(3), symmetric=True)
        traj = simulate_trajectory(n, zero_rho, noise, np.zeros(3), np.random.default_rng(5))
        x = traj.states
        lag1 = x[1:].T @ x[:-1] / (len(traj) - 1)
        assert np.abs(lag1).max() < 4 / math.sqrt(n)

    def test_noiseless_recursion_is_geometric(self):
        rho = SpectralOperator(0.5 * np.eye(3), symmetric=True)
        noise = SpectralOperator(np.zeros((3, 3)), symmetric=True)
        x0 = np.array([1.0, 0.0, 0.0])
        traj = simulate_trajectory(10, rho, noise, x0, np.random.default_rng(0))
        for k in range(11):
            expected = np.array([0.5**k, 0.0, 0.0])
            assert np.array_equal(traj.states[k], expected)

    def test_empirical_covariance_matches_lyapunov_fixed_point(self):
        # statistical regression test with a pinned seed; tolerance is 5%
        # relative with an absolute floor for the near-zero entries, whose
        # relative error is not resolvable at this sample size
        p = params(modes=5)
        cov = build_covariance(p)
        rho = build_rho(p)
        noise = build_noise_covariance(p, cov, rho)
        sigma = lyapunov_fixed_point(rho.matrix, noise.matrix)
        n = 100_000
        rng = np.random.default_rng(1729)
        x0 = sample_initial_condition(cov, rng)
        traj = simulate_trajectory(n, rho, noise, x0, rng)
        emp = traj.states[:n].T @ traj.states[:n] / n
        tol = 0.05 * np.maximum(np.abs(sigma), 0.1 * np.abs(sigma).max())
        assert (np.abs(emp - sigma) <= tol).all()

    def test_library_solver_agrees_with_fixed_point_oracle(self):
        p = params(modes=5)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        direct = stationary_covariance(rho, noise)
        iterated = lyapunov_fixed_point(rho.matrix, noise.matrix)
        assert np.abs(direct - iterated).max() < 1e-12

    def test_library_solver_agrees_with_fixed_point_oracle_at_two_hundred_modes(self):
        # a Kronecker-product solve would need a 40000 x 40000 matrix here
        p = params(modes=200)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        direct = stationary_covariance(rho, noise)
        iterated = lyapunov_fixed_point(rho.matrix, noise.matrix)
        assert np.abs(direct - iterated).max() < 1e-12

    def test_burn_in_advances_the_recursion(self):
        p = params(modes=4)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        plain = simulate_trajectory(5, rho, noise, np.zeros(4), np.random.default_rng(3), burn_in=0)
        burned = simulate_trajectory(5, rho, noise, np.zeros(4), np.random.default_rng(3), burn_in=100)
        assert not np.allclose(plain.states[0], burned.states[0])
        assert np.abs(burned.states[0]).max() > 0

    @pytest.mark.parametrize("burn_in", [0, 7])
    @pytest.mark.parametrize("n", [2, 3, 15, 16, 17, 1000])
    @pytest.mark.parametrize("operator", ["reference", "non_normal"])
    def test_blocked_recursion_matches_stepped_oracle(self, operator, n, burn_in):
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal(rho.dim)
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        states = simulate_trajectory(n, rho, noise, x0, rng, burn_in=burn_in).states
        expected = stepped_trajectory(n, rho.matrix, noise.sqrt, x0, oracle_rng, burn_in)
        assert states.shape == expected.shape == (n + 1, rho.dim)
        assert np.abs(states - expected).max() <= 1e-13 * np.abs(expected).max()
        # the generator stream is consumed exactly as by the stepped loop
        assert rng.standard_normal() == oracle_rng.standard_normal()

    @pytest.mark.parametrize("burn_in", [0, 7])
    @pytest.mark.parametrize("n", [2, 17, 961, 1000])
    @pytest.mark.parametrize("operator", ["reference", "non_normal"])
    def test_stacked_paths_match_their_own_stepped_oracles(self, operator, n, burn_in):
        # 961 steps fill 31 blocks of s = 31 exactly; 1000 leave a tail of 8
        # after the last anchor (with burn-in 7 the blocks shift)
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal((3, rho.dim))
        rngs = [np.random.default_rng([n, r]) for r in range(3)]
        oracle_rngs = [np.random.default_rng([n, r]) for r in range(3)]
        paths = simulate_paths(n, rho, noise, x0, rngs, burn_in=burn_in)
        assert paths.shape == (3, n + 1, rho.dim)
        for path, start, rng, oracle_rng in zip(paths, x0, rngs, oracle_rngs):
            expected = stepped_trajectory(n, rho.matrix, noise.sqrt, start, oracle_rng, burn_in)
            assert np.abs(path - expected).max() <= 1e-13 * np.abs(expected).max()
            assert rng.standard_normal() == oracle_rng.standard_normal()

    @pytest.mark.parametrize("operator", ["reference", "reference_8", "non_normal"])
    def test_stages_compose_to_simulate_paths_bit_for_bit(self, operator):
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal((3, rho.dim))
        # draw_paths draws in pieces of DRAW_ROWS = 256 rows, the last taking the
        # leftover: 107, 255 and 511 steps are one piece, 256 and 512 whole
        # pieces, and 513 and 8000 end in a piece longer than 256 rows
        for steps in (107, 255, 256, 511, 512, 513, 8000):
            drawn = draw_paths(noise, x0, [np.random.default_rng([7, r]) for r in range(3)], steps)
            assert drawn.shape == (3, steps + 1, rho.dim)
            for r, path in enumerate(drawn):
                # each path's innovations are one whole-block gemm with the root, whatever the pieces
                normals = np.random.default_rng([7, r]).standard_normal((steps, rho.dim))
                assert np.array_equal(path[0], x0[r])
                assert np.array_equal(path[1:], normals @ noise.sqrt.T), steps
            stepped = step_paths(drawn, rho)
            assert stepped is drawn
            rngs = [np.random.default_rng([7, r]) for r in range(3)]
            assert np.array_equal(stepped[:, 7:], simulate_paths(steps - 7, rho, noise, x0, rngs, burn_in=7))

    def test_reproducible_bit_for_bit(self):
        p = params(modes=6)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(0)
            x0 = sample_initial_condition(build_covariance(p), rng)
            runs.append(simulate_trajectory(50, rho, noise, x0, rng).states)
        assert np.array_equal(runs[0], runs[1])


class TestGridEvaluation:
    # spline mode scores through one matrix, the splines of the unit coefficient vectors,
    # which relies on the spline evaluation being linear and row-wise on a stack
    def test_zero_and_unit_coefficients(self):
        assert np.abs(evaluate_via_spline(np.zeros(4), 0.0372, 256)).max() == 0.0
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        t = (np.arange(256) + 0.5) / 256
        assert np.allclose(evaluate_via_spline(e1, 0.0372, 256), math.sqrt(2) * np.sin(math.pi * t), atol=1e-5)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        mixed = evaluate_via_spline(2.5 * x - 0.75 * y, 0.0372, 128)
        parts = 2.5 * evaluate_via_spline(x, 0.0372, 128) - 0.75 * evaluate_via_spline(y, 0.0372, 128)
        assert np.abs(mixed - parts).max() < 1e-12

    @pytest.mark.parametrize("modes", [5, 50])
    def test_stack_evaluates_each_row_as_one_vector(self, modes):
        rows = [evaluate_via_spline(e, 0.0372, 2048) for e in np.eye(modes)]
        assert np.array_equal(evaluate_via_spline(np.eye(modes), 0.0372, 2048), rows)

    def test_spline_mode_tracks_direct_evaluation(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(5) * 0.3
        direct = grid_values(x, 2048)
        splined = evaluate_via_spline(x, 0.0372, 2048)
        # the coarse grid resolves the low-frequency modes used here
        assert np.abs(direct - splined).max() < 0.05 * max(np.abs(direct).max(), 1e-9)


def test_cli_import_loads_no_scipy():
    # spline mode and the stationary-covariance solve import scipy on first use
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = "import sys, banach_ar1.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


def test_package_import_leaves_spline_module_unloaded():
    # scipy.interpolate is only needed by spline mode and dominates import time
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = "import sys, banach_ar1.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a pool of two or more workers needs ProcessPoolExecutor
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = "import sys, banach_ar1.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


class TestKernel:
    def test_symmetry_and_diagonal_positivity(self):
        cov = build_covariance(params(modes=20))
        surface = covariance_kernel_surface(cov, np.linspace(0.05, 0.95, 7))
        assert np.abs(surface - surface.T).max() < 1e-15
        assert (np.diag(surface) > 0).all()

    def test_trace_quadrature_matches_eigenvalue_sum(self):
        cov = build_covariance(params(modes=20))
        grid = (np.arange(512) + 0.5) / 512
        diag = np.diag(covariance_kernel_surface(cov, grid))
        assert diag.mean() == pytest.approx(np.diag(cov.matrix).sum(), rel=1e-3)

    def test_surface_matches_pointwise_kernel(self):
        cov = build_covariance(params(modes=10))
        pts = np.linspace(0, 1, 9)
        surface = covariance_kernel_surface(cov, pts)
        for a in (0, 4, 8):
            for b in (1, 5):
                assert surface[a, b] == pytest.approx(kernel_value(np.diag(cov.matrix), pts[a], pts[b]), abs=1e-14)


class TestPowerTable:
    @pytest.mark.parametrize("s", [1, 2, 31, 89])
    @pytest.mark.parametrize("operator", ["reference", "non_normal"])
    def test_blocks_match_explicit_powers(self, operator, s):
        rho, _ = recursion_operators(operator)
        stack, top = rho.power_table(s)
        p, a = rho.dim, rho.matrix.T
        assert stack.shape == (s * p, p) and top.shape == (p, p)
        assert not stack.flags.writeable and not top.flags.writeable
        for k, block in enumerate(stack.reshape(s, p, p)):
            expected = np.linalg.matrix_power(a, s - 1 - k)
            assert np.abs(block - expected).max() <= 1e-13 * np.abs(expected).max()
        expected = np.linalg.matrix_power(a, s)
        assert np.abs(top - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_cached_for_the_latest_size_only(self):
        rho, _ = recursion_operators("reference")
        first = rho.power_table(5)
        assert rho.power_table(5)[0] is first[0]
        other = rho.power_table(6)
        assert other[0].shape == (6 * rho.dim, rho.dim)
        assert rho._powers[0] == 6 and rho._powers[1] is other[0]
        rebuilt = rho.power_table(5)
        assert rebuilt[0] is not first[0]
        assert np.array_equal(rebuilt[0], first[0]) and np.array_equal(rebuilt[1], first[1])

    def test_two_threads_asking_for_two_sizes_each_get_their_own(self):
        rho, _ = recursion_operators("reference")
        p, a = rho.dim, rho.matrix.T
        expected = {s: np.linalg.matrix_power(a, s) for s in (40, 41)}
        start = threading.Barrier(2)
        failures = []

        def ask(s):
            start.wait()
            try:
                for _ in range(100):
                    stack, top = rho.power_table(s)  # each call evicts the other thread's table
                    assert stack.shape == (s * p, p)
                    assert np.abs(top - expected[s]).max() <= 1e-13 * np.abs(expected[s]).max()
            except Exception as exc:  # reported from the test's own thread below
                failures.append(exc)

        threads = [threading.Thread(target=ask, args=(s,)) for s in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


class TestPositiveDiagonal:
    def test_checked_once_and_read_only(self):
        cov = build_covariance(params(modes=6))
        diag = cov.positive_diagonal
        assert cov.positive_diagonal is diag
        assert not diag.flags.writeable
        assert np.array_equal(diag, np.diag(cov.matrix))

    @pytest.mark.parametrize(
        "matrix", [np.full((3, 3), 0.5), np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0])],
        ids=["non-diagonal", "zero-entry", "negative-entry"],
    )
    def test_initial_condition_rejects_bad_covariance(self, matrix):
        with pytest.raises(ValueError, match="diagonal with positive entries"):
            sample_initial_condition(SpectralOperator(matrix), np.random.default_rng(0))


class TestSymmetricSqrt:
    def test_square_reproduces_matrix(self):
        p = params(modes=10)
        noise = build_noise_covariance(p, build_covariance(p), build_rho(p))
        root = noise.sqrt
        assert np.abs(root @ root - noise.matrix).max() < 1e-12

    def test_computed_once_per_operator_and_read_only(self):
        p = params(modes=10)
        noise = build_noise_covariance(p, build_covariance(p), build_rho(p))
        assert noise.sqrt is noise.sqrt
        assert not noise.sqrt.flags.writeable

    def test_rejects_indefinite(self):
        indefinite = SpectralOperator(np.diag([1.0, -0.5]), symmetric=True)
        with pytest.raises(ValueError, match="positive semi-definite"):
            indefinite.sqrt
