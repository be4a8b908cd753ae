import inspect
import math
import subprocess
import sys
import tracemalloc
from itertools import islice, pairwise
from pathlib import Path

import numpy as np
import pytest

import banach_ar1
from banach_ar1.model import (
    BLOCK,
    PIECE_ROWS,
    ModelParams,
    NoiseCovarianceError,
    SpectralOperator,
    build_covariance,
    build_noise_covariance,
    build_rho,
    check_stationarity,
    covariance_eigenvalues,
    covariance_kernel_surface,
    eigenfunctions_on_grid,
    longest_piece,
    piece_edges,
    sample_initial_condition,
    simulate_trajectory,
    stationary_covariance,
    stream_paths,
)
from banach_ar1 import model

from oracles import (
    kernel_value,
    lyapunov_fixed_point,
    spline_table,
    stepped_trajectory,
    truncated_normal_variance_factor,
)

PAPER = dict(gamma=1.21, beta_exponent=0.6)


def params(modes=5, **kw):
    merged = {**PAPER, "modes": modes, "grid_len": 2048, **kw}
    return ModelParams(**merged)


def recursion_operators(kind):
    """(rho, noise) of the reference model at 50 or 8 modes, or the small 4-mode pair (MIXED_SIGN)."""
    if kind in ("reference", "reference_8"):
        p = params(modes=50 if kind == "reference" else 8)
        rho = build_rho(p)
        return rho, build_noise_covariance(p, build_covariance(p), rho)
    # the slowest scalar recursions, of both signs, in a basis far from the coordinate axes
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    m = (q * [0.995, -0.99, 0.6, -0.2]) @ q.T
    rho = SpectralOperator(0.5 * (m + m.T))
    assert np.abs(rho.step_table.basis).min() > 0.01
    return rho, SpectralOperator(0.1 * np.eye(4) + 0.02)


# The small 4-mode case: a symmetric rho with eigenvalues near +-1 and the
# noise 0.1 I + 0.02.  Its rho replaced a non-normal one, whose case id it
# keeps, when the steps moved into rho's eigenbasis, which only a symmetric
# rho has (non_normal_rho below is refused).
MIXED_SIGN = pytest.param("mixed_sign", id="non_normal")


def non_normal_rho():
    """Norm above 1 but spectral radius below 1: not symmetric, so it has no real orthonormal eigenbasis."""
    rho = SpectralOperator(np.diag([0.9, -0.5, 0.3, 0.7]) + np.diag([1.5, 1.5, 1.5], 1))
    assert np.linalg.norm(rho.matrix, 2) > 1 > np.abs(np.linalg.eigvals(rho.matrix)).max()
    return rho


def stitched_paths(n, rho, noise, x0, rngs, burn_in=0):
    """Every state X_0..X_n of a stack of paths: the pieces of stream_paths stitched together."""
    paths = np.empty((len(rngs), n + 1, rho.dim))
    for states, first in stream_paths(n, rho, noise, x0, rngs, burn_in):
        paths[:, first : first + states.shape[1]] = states
    return paths


class TestModelParams:
    def test_exponent_constraint(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=1.0, beta_exponent=0.6)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=0.9, beta_exponent=0.4)

    def test_grid_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ModelParams(gamma=1.21, beta_exponent=0.6, grid_len=1000)

    def test_modes_at_most_grid_len(self):
        # sine modes above grid_len alias at the grid midpoints
        assert ModelParams(gamma=1.21, beta_exponent=0.6, modes=256, grid_len=256).modes == 256
        with pytest.raises(ValueError, match=r"modes must lie in \[2, grid_len = 256\], got 257"):
            ModelParams(gamma=1.21, beta_exponent=0.6, modes=257, grid_len=256)
        with pytest.raises(ValueError, match="got 1"):
            ModelParams(gamma=1.21, beta_exponent=0.6, modes=1)

    def test_tables_of_modes_by_grid_len_are_capped(self):
        # 64 x 2^21 is the largest table allowed, 1 GiB; 2^40 points would need 8.8 TB per table
        assert model.MAX_TABLE_DOUBLES == 2**27
        assert ModelParams(gamma=1.21, beta_exponent=0.6, modes=64, grid_len=2**21).grid_len == 2**21
        with pytest.raises(ValueError, match="^modes x grid_len = 136,314,880 doubles, above 134,217,728$"):
            ModelParams(gamma=1.21, beta_exponent=0.6, modes=65, grid_len=2**21)
        with pytest.raises(ValueError, match="^modes x grid_len = 54,975,581,388,800 doubles"):
            ModelParams(gamma=1.21, beta_exponent=0.6, grid_len=2**40)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(gamma=math.inf), r"and gamma finite, got gamma=inf"),
            (dict(width=math.nan), r"^width must be finite and positive with .* got nan$"),
            (dict(width=math.inf), r"^width must be finite and positive with .* got inf$"),
            (dict(width=-0.4), r"^width must be finite and positive with .* got -0.4$"),
            (dict(width=1e-200), r"^width must be finite .* \(modes-1\)\*\*2 / width\*\*2 finite, got 1e-200$"),
            (dict(width=1e300), r"^width must be finite .* got 1e\+300$"),
            (dict(gamma=400.0), r"^gamma = 400.0 is too large: the covariance eigenvalues"),
        ],
        ids=["gamma-inf", "width-nan", "width-inf", "width-negative", "width-squared-underflows",
             "width-squared-overflows", "spectrum-underflows"],
    )
    def test_rejects_values_that_no_model_can_be_built_from(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelParams(**{**PAPER, **fields})


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

    def test_narrow_band_and_its_powers_hold_no_subnormal_entry(self):
        # exp(-|j-h|/W) underflows past the smallest normal double at W = 0.05,
        # and so do entries of rho's eigenvectors and of the noise root in their basis
        p = params(modes=50, width=0.05)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)

        def subnormal(table):
            return (table != 0) & (np.abs(table) < np.finfo(float).tiny)

        assert (rho.matrix == 0).any()
        assert subnormal(rho.eigen.vectors).any() and subnormal(noise.sqrt @ rho.eigen.vectors).any()
        for table in (rho.matrix, *rho.step_table, model._draw_map(rho, noise)):
            assert not subnormal(table).any()


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
        full = SpectralOperator(np.full((3, 3), 0.5))
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
        half = SpectralOperator(0.5 * np.eye(4))
        result = check_stationarity(half)
        assert result == (True, 1, 0.5)

    def test_identity_never_contracts(self):
        eye = SpectralOperator(np.eye(4))
        result = check_stationarity(eye, j0_max=15)
        assert not result.holds

    def test_paper_model_is_stationary(self):
        rho = build_rho(params(modes=50))
        result = check_stationarity(rho, j0_max=10)
        assert result.holds and result.j0 == 1
        # the spectral norm of a symmetric matrix is its largest |eigenvalue|
        assert result.norm == pytest.approx(np.linalg.norm(rho.matrix, 2), rel=1e-13)
        assert result.norm < 1.0

    def test_gate_failure_reports_the_last_power(self):
        # eigenvalues 1.1 and 0.5: rho^j has norm 1.1^j, never below 1
        rho = SpectralOperator(np.diag([1.1, 0.5]))
        result = check_stationarity(rho, j0_max=3)
        assert not result.holds and result.j0 == 3
        assert result.norm == pytest.approx(np.linalg.norm(np.linalg.matrix_power(rho.matrix, 3), 2), rel=1e-14)

    def test_asymmetric_rho_is_refused(self):
        # the gate reads rho's symmetric eigendecomposition, as the steps do
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            check_stationarity(non_normal_rho())


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
        noise = SpectralOperator(np.eye(3))
        with pytest.raises(ValueError, match="n >= 2"):
            simulate_trajectory(1, rho, noise, np.zeros(3), np.random.default_rng(0))

    def test_iid_case_has_vanishing_lag_one_cross_moments(self):
        n = 10_000
        zero_rho = SpectralOperator(np.zeros((3, 3)))
        noise = SpectralOperator(np.eye(3))
        traj = simulate_trajectory(n, zero_rho, noise, np.zeros(3), np.random.default_rng(5))
        x = traj.states
        lag1 = x[1:].T @ x[:-1] / (len(traj) - 1)
        assert np.abs(lag1).max() < 4 / math.sqrt(n)

    def test_noiseless_recursion_is_geometric(self):
        rho = SpectralOperator(0.5 * np.eye(3))
        noise = SpectralOperator(np.zeros((3, 3)))
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

    @pytest.mark.parametrize(
        "modes, width", [(3, 0.4), (5, 0.4), (9, 0.4), (20, 0.4), (50, 0.4), (200, 0.4), (50, 0.05)]
    )
    def test_stationary_covariance_agrees_with_fixed_point_oracle(self, modes, width):
        # at width 0.4 the innovation covariance is clipped to PSD, at 0.05 it is PSD as built
        p = params(modes=modes, width=width)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        direct = stationary_covariance(rho, noise)
        iterated = lyapunov_fixed_point(rho.matrix, noise.matrix)
        assert np.array_equal(direct, direct.T)
        assert np.abs(direct - iterated).max() < 1e-12

    def test_stationary_covariance_needs_a_symmetric_rho(self):
        with pytest.raises(ValueError, match="not symmetric"):
            stationary_covariance(non_normal_rho(), SpectralOperator(np.eye(4)))

    def test_stationary_covariance_needs_operators_of_one_size(self):
        with pytest.raises(ValueError):
            stationary_covariance(SpectralOperator(0.5 * np.eye(3)), SpectralOperator(np.eye(4)))

    @pytest.mark.parametrize("radius", [1.0, -1.0, 1.5])
    def test_stationary_covariance_needs_spectral_radius_below_one(self, radius):
        rho = SpectralOperator(np.diag([0.5, radius, 0.2]))
        with pytest.raises(ValueError, match="spectral radius .* is not below 1"):
            stationary_covariance(rho, SpectralOperator(np.eye(3)))

    def test_burn_in_advances_the_recursion(self):
        p = params(modes=4)
        rho = build_rho(p)
        noise = build_noise_covariance(p, build_covariance(p), rho)
        plain = simulate_trajectory(5, rho, noise, np.zeros(4), np.random.default_rng(3), burn_in=0)
        burned = simulate_trajectory(5, rho, noise, np.zeros(4), np.random.default_rng(3), burn_in=100)
        assert not np.allclose(plain.states[0], burned.states[0])
        assert np.abs(burned.states[0]).max() > 0

    # a path is cut at every PIECE_ROWS steps of its burn-in and every
    # PIECE_ROWS steps after it: PIECE_ROWS - 1 steps are one piece, PIECE_ROWS
    # + 1 two, the second of one step, 2 PIECE_ROWS + 37 and 1000 three and
    # four, and 4097 and 8229 steps 17 and 33 pieces.  A piece of n < PIECE_ROWS
    # steps has ceil(n / BLOCK) = 1, 1, 1, 1, 1, 1, 2, 2 and 16 blocks, the
    # last one full at 16 only, and a full piece 16 anchors; burn-in
    # PIECE_ROWS + 3 runs one full piece and one of 3 steps before X_0
    @pytest.mark.parametrize("burn_in", [0, 7, PIECE_ROWS + 3])
    @pytest.mark.parametrize(
        "n",
        [
            2, 3, 5, 9, 15, 16, 17, 21, PIECE_ROWS - 1, PIECE_ROWS + 1, PIECE_ROWS + 5, 2 * PIECE_ROWS - 1,
            2 * PIECE_ROWS + 37, 1000, 4097, 8229,
        ],
    )
    @pytest.mark.parametrize("operator", ["reference", MIXED_SIGN])
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

    @pytest.mark.parametrize("burn_in", [0, 7, PIECE_ROWS + 3])
    @pytest.mark.parametrize(
        "n",
        [
            2, 3, 5, 9, 15, 17, 21, PIECE_ROWS - 1, PIECE_ROWS + 1, PIECE_ROWS + 5, 2 * PIECE_ROWS - 1,
            2 * PIECE_ROWS + 37, 961, 1000, 4097, 8229,
        ],
    )
    @pytest.mark.parametrize("operator", ["reference", MIXED_SIGN])
    def test_stacked_paths_match_their_own_stepped_oracles(self, operator, n, burn_in):
        # every path steps in blocks of BLOCK = 16 states: a path shorter
        # than one block is one partial block, PIECE_ROWS + 1 steps end in a
        # piece of one state, and 2 PIECE_ROWS - 1 steps in a piece whose last
        # block has 15 states (the burn-ins add pieces of 7, or 256 and 3, steps)
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal((3, rho.dim))
        rngs = [np.random.default_rng([n, r]) for r in range(3)]
        oracle_rngs = [np.random.default_rng([n, r]) for r in range(3)]
        paths = stitched_paths(n, rho, noise, x0, rngs, burn_in=burn_in)
        assert paths.shape == (3, n + 1, rho.dim)
        for path, start, rng, oracle_rng in zip(paths, x0, rngs, oracle_rngs):
            expected = stepped_trajectory(n, rho.matrix, noise.sqrt, start, oracle_rng, burn_in)
            assert np.abs(path - expected).max() <= 1e-13 * np.abs(expected).max()
            assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_asymmetric_rho_is_refused(self):
        # the steps run in rho's orthonormal eigenbasis, which only a symmetric rho has
        rho = non_normal_rho()
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            simulate_trajectory(5, rho, SpectralOperator(np.eye(4)), np.zeros(4), np.random.default_rng(0))
        nearly = SpectralOperator(np.eye(4) + np.diag([2e-12, 0.0, 0.0], 1))
        with pytest.raises(ValueError, match="not symmetric within 1e-12"):
            nearly.step_table
        assert SpectralOperator(np.eye(4) + np.diag([5e-13, 0.0, 0.0], 1)).step_table.values.shape == (4,)

    @pytest.mark.parametrize("operator", ["reference", "reference_8", MIXED_SIGN])
    def test_pieces_carry_their_seams_bit_for_bit(self, operator):
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal((3, rho.dim))
        # a path of at most PIECE_ROWS steps without burn-in is one piece
        for steps in (9, 107, PIECE_ROWS - 1, PIECE_ROWS):
            assert list(piece_edges(steps)) == [0, steps]
            pieces = list(stream_paths(steps, rho, noise, x0, [np.random.default_rng([7, r]) for r in range(3)]))
            assert [(states.shape, first) for states, first in pieces] == [((3, steps + 1, rho.dim), 0)]
            assert np.array_equal(pieces[0][0][:, 0], x0)
        # a longer one is cut at every k PIECE_ROWS of the burn-in, at its end
        # and at every PIECE_ROWS steps after it, the last piece taking the
        # rest; each piece starts from the last state of the one before
        burn_in, n = PIECE_ROWS + 7, 4 * PIECE_ROWS + 30
        edges = list(piece_edges(n, burn_in))
        assert edges == [0, PIECE_ROWS, burn_in, *(burn_in + k * PIECE_ROWS for k in range(1, 5)), burn_in + n]
        rngs = [np.random.default_rng([7, r]) for r in range(3)]
        pieces = [(states.copy(), first) for states, first in stream_paths(n, rho, noise, x0, rngs, burn_in)]
        assert [first for _, first in pieces] == [edge - burn_in for edge in edges[2:-1]]
        for (before, _), (after, _) in pairwise(pieces):
            assert np.array_equal(after[:, 0], before[:, -1])
        # the burn-in is cut where a path of burn_in steps is, so X_0 is the
        # last state of that path, drawn from the same streams
        rngs = [np.random.default_rng([7, r]) for r in range(3)]
        burnt = stitched_paths(burn_in, rho, noise, x0, rngs)
        rngs = [np.random.default_rng([7, r]) for r in range(3)]
        assert np.array_equal(next(stream_paths(n, rho, noise, x0, rngs, burn_in))[0][:, 0], burnt[:, -1])

    @pytest.mark.parametrize("burn_in", [0, 1, 7, PIECE_ROWS - 1, PIECE_ROWS, 3 * PIECE_ROWS + 5])
    def test_longest_piece_is_the_longest_between_the_edges(self, burn_in):
        for n in [*range(2, 4 * PIECE_ROWS + 3), 10 * PIECE_ROWS + 77]:
            edges = list(piece_edges(n, burn_in))
            assert longest_piece(n, burn_in) == max(np.diff(edges)), n
        # a path of 10**20 steps starts cutting its seams at once
        seams = [*range(0, burn_in, PIECE_ROWS), burn_in, burn_in + PIECE_ROWS]
        assert list(islice(piece_edges(10**20, burn_in), len(seams))) == seams
        assert longest_piece(10**20, burn_in) == PIECE_ROWS

    @pytest.mark.parametrize("burn_in", [1, 7, PIECE_ROWS - 1, PIECE_ROWS, 3 * PIECE_ROWS + 5])
    def test_burn_in_ends_at_a_seam_and_no_piece_is_longer_than_piece_rows(self, burn_in):
        for n in (2, 3, PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1, 2 * PIECE_ROWS + 37, 1000):
            edges = list(piece_edges(n, burn_in))
            assert burn_in in edges, n
            assert max(np.diff(edges)) <= PIECE_ROWS, n

    @pytest.mark.parametrize("burn_in", [0, PIECE_ROWS + 7])
    @pytest.mark.parametrize("n", [2, 15, 16, 17, PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1, 2 * PIECE_ROWS + 37])
    def test_stream_doubles_counts_what_stream_paths_allocates(self, n, burn_in):
        # stream_doubles is what _pieces' own lines hold for the whole stream:
        # the piece buffer, the stage buffer (a path's normals, then its
        # stepped block columns), the block anchors of the longest piece (a
        # p-row per block and path) and the carried start, all per path.
        # Their numpy blocks are summed each time the loop draws a path and
        # each time it yields a piece, so a piece only run in the burn-in is
        # checked too; the draw map is made on _draw_map's line, outside _pieces
        source, first_line = inspect.getsourcelines(model._pieces)
        own_lines = range(first_line, first_line + len(source))
        numpy_blocks = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

        def held():
            traces = tracemalloc.take_snapshot().filter_traces([numpy_blocks]).traces
            frames = [(trace.traceback[0], trace.size) for trace in traces]
            return sum(size for frame, size in frames if frame.filename == model.__file__ and frame.lineno in own_lines)

        class Watched:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                seen.append(held())
                return self.rng.standard_normal(out=out)

        rows = max(np.diff(list(piece_edges(n, burn_in))))
        columns = math.ceil(rows / BLOCK) * BLOCK
        for kind in ("reference_8", "reference"):
            rho, noise = recursion_operators(kind)
            p = rho.dim
            row = p * max(rows + 1, columns)  # a full piece's states and the carried one, or its block columns
            model._draw_map(rho, noise)  # fills the step table and the noise root
            for paths in range(1, 6):
                counted = model.stream_doubles(n, burn_in, p, paths)
                assert counted == paths * (row + p * columns + p + p * (columns // BLOCK))
                seen = []
                rngs = [Watched(np.random.default_rng([2, r])) for r in range(paths)]
                tracemalloc.start()
                try:
                    for states, _ in stream_paths(n, rho, noise, np.zeros((paths, p)), rngs, burn_in):
                        assert states.base.size == paths * row
                        seen.append(held())
                finally:
                    tracemalloc.stop()
                assert set(seen) == {8 * counted}, (kind, paths)
                # and the traced peak of a plain stream, beyond the test's x0 and
                # array headers: while the draw map is made, it and its flush's
                # temporary; then the count, the draw map and stage 3's
                # temporaries, which outgrow the anchor stage's (two p-rows per
                # path): the stack's anchors times lam, and the two buffers of
                # that size that numpy makes for the strided add into the stack
                rngs = [np.random.default_rng([2, r]) for r in range(paths)]
                bases = set()
                tracemalloc.start()
                try:
                    for states, _ in stream_paths(n, rho, noise, np.zeros((paths, p)), rngs, burn_in):
                        bases.add(id(states.base))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(bases) == 1
                streaming = counted + p * p + 3 * paths * p * (columns // BLOCK)
                assert 8 * counted <= peak <= 8 * (paths * p + max(2 * p * p, streaming)) + 8192, (kind, paths, peak)

    @pytest.mark.parametrize("steps", [1, 50, PIECE_ROWS, 2 * PIECE_ROWS - 1])
    @pytest.mark.parametrize("operator", ["reference", MIXED_SIGN])
    def test_stacked_draw_matches_each_path_drawn_alone(self, operator, steps):
        # steps + 1 steps: one piece of 2 or 51, or pieces of 256 and 1 or 256 and 256
        rho, noise = recursion_operators(operator)
        x0 = np.random.default_rng(99).standard_normal((4, rho.dim))
        stack = stitched_paths(steps + 1, rho, noise, x0, [np.random.default_rng([3, r]) for r in range(4)])
        for r in range(4):
            alone = stitched_paths(steps + 1, rho, noise, x0[r : r + 1], [np.random.default_rng([3, r])])
            assert np.array_equal(stack[r], alone[0]), r

    @pytest.mark.parametrize("n, burn_in", [(2 * PIECE_ROWS + 37, 0), (40, PIECE_ROWS + 7)])
    def test_piece_loop_calls_do_not_grow_with_the_stack(self, monkeypatch, n, burn_in):
        # each stage of a piece is one numpy call over the whole stack (the
        # draw map, the block ends, the Toeplitz product and the rotation
        # back are its matmuls); only the generator fills run path by path
        rho, noise = recursion_operators("reference_8")
        calls = []
        matmul = np.matmul

        def counted_matmul(*args, **kwargs):
            calls.append("matmul")
            return matmul(*args, **kwargs)

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                calls.append("fill")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np, "matmul", counted_matmul)
        pieces = len(list(piece_edges(n, burn_in))) - 1
        for paths in (1, 5):
            calls.clear()
            rngs = [Counted(np.random.default_rng([6, r])) for r in range(paths)]
            for _ in stream_paths(n, rho, noise, np.zeros((paths, rho.dim)), rngs, burn_in):
                pass
            assert (calls.count("matmul"), calls.count("fill")) == (4 * pieces, paths * pieces), paths

    def test_eigenbasis_stack_may_share_each_paths_memory_with_its_states(self):
        # each path's piece is drawn into its own row of one buffer and joined
        # to its anchors there, stepped into its row of the stage buffer, and
        # rotated back into its row, which then holds its states: the row has
        # room for a full piece's states and the carried one, and for no
        # separate eigenbasis stack
        rho, noise = recursion_operators("reference_8")
        p = rho.dim
        x0 = np.random.default_rng(99).standard_normal((3, p))
        rngs = [np.random.default_rng([5, r]) for r in range(3)]
        bases = []
        for states, _ in stream_paths(2 * PIECE_ROWS + 37, rho, noise, x0, rngs):
            bases.append(states.base)
            for r, q in np.ndindex(3, 3):
                assert np.shares_memory(states[r], states.base[q]) == (r == q)
        assert all(base is bases[0] for base in bases)
        assert bases[0].shape == (3, p * (PIECE_ROWS + 1))

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


class TestSplineTable:
    # spline mode scores through the splines of the modes, tabulated by eigenfunctions_on_grid
    @pytest.mark.parametrize(
        "modes, coarse_step, grid_len",
        [(50, 0.0372, 2048), (200, 0.01, 2048), (20, 0.0372, 1024), (5, 0.0625, 256), (5, 1 / 1024, 2048)],
    )
    def test_matches_the_thomas_loop_oracle(self, modes, coarse_step, grid_len):
        table = eigenfunctions_on_grid(modes, grid_len, coarse_step)
        assert table.shape == (modes, grid_len)
        assert np.abs(table - spline_table(modes, coarse_step, grid_len)).max() < 1e-13

    @pytest.mark.parametrize("modes, coarse_step", [(50, 0.0372), (200, 0.01)])
    def test_matches_scipy_natural_spline(self, modes, coarse_step):
        interpolate = pytest.importorskip("scipy.interpolate")
        nodes = np.linspace(0.0, 1.0, round(1 / coarse_step) + 1)
        t = (np.arange(2048) + 0.5) / 2048
        values = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, modes + 1), np.pi * nodes))
        expected = interpolate.CubicSpline(nodes, values, axis=-1, bc_type="natural")(t)
        assert np.abs(eigenfunctions_on_grid(modes, 2048, coarse_step) - expected).max() < 1e-13

    def test_second_derivative_vanishes_at_both_ends(self):
        # on a node interval the spline is a cubic, so its central second difference is exact,
        # and S''(0) = 2 S''(d) - S''(2 d) for the linear S''
        values = np.random.default_rng(3).standard_normal((4, 6))
        d = 0.05
        ends = np.array([0.0, d, 2 * d, 3 * d, 1 - 3 * d, 1 - 2 * d, 1 - d, 1.0])
        s = model._natural_spline(values, ends)
        second = (s[:, :-2] - 2 * s[:, 1:-1] + s[:, 2:]) / d**2  # S'' at d, 2d, ..., 1 - d
        at_zero = 2 * second[:, 0] - second[:, 1]
        at_one = 2 * second[:, -1] - second[:, -2]
        assert np.abs(second[:, [0, -1]]).max() > 1.0
        assert np.abs(at_zero).max() < 1e-9 and np.abs(at_one).max() < 1e-9

    def test_linear_node_values_are_reproduced(self):
        nodes = np.linspace(0.0, 1.0, 27)
        t = (np.arange(1024) + 0.5) / 1024
        spline = model._natural_spline(np.array([3.0 + 2.0 * np.arange(27), 1.0 - 0.5 * nodes]), t)
        assert np.abs(spline - [3.0 + 52.0 * t, 1.0 - 0.5 * t]).max() < 1e-13

    def test_tracks_the_modes_on_the_grid(self):
        # the coarse grid resolves the low-frequency modes
        assert np.abs(eigenfunctions_on_grid(5, 2048, 0.0372) - eigenfunctions_on_grid(5, 2048)).max() < 0.05

    @pytest.mark.parametrize("coarse_step", [0.5, 0.00097, 0.0])
    def test_coarse_step_outside_the_config_range_is_refused(self, coarse_step):
        with pytest.raises(ValueError, match=r"coarse_step must lie in \[1/1024, 0\.5\)"):
            eigenfunctions_on_grid(5, 64, coarse_step)


@pytest.mark.parametrize(
    "imported, unloaded",
    [
        # nothing in the program imports scipy: numpy is its one runtime dependency
        ("banach_ar1.cli", "scipy"),
        # the chunks run on threads of one process
        ("banach_ar1.cli", "multiprocessing"),
    ],
)
def test_import_leaves_module_unloaded(imported, unloaded):
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = f"import sys, {imported}; print(any(m.split('.')[0] == {unloaded!r} for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "call",
    [
        "from banach_ar1 import model\n"
        "p = model.ModelParams(gamma=1.21, beta_exponent=0.6)\n"
        "rho = model.build_rho(p)\n"
        "model.stationary_covariance(rho, model.build_noise_covariance(p, model.build_covariance(p), rho))\n",
        "from banach_ar1 import cli\n"
        "assert cli.main(['run', '--config', {config!r}, '--out', {out!r}]) == 0\n",
        "from banach_ar1 import cli\n"
        "assert cli.main(['run', '--config', {spline!r}, '--out', {out!r}]) == 0\n",
    ],
    ids=["stationary-covariance", "grid-mode-run", "spline-mode-run"],
)
def test_model_solves_leave_scipy_unloaded(tmp_path, call):
    # the stationary covariance is solved in rho's eigenbasis and the spline by numpy
    config = tmp_path / "tiny.cfg"
    config.write_text("modes = 5\ngrid_len = 64\nsample_sizes = 20, 40\nreplications = 2\n")
    spline = tmp_path / "spline.cfg"
    spline.write_text(config.read_text() + "spline_mode = true\n")
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = call.format(config=str(config), spline=str(spline), out=str(tmp_path / "out")) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.splitlines()[-1] == "[]"


def test_validate_leaves_random_and_scipy_unloaded(tmp_path):
    # validate builds the run context only: it makes no generator and runs no scipy solver
    config = tmp_path / "desk.cfg"
    config.write_text("")
    src = Path(banach_ar1.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from banach_ar1 import cli\n"
        f"assert cli.main(['validate', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('secrets', 'scipy') or m.startswith('numpy.random')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.splitlines()[-1] == "[]"


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
    """rho.step_table: rho's eigenbasis and the powers of its eigenvalues that stream_paths steps with."""

    @pytest.mark.parametrize("s", [1, 2, 31, 89])
    @pytest.mark.parametrize("operator", ["reference", MIXED_SIGN])
    def test_blocks_match_explicit_powers(self, operator, s):
        rho, _ = recursion_operators(operator)
        basis, lam, toeplitz, ends, jump = rho.step_table
        p = rho.dim
        assert BLOCK == 16
        assert toeplitz.shape == (p, BLOCK, BLOCK) and ends.shape == (p, BLOCK, 1) and jump.shape == (p,)
        # rho = Q diag(lam) Q^T with orthonormal Q
        assert np.abs((basis * lam) @ basis.T - rho.matrix).max() <= 1e-13
        assert np.abs(basis.T @ basis - np.eye(p)).max() <= 1e-13

        def assert_power(computed, power):
            expected = np.array([math.prod([value] * power) for value in lam])
            expected[np.abs(expected) < np.finfo(float).tiny] = 0.0  # flushed
            assert np.abs(computed - expected).max() <= 1e-13 * np.abs(expected).max(), power

        for i in range(BLOCK):
            for m in range(BLOCK):
                if m >= i:
                    assert_power(toeplitz[:, i, m], m - i)
                else:
                    assert not toeplitz[:, i, m].any()
        assert np.array_equal(ends[:, :, 0], toeplitz[:, :, BLOCK - 1])
        power = lam**BLOCK
        assert np.array_equal(jump, np.where(np.abs(power) < np.finfo(float).tiny, 0.0, power))
        assert_power(jump, BLOCK)
        # lam^s, reached from the one table as the anchor carry and the block
        # fill reach it: a jump per whole block, the rest from the Toeplitz rows
        reached = toeplitz[:, 0, s % BLOCK]
        for _ in range(s // BLOCK):
            reached = reached * jump
        assert_power(reached, s)

    def test_computed_once_per_operator_and_read_only(self, monkeypatch):
        rho, noise = recursion_operators("reference")
        table = rho.step_table
        assert rho.step_table is table and rho.eigen.vectors is rho.eigen.vectors
        assert not any(array.flags.writeable for array in (*table, *rho.eigen))
        # the noise root in rho's eigenbasis is formed once per stream of two
        # pieces, a transpose view
        draw_maps, draw_map = [], model._draw_map

        def watched(*args):
            draw_maps.append(draw_map(*args))
            return draw_maps[-1]

        monkeypatch.setattr(model, "_draw_map", watched)
        for _ in stream_paths(PIECE_ROWS + 5, rho, noise, np.zeros((1, rho.dim)), [np.random.default_rng(0)]):
            pass
        assert len(draw_maps) == 1 and draw_maps[0].T.flags.c_contiguous
        assert np.array_equal(draw_maps[0], (noise.sqrt @ table.basis).T)

    def test_noise_root_comes_from_the_one_eigendecomposition(self):
        p = params(modes=10)
        noise = build_noise_covariance(p, build_covariance(p), build_rho(p))
        w, v = noise.eigen
        assert np.array_equal(noise.sqrt, (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


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

    def test_rejects_asymmetric(self):
        # eigh would read the lower triangle only and return the root of another matrix
        with pytest.raises(ValueError, match="not symmetric"):
            SpectralOperator(np.array([[1.0, 0.5], [0.0, 1.0]])).sqrt

    def test_rejects_indefinite(self):
        indefinite = SpectralOperator(np.diag([1.0, -0.5]))
        with pytest.raises(ValueError, match="positive semi-definite"):
            indefinite.sqrt
