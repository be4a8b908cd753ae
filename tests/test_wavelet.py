import math

import numpy as np
import pytest

from banach_ar1.wavelet import (
    GelfandWeights,
    WaveletBasisSpec,
    _periodic_index,
    WaveletCoeffs,
    besov_l1_norm,
    besov_sup_norm,
    coefficient_matrix,
    daubechies_filter,
    dwt_forward,
    dwt_inverse,
    make_gelfand_weights,
    weighted_norm,
)

from oracles import cascade_basis, oracle_norms

SPEC = WaveletBasisSpec(order=10, coarse_level=2, max_level=10)


def random_coeffs(spec, rng):
    return WaveletCoeffs(
        spec=spec,
        alpha=rng.standard_normal(2**spec.coarse_level),
        beta=[rng.standard_normal(2**j) for j in spec.levels],
    )


class TestDaubechiesFilter:
    def test_haar_is_analytic(self):
        h = daubechies_filter(1)
        assert np.allclose(h, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_order_two_matches_closed_form(self):
        h = daubechies_filter(2)
        s3 = math.sqrt(3)
        expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
        assert np.abs(h - expected).max() < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_sum_and_double_shift_orthogonality(self, order):
        h = daubechies_filter(order)
        assert len(h) == 2 * order
        assert abs(h.sum() - math.sqrt(2)) < 1e-12
        assert abs(h @ h - 1.0) < 1e-12
        for m in range(1, order):
            assert abs(h[: -2 * m] @ h[2 * m :]) < 1e-12

    def test_order_ten_matches_published_magnitudes(self):
        # standard db10 table (sign/order conventions vary between sources,
        # so compare the sorted magnitudes)
        table = [
            -0.026670057900950818, 0.18817680007762133, -0.5272011889309198,
            0.6884590394525921, -0.2811723436604265, -0.24984642432648865,
            0.19594627437659665, 0.12736934033574265, -0.09305736460380659,
            -0.07139414716586077, 0.02945753682194567, 0.03321267405893324,
            -0.0036065535669883944, -0.010733175482979604, -0.0013953517469940798,
            0.00199240529499085, 0.0006858566950046825, -0.0001164668549943862,
            -9.358867000108985e-05, -1.326420300235487e-05,
        ]
        h = daubechies_filter(10)
        assert np.abs(np.sort(np.abs(h)) - np.sort(np.abs(table))).max() < 1e-10

    @pytest.mark.parametrize("order", [0, 11, -3])
    def test_unsupported_order_errors(self, order):
        with pytest.raises(ValueError, match="1..10"):
            daubechies_filter(order)

    @pytest.mark.parametrize("order", [0, 11, -3])
    def test_basis_spec_rejects_the_same_orders(self, order):
        with pytest.raises(ValueError, match="1..10"):
            WaveletBasisSpec(order=order, coarse_level=2, max_level=10)


class TestTransform:
    def test_constant_signal_has_zero_details(self):
        for order in (1, 2, 4, 10):
            spec = WaveletBasisSpec(order=order, coarse_level=2, max_level=6)
            coeffs = dwt_forward(np.ones(spec.grid_len), spec)
            for b in coeffs.beta:
                assert np.abs(b).max() < 1e-8

    @pytest.mark.parametrize("order", [1, 2, 4, 10])
    @pytest.mark.parametrize("max_level", [3, 5, 8, 10, 11])
    def test_round_trip_and_parseval(self, order, max_level):
        # grid lengths 16 .. 4096
        spec = WaveletBasisSpec(order=order, coarse_level=2, max_level=max_level)
        rng = np.random.default_rng(order * 100 + max_level)
        x = rng.standard_normal(spec.grid_len)
        coeffs = dwt_forward(x, spec)
        assert np.abs(dwt_inverse(coeffs) - x).max() < 1e-10
        scaled = x * 2.0 ** (-(max_level + 1) / 2)
        flat = coeffs.flatten()
        assert abs(flat @ flat - scaled @ scaled) < 1e-10

    def test_smooth_signal_details_decay_with_level(self):
        t = (np.arange(SPEC.grid_len) + 0.5) / SPEC.grid_len
        coeffs = dwt_forward(np.sin(2 * np.pi * t), SPEC)
        maxima = [np.abs(b).max() for b in coeffs.beta]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] < 1e-10

    def test_zero_coeffs_invert_to_zero(self):
        coeffs = WaveletCoeffs(
            spec=SPEC, alpha=np.zeros(4), beta=[np.zeros(2**j) for j in SPEC.levels]
        )
        assert np.abs(dwt_inverse(coeffs)).max() == 0.0

    def test_unit_alpha_inverts_to_cascaded_scaling_vector(self):
        spec = WaveletBasisSpec(order=10, coarse_level=2, max_level=6)
        alpha = np.zeros(4)
        alpha[0] = 1.0
        coeffs = WaveletCoeffs(spec=spec, alpha=alpha, beta=[np.zeros(2**j) for j in spec.levels])
        samples = dwt_inverse(coeffs)
        expected = cascade_basis(spec)[0] * 2.0 ** ((spec.max_level + 1) / 2)
        assert np.abs(samples - expected).max() < 1e-10

    def test_wrong_length_errors(self):
        with pytest.raises(ValueError, match="power of two"):
            dwt_forward(np.zeros(100), SPEC)
        with pytest.raises(ValueError):
            dwt_forward(np.zeros(1024), SPEC)  # right power, wrong level count

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError):
            WaveletCoeffs(spec=SPEC, alpha=np.zeros(3), beta=[np.zeros(2**j) for j in SPEC.levels])

    def test_fast_path_matches_inner_product_oracle(self):
        spec = WaveletBasisSpec(order=10, coarse_level=2, max_level=7)  # L = 256
        rng = np.random.default_rng(9)
        x = rng.standard_normal(spec.grid_len)
        sup, l1, l2, coeffs = oracle_norms(x, spec)
        fast = dwt_forward(x, spec)
        assert np.abs(fast.flatten() - coeffs).max() < 1e-8
        assert abs(besov_sup_norm(fast) - sup) < 1e-8
        assert abs(besov_l1_norm(fast) - l1) < 1e-8
        flat = fast.flatten()
        assert abs(math.sqrt(flat @ flat) - l2) < 1e-8

    def test_coefficient_matrix_rows_are_single_transforms(self):
        rows = np.random.default_rng(10).standard_normal((3, SPEC.grid_len))
        w = coefficient_matrix(rows, SPEC)
        assert w.shape == (3, SPEC.grid_len)
        for row, coeffs in zip(rows, w):
            assert np.array_equal(coeffs, dwt_forward(row, SPEC).flatten())

    def test_periodic_index_is_cached_and_read_only(self):
        idx = _periodic_index(16, 6)
        assert _periodic_index(16, 6) is idx
        assert not idx.flags.writeable
        assert idx.tolist() == [[(2 * k + i) % 16 for i in range(6)] for k in range(8)]


class TestNorms:
    def test_zero_norms(self):
        coeffs = WaveletCoeffs(
            spec=SPEC, alpha=np.zeros(4), beta=[np.zeros(2**j) for j in SPEC.levels]
        )
        assert besov_sup_norm(coeffs) == 0.0
        assert besov_l1_norm(coeffs) == 0.0

    def test_definition_on_sparse_coeffs(self):
        alpha = np.array([0.5, 0.0, 0.0, 0.0])
        beta = [np.zeros(2**j) for j in SPEC.levels]
        beta[0][1] = 0.9
        coeffs = WaveletCoeffs(spec=SPEC, alpha=alpha, beta=beta)
        assert besov_sup_norm(coeffs) == 0.9
        assert besov_l1_norm(coeffs) == pytest.approx(1.4, abs=1e-15)

    def test_norms_match_flat_scans(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            coeffs = random_coeffs(SPEC, rng)
            flat = coeffs.flatten()
            assert besov_sup_norm(coeffs) == np.abs(flat).max()
            assert besov_l1_norm(coeffs) == pytest.approx(np.abs(flat).sum(), rel=1e-14)


class TestGelfandWeights:
    def test_scaling_block_is_uniform(self):
        w = make_gelfand_weights(SPEC, 0.6, renormalize=False)
        assert np.allclose(w.t_alpha, 0.25, atol=0)

    def test_detail_weight_formula_at_coarse_level(self):
        w = make_gelfand_weights(SPEC, 0.6, renormalize=False)
        expected = (2**1.2 - 1) * 2.0 ** (-1.2 * (1 - 2)) * 2.0 ** (-2.4)
        assert np.allclose(w.t_beta[0], expected, rtol=1e-14)

    def test_total_mass_matches_geometric_series_oracle(self):
        # level j contributes 2^j equal weights, so the total over levels is
        # a geometric series with ratio 2^(1 - 2 beta) < 1
        beta = 0.6
        J = 2
        factor = (2 ** (2 * beta) - 1) * 2.0 ** (-2 * beta * (1 - J))
        ratio = 2.0 ** (1 - 2 * beta)
        limit = 1.0 + factor * ratio**J / (1.0 - ratio)
        masses = []
        for max_level in (6, 9, 12):
            spec = WaveletBasisSpec(order=4, coarse_level=J, max_level=max_level)
            mass = make_gelfand_weights(spec, beta).total_mass
            partial = 1.0 + factor * (ratio**J - ratio ** (max_level + 1)) / (1.0 - ratio)
            assert mass == pytest.approx(partial, rel=1e-12)
            masses.append(mass)
        assert math.isfinite(limit) and limit > 1.0
        assert masses[0] < masses[1] < masses[2] < limit

    def test_renormalized_weights_sum_to_one(self):
        w = make_gelfand_weights(SPEC, 0.6)
        assert abs(w.flatten().sum() - 1.0) < 1e-12
        assert w.renormalized
        assert w.total_mass > 1.0

    def test_small_exponent_rejected(self):
        with pytest.raises(ValueError, match="1/2"):
            make_gelfand_weights(SPEC, 0.5)

    def test_nonpositive_weights_rejected(self):
        w = make_gelfand_weights(SPEC, 0.6)
        bad = w.t_alpha.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            GelfandWeights(
                spec=SPEC,
                beta_exponent=0.6,
                t_alpha=bad,
                t_beta=w.t_beta,
                renormalized=False,
                total_mass=w.total_mass,
            )


class TestWeightedNorm:
    def test_zero_input(self):
        w = make_gelfand_weights(SPEC, 0.6)
        coeffs = WaveletCoeffs(
            spec=SPEC, alpha=np.zeros(4), beta=[np.zeros(2**j) for j in SPEC.levels]
        )
        for mode in ("direct", "dual", "flat"):
            assert weighted_norm(coeffs, w, mode) == 0.0

    def test_uniform_weights_scale_flat_norm(self):
        spec = WaveletBasisSpec(order=2, coarse_level=2, max_level=3)
        rng = np.random.default_rng(11)
        coeffs = random_coeffs(spec, rng)
        total = coeffs.flatten().size
        uniform = GelfandWeights(
            spec=spec,
            beta_exponent=0.6,
            t_alpha=np.full(4, 1.0 / total),
            t_beta=[np.full(2**j, 1.0 / total) for j in spec.levels],
            renormalized=True,
            total_mass=1.0,
        )
        flat = weighted_norm(coeffs, uniform, "flat")
        direct = weighted_norm(coeffs, uniform, "direct")
        assert direct == pytest.approx(flat / math.sqrt(total), rel=1e-12)

    def test_norm_chain_on_random_inputs(self):
        w = make_gelfand_weights(SPEC, 0.6)
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            coeffs = random_coeffs(SPEC, rng)
            direct = weighted_norm(coeffs, w, "direct")
            sup = besov_sup_norm(coeffs)
            flat = weighted_norm(coeffs, w, "flat")
            l1 = besov_l1_norm(coeffs)
            dual = weighted_norm(coeffs, w, "dual")
            assert direct <= sup <= flat <= l1 <= dual

    def test_bad_mode_and_mismatched_spec(self):
        w = make_gelfand_weights(SPEC, 0.6)
        rng = np.random.default_rng(5)
        coeffs = random_coeffs(SPEC, rng)
        with pytest.raises(ValueError, match="mode"):
            weighted_norm(coeffs, w, "euclid")
        other = WaveletBasisSpec(order=4, coarse_level=2, max_level=10)
        with pytest.raises(ValueError, match="different bases"):
            weighted_norm(random_coeffs(other, rng), w, "flat")
