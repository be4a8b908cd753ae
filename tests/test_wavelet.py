import math

import numpy as np
import pytest

from banach_ar1.wavelet import (
    GelfandWeights,
    WaveletBasisSpec,
    _periodic_index,
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
    return rng.standard_normal(spec.grid_len)


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
            assert np.abs(coeffs[2**spec.coarse_level :]).max() < 1e-8

    @pytest.mark.parametrize("order", [1, 2, 4, 10])
    @pytest.mark.parametrize("max_level", [3, 5, 8, 10, 11])
    def test_round_trip_and_parseval(self, order, max_level):
        # grid lengths 16 .. 4096
        spec = WaveletBasisSpec(order=order, coarse_level=2, max_level=max_level)
        rng = np.random.default_rng(order * 100 + max_level)
        x = rng.standard_normal(spec.grid_len)
        coeffs = dwt_forward(x, spec)
        assert np.abs(dwt_inverse(coeffs, spec) - x).max() < 1e-10
        scaled = x * 2.0 ** (-(max_level + 1) / 2)
        assert abs(coeffs @ coeffs - scaled @ scaled) < 1e-10

    def test_smooth_signal_details_decay_with_level(self):
        t = (np.arange(SPEC.grid_len) + 0.5) / SPEC.grid_len
        coeffs = dwt_forward(np.sin(2 * np.pi * t), SPEC)
        maxima = [np.abs(coeffs[2**j : 2 ** (j + 1)]).max() for j in SPEC.levels]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] < 1e-10

    def test_zero_coeffs_invert_to_zero(self):
        assert np.abs(dwt_inverse(np.zeros(SPEC.grid_len), SPEC)).max() == 0.0

    def test_unit_alpha_inverts_to_cascaded_scaling_vector(self):
        spec = WaveletBasisSpec(order=10, coarse_level=2, max_level=6)
        values = np.zeros(spec.grid_len)
        values[0] = 1.0
        samples = dwt_inverse(values, spec)
        expected = cascade_basis(spec)[0] * 2.0 ** ((spec.max_level + 1) / 2)
        assert np.abs(samples - expected).max() < 1e-10

    def test_unit_coefficient_sits_in_its_dyadic_slot(self):
        # Haar pieces do not overlap: the unit coefficient at 2^j + k is
        # supported on the k-th of 2^j equal cells, and scaling slot k on
        # the k-th of 2^J cells
        spec = WaveletBasisSpec(order=1, coarse_level=2, max_level=6)
        L = spec.grid_len
        for pos in range(L):
            cells = 2**spec.coarse_level if pos < 2**spec.coarse_level else 2 ** (pos.bit_length() - 1)
            k = pos % cells
            unit = np.zeros(L)
            unit[pos] = 1.0
            samples = dwt_inverse(unit, spec)
            support = np.arange(k * L // cells, (k + 1) * L // cells)
            assert np.array_equal(np.flatnonzero(samples), support), pos
            assert np.abs(dwt_forward(samples, spec) - unit).max() < 1e-12

    def test_wrong_length_errors(self):
        with pytest.raises(ValueError, match="power of two"):
            dwt_forward(np.zeros(100), SPEC)
        with pytest.raises(ValueError):
            dwt_forward(np.zeros(1024), SPEC)  # right power, wrong level count

    def test_inverse_refuses_a_wrong_length_or_non_finite_vector(self):
        with pytest.raises(ValueError, match="coefficients"):
            dwt_inverse(np.zeros(SPEC.grid_len - 1), SPEC)
        with pytest.raises(ValueError, match="coefficients"):
            dwt_inverse(np.zeros((1, SPEC.grid_len)), SPEC)
        for bad in (np.nan, np.inf):
            values = np.zeros(SPEC.grid_len)
            values[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                dwt_inverse(values, SPEC)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forward_refuses_non_finite_samples(self, bad):
        samples = np.zeros(SPEC.grid_len)
        samples[3] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            dwt_forward(samples, SPEC)
        with pytest.raises(ValueError, match="samples must be finite"):
            coefficient_matrix(np.stack([np.zeros(SPEC.grid_len), samples]), SPEC)

    def test_fast_path_matches_inner_product_oracle(self):
        spec = WaveletBasisSpec(order=10, coarse_level=2, max_level=7)  # L = 256
        rng = np.random.default_rng(9)
        x = rng.standard_normal(spec.grid_len)
        sup, l1, l2, coeffs = oracle_norms(x, spec)
        fast = dwt_forward(x, spec)
        assert np.abs(fast - coeffs).max() < 1e-8
        assert abs(besov_sup_norm(fast) - sup) < 1e-8
        assert abs(besov_l1_norm(fast) - l1) < 1e-8
        assert abs(math.sqrt(fast @ fast) - l2) < 1e-8

    def test_coefficient_matrix_rows_are_single_transforms(self):
        rows = np.random.default_rng(10).standard_normal((3, SPEC.grid_len))
        w = coefficient_matrix(rows, SPEC)
        assert w.shape == (3, SPEC.grid_len)
        for row, coeffs in zip(rows, w):
            assert np.array_equal(coeffs, dwt_forward(row, SPEC))

    def test_periodic_index_is_cached_and_read_only(self):
        idx = _periodic_index(16, 6)
        assert _periodic_index(16, 6) is idx
        assert not idx.flags.writeable
        assert idx.tolist() == [[(2 * k + i) % 16 for i in range(6)] for k in range(8)]


class TestNorms:
    def test_zero_norms(self):
        coeffs = np.zeros(SPEC.grid_len)
        assert besov_sup_norm(coeffs) == 0.0
        assert besov_l1_norm(coeffs) == 0.0

    def test_definition_on_sparse_coeffs(self):
        values = np.zeros(SPEC.grid_len)
        values[0] = 0.5
        values[2**SPEC.coarse_level + 1] = 0.9
        assert besov_sup_norm(values) == 0.9
        assert besov_l1_norm(values) == pytest.approx(1.4, abs=1e-15)

    def test_norms_match_flat_scans(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            coeffs = random_coeffs(SPEC, rng)
            assert besov_sup_norm(coeffs) == np.abs(coeffs).max()
            assert besov_l1_norm(coeffs) == pytest.approx(np.abs(coeffs).sum(), rel=1e-14)

    def test_one_vector_gives_a_float(self):
        coeffs = random_coeffs(SPEC, np.random.default_rng(6))
        weights = make_gelfand_weights(SPEC, 0.6)
        norms = [besov_sup_norm(coeffs), besov_l1_norm(coeffs)]
        norms += [weighted_norm(coeffs, weights, mode) for mode in ("direct", "dual", "flat")]
        assert all(type(norm) is float for norm in norms)

    @pytest.mark.parametrize("shape", [(7,), (3, 5)], ids=["stack", "stack-of-stacks"])
    def test_stacked_norms_equal_row_by_row_norms_exactly(self, shape):
        stack = np.random.default_rng(7).standard_normal((*shape, SPEC.grid_len))
        rows = stack.reshape(-1, SPEC.grid_len)
        weights = make_gelfand_weights(SPEC, 0.6)
        norms = {
            "sup": besov_sup_norm,
            "l1": besov_l1_norm,
            **{mode: lambda c, mode=mode: weighted_norm(c, weights, mode) for mode in ("direct", "dual", "flat")},
        }
        for name, norm in norms.items():
            stacked = norm(stack)
            assert stacked.shape == shape, name
            assert stacked.ravel().tolist() == [norm(row) for row in rows], name


class TestGelfandWeights:
    def test_scaling_block_is_uniform(self):
        w = make_gelfand_weights(SPEC, 0.6)
        assert np.all(w.t[: 2**SPEC.coarse_level] == w.t[0])

    def test_detail_weight_formula_at_coarse_level(self):
        # before the division by the total, the scaling weights are 2^-J = 0.25
        w = make_gelfand_weights(SPEC, 0.6)
        expected = (2**1.2 - 1) * 2.0 ** (-1.2 * (1 - 2)) * 2.0 ** (-2.4)
        level = w.t[2**SPEC.coarse_level : 2 ** (SPEC.coarse_level + 1)]
        np.testing.assert_allclose(level / w.t[0] * 0.25, expected, rtol=1e-14)

    def test_mass_before_normalization_matches_geometric_series_oracle(self):
        # the 2^J scaling weights 2^-J sum to 1 before the division, so the
        # scaling block sums to 1 over the total; level j contributes 2^j
        # equal weights, so the total over levels is a geometric series with
        # ratio 2^(1 - 2 beta) < 1
        beta = 0.6
        J = 2
        factor = (2 ** (2 * beta) - 1) * 2.0 ** (-2 * beta * (1 - J))
        ratio = 2.0 ** (1 - 2 * beta)
        limit = 1.0 + factor * ratio**J / (1.0 - ratio)
        masses = []
        for max_level in (6, 9, 12):
            spec = WaveletBasisSpec(order=4, coarse_level=J, max_level=max_level)
            mass = 1.0 / make_gelfand_weights(spec, beta).t[: 2**J].sum()
            partial = 1.0 + factor * (ratio**J - ratio ** (max_level + 1)) / (1.0 - ratio)
            assert mass == pytest.approx(partial, rel=1e-12)
            masses.append(mass)
        assert math.isfinite(limit) and limit > 1.0
        assert masses[0] < masses[1] < masses[2] < limit

    @pytest.mark.parametrize("beta", [0.51, 3.0])
    @pytest.mark.parametrize("max_level", [2, 10])
    def test_weights_sum_to_one(self, beta, max_level):
        spec = WaveletBasisSpec(order=4, coarse_level=2, max_level=max_level)
        assert abs(make_gelfand_weights(spec, beta).t.sum() - 1.0) < 1e-12

    def test_small_exponent_rejected(self):
        with pytest.raises(ValueError, match="1/2"):
            make_gelfand_weights(SPEC, 0.5)

    def test_nonpositive_weights_rejected(self):
        w = make_gelfand_weights(SPEC, 0.6)
        bad = w.t.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            GelfandWeights(spec=SPEC, t=bad)

    def test_malformed_weights_rejected(self):
        w = make_gelfand_weights(SPEC, 0.6)
        with pytest.raises(ValueError, match="weights"):
            GelfandWeights(spec=SPEC, t=w.t[:-1])
        with_nan = w.t.copy()
        with_nan[-1] = np.nan
        with pytest.raises(ValueError, match="positive"):
            GelfandWeights(spec=SPEC, t=with_nan)
        with pytest.raises(ValueError, match="sum to 1"):
            GelfandWeights(spec=SPEC, t=2 * w.t)

    def test_weights_line_up_with_coefficient_matrix_columns(self):
        # sum_c t_c W_rc^2 is the squared direct norm of row r: the columns
        # of W and the positions of t are the same dyadic layout
        rows = np.random.default_rng(12).standard_normal((6, SPEC.grid_len))
        w = make_gelfand_weights(SPEC, 0.6)
        W = coefficient_matrix(rows, SPEC)
        expected = [weighted_norm(dwt_forward(row, SPEC), w, "direct") ** 2 for row in rows]
        np.testing.assert_allclose((W * W) @ w.t, expected, rtol=1e-13, atol=0)


class TestWeightedNorm:
    def test_zero_input(self):
        w = make_gelfand_weights(SPEC, 0.6)
        coeffs = np.zeros(SPEC.grid_len)
        for mode in ("direct", "dual", "flat"):
            assert weighted_norm(coeffs, w, mode) == 0.0

    def test_uniform_weights_scale_flat_norm(self):
        spec = WaveletBasisSpec(order=2, coarse_level=2, max_level=3)
        rng = np.random.default_rng(11)
        coeffs = random_coeffs(spec, rng)
        total = spec.grid_len
        uniform = GelfandWeights(spec=spec, t=np.full(total, 1.0 / total))
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

    def test_bad_mode_and_wrong_length(self):
        w = make_gelfand_weights(SPEC, 0.6)
        rng = np.random.default_rng(5)
        coeffs = random_coeffs(SPEC, rng)
        with pytest.raises(ValueError, match="mode"):
            weighted_norm(coeffs, w, "euclid")
        # the length is what is checked: a vector built for another grid is refused
        other = WaveletBasisSpec(order=4, coarse_level=2, max_level=9)
        for mode in ("direct", "dual", "flat"):
            with pytest.raises(ValueError, match="one per weight"):
                weighted_norm(random_coeffs(other, rng), w, mode)
            with pytest.raises(ValueError, match="one per weight"):
                weighted_norm(np.stack([coeffs[:-1]] * 2), w, mode)
