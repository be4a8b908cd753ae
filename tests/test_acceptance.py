"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 7 (the truncation-rate ratio decreasing over n = 2^10, 2^14, 2^18
under the log-ceiling rule) is kept verbatim and fails: for the reference
spectrum that ratio is increasing until the truncation order reaches ~17
(n ~ e^17), far beyond that grid.  The companion test in
test_diagnostics.py pins the actual behaviour, including the decreasing
regime at truncation orders 30..40.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from banach_ar1 import harness
from banach_ar1.diagnostics import (
    consistency_ratio,
    empirical_mse_curve,
    exceedance_table,
)
from banach_ar1.estimation import (
    TruncationRule,
    fit_estimator,
    gap_coefficients,
)
from banach_ar1.model import (
    ModelParams,
    SpectralOperator,
    Trajectory,
    build_covariance,
    build_noise_covariance,
    build_rho,
    covariance_eigenvalues,
    sample_initial_condition,
    simulate_trajectory,
    stationary_covariance,
)
from banach_ar1.wavelet import (
    WaveletBasisSpec,
    besov_l1_norm,
    besov_sup_norm,
    dwt_forward,
    dwt_inverse,
    make_gelfand_weights,
    weighted_norm,
)

from oracles import oracle_estimator, oracle_norms, transition_sums


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


CSV_NAMES = [
    "exceedance_table.csv",
    "mse_curve.csv",
    "consistency.csv",
    "eigen_decay.csv",
    "kernel_surface.csv",
    "results.csv",
]


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The shared desk-scale run: default configuration, master seed 1729."""
    out = tmp_path_factory.mktemp("desk")
    cfg_path = out / "desk.cfg"
    cfg_path.write_text(f"output_dir = {out / 'a'}\n", encoding="utf-8")
    config = harness.parse_config(cfg_path)
    start = time.perf_counter()
    results, reports = harness.run_experiment(config, threads=1)
    elapsed = time.perf_counter() - start
    return config, results, reports, out, elapsed


def test_criterion_1_dwt_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_rt = worst_pv = 0.0
    for order in (1, 2, 4, 10):
        for max_level in range(3, 12):  # grid lengths 16 .. 4096
            spec = WaveletBasisSpec(order=order, coarse_level=2, max_level=max_level)
            x = rng.standard_normal(spec.grid_len)
            coeffs = dwt_forward(x, spec)
            worst_rt = max(worst_rt, float(np.abs(dwt_inverse(coeffs) - x).max()))
            flat = coeffs.values
            scaled = x * 2.0 ** (-(max_level + 1) / 2)
            worst_pv = max(worst_pv, abs(float(flat @ flat - scaled @ scaled)))
    spec256 = WaveletBasisSpec(order=10, coarse_level=2, max_level=7)
    x = rng.standard_normal(256)
    _, _, _, oracle_coeffs = oracle_norms(x, spec256)
    oracle_gap = float(np.abs(dwt_forward(x, spec256).values - oracle_coeffs).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        "dwt round-trip, Parseval, oracle agreement",
        worst_rt < 1e-10 and worst_pv < 1e-10 and oracle_gap < 1e-8 and elapsed < 10,
        f"round-trip {worst_rt:.2e}, parseval {worst_pv:.2e}, oracle {oracle_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_estimator_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(p + 2, 51))
        k = int(rng.integers(1, p + 1))
        states = rng.standard_normal((n, p))
        fitted = fit_estimator(Trajectory(states=states), TruncationRule.fixed(k))
        worst = max(worst, float(np.abs(fitted.rho_hat - oracle_estimator(states, k)).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        "componentwise estimator vs literal-sum oracle",
        worst < 1e-10 and elapsed < 30,
        f"worst gap {worst:.2e} over 100 instances, {elapsed:.1f}s",
    )


def test_criterion_3_noiseless_exact_recovery():
    params = ModelParams(gamma=1.21, beta_exponent=0.6, modes=5, grid_len=2048)
    rho = build_rho(params)
    zero_noise = SpectralOperator(np.zeros((5, 5)))
    rng = np.random.default_rng(3)
    traj = simulate_trajectory(100, rho, zero_noise, rng.standard_normal(5), rng)
    state = fit_estimator(traj.head(100), TruncationRule.fixed(5))
    gap = float(np.abs(state.rho_hat - rho.matrix).max())
    report(3, "noiseless exact recovery", gap < 1e-8, f"max entry gap {gap:.2e}")


def test_criterion_4_hilbert_schmidt_rate():
    start = time.perf_counter()
    params = ModelParams(gamma=1.21, beta_exponent=0.6, modes=20, grid_len=2048)
    cov = build_covariance(params)
    rho = build_rho(params)
    noise = build_noise_covariance(params, cov, rho)
    sigma = stationary_covariance(rho, noise)
    d_true = rho.matrix @ sigma
    true_eigs = np.linalg.eigvalsh(sigma)[::-1]
    sizes = (512, 2048, 8192, 32768)
    cov_err = {n: [] for n in sizes}
    cross_err = {n: [] for n in sizes}
    eig_sup = {n: [] for n in sizes}
    for r in range(20):
        for n in sizes:
            rng = np.random.default_rng([4, n, r])
            x0 = sample_initial_condition(cov, rng)
            states = simulate_trajectory(n, rho, noise, x0, rng).states[:n]
            gram, cross = transition_sums(states)
            c_n = (gram + np.outer(states[-1], states[-1])) / n  # (1/n) sum X_i X_i^T over all n states
            d_n = cross / (n - 1)
            cov_err[n].append(np.linalg.norm(c_n - sigma, "fro"))
            cross_err[n].append(np.linalg.norm(d_n - d_true, "fro"))
            eig_sup[n].append(np.abs(np.linalg.eigvalsh(c_n)[::-1] - true_eigs).max())
    log_n = np.log(sizes)
    slope_c = float(np.polyfit(log_n, np.log([np.mean(cov_err[n]) for n in sizes]), 1)[0])
    slope_d = float(np.polyfit(log_n, np.log([np.mean(cross_err[n]) for n in sizes]), 1)[0])
    sup_means = [float(np.mean(eig_sup[n])) for n in sizes]
    monotone = all(a > b for a, b in zip(sup_means, sup_means[1:]))
    elapsed = time.perf_counter() - start
    report(
        4,
        "Hilbert-Schmidt convergence rate",
        -0.65 <= slope_c <= -0.35 and -0.65 <= slope_d <= -0.35 and monotone and elapsed < 300,
        f"slopes C {slope_c:.3f}, D {slope_d:.3f}; eigenvalue sup gaps {sup_means[0]:.1e}->{sup_means[-1]:.1e}, {elapsed:.0f}s",
    )


def test_criterion_5_exceedance_trend(desk_run):
    _, results, _, _, elapsed = desk_run
    rows = exceedance_table(results)
    proportions = [row[3] for row in rows]
    non_increasing = all(a >= b for a, b in zip(proportions, proportions[1:]))
    final_drop = proportions[-1] <= proportions[0] - 0.02 or (
        proportions[0] == 0.0 and proportions[-1] == 0.0
    )
    report(
        5,
        "exceedance proportion trend",
        non_increasing and final_drop and elapsed < 600,
        f"proportions {proportions}, run {elapsed:.0f}s",
    )


def test_criterion_6_mse_decay(desk_run):
    _, results, _, _, _ = desk_run
    rows = empirical_mse_curve(results)
    first, last = rows[0], rows[-1]
    report(
        6,
        "mean squared error decay",
        last[1] < first[1],
        f"mse({first[0]}) = {first[1]:.2e} -> mse({last[0]}) = {last[1]:.2e}",
    )


def test_criterion_7_truncation_rate_ratio():
    c_values = covariance_eigenvalues(1.21, 60)
    ratios = []
    for exponent in (10, 14, 18):
        n = 2**exponent
        k = math.ceil(math.log(n))
        ratios.append(consistency_ratio(n, k, c_values, gap_coefficients(c_values, k)))
    decreasing = ratios[0] > ratios[1] > ratios[2]
    report(
        7,
        "truncation-rate ratio strictly decreasing over 2^10, 2^14, 2^18",
        decreasing,
        "ratios " + ", ".join(f"{r:.3e}" for r in ratios),
    )


def test_criterion_8_norm_chain():
    start = time.perf_counter()
    spec = WaveletBasisSpec(order=10, coarse_level=2, max_level=10)
    weights = make_gelfand_weights(spec, 0.6, renormalize=True)
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        coeffs = dwt_forward(rng.standard_normal(spec.grid_len), spec)
        direct = weighted_norm(coeffs, weights, "direct")
        sup = besov_sup_norm(coeffs)
        flat = weighted_norm(coeffs, weights, "flat")
        l1 = besov_l1_norm(coeffs)
        dual = weighted_norm(coeffs, weights, "dual")
        ok = ok and direct <= sup <= flat <= l1 <= dual
    elapsed = time.perf_counter() - start
    report(8, "norm chain with renormalized weights", ok and elapsed < 5, f"1000 vectors, {elapsed:.1f}s")


def test_criterion_9_determinism(desk_run, tmp_path):
    from dataclasses import replace

    config, _, _, out, _ = desk_run
    first = out / "a"
    repeat_cfg = replace(config, output_dir=str(tmp_path / "repeat"))
    threaded_cfg = replace(config, output_dir=str(tmp_path / "threaded"))
    harness.run_experiment(repeat_cfg, threads=1)
    harness.run_experiment(threaded_cfg, threads=2)
    identical = all(
        filecmp.cmp(first / name, tmp_path / "repeat" / name, shallow=False)
        and filecmp.cmp(first / name, tmp_path / "threaded" / name, shallow=False)
        for name in CSV_NAMES
    )
    report(9, "byte-identical reruns across thread counts", identical)
