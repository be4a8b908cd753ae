import csv
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import banach_ar1
from banach_ar1 import cli, harness
from banach_ar1.diagnostics import eigen_decay_report
from banach_ar1.estimation import TransitionMoments, TruncationRule, fit_estimator, fit_moments
from banach_ar1.harness import (
    ConfigError,
    parse_config,
    read_estimator_csv,
    run_experiment,
    run_replication,
    write_estimator_csv,
)
from banach_ar1.model import Trajectory

CSV_NAMES = [
    "exceedance_table.csv",
    "mse_curve.csv",
    "consistency.csv",
    "eigen_decay.csv",
    "kernel_surface.csv",
    "results.csv",
]


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def smoke_config(tmp_path, out_name="out", extra=""):
    return write_config(
        tmp_path,
        "modes = 10\n"
        "sample_sizes = 200, 800\n"
        "replications = 10\n"
        "seed = 42\n"
        f"output_dir = {tmp_path / out_name}\n" + extra,
    )


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, ""))
        assert cfg.model.gamma == 1.21
        assert cfg.model.beta_exponent == 0.6
        assert cfg.model.width == 0.4
        assert cfg.model.modes == 50
        assert cfg.model.grid_len == 2048
        assert cfg.wavelet.order == 10
        assert cfg.wavelet.coarse_level == 2
        assert cfg.wavelet.max_level == 10
        assert cfg.truncation == TruncationRule.log_ceil()
        assert cfg.burn_in == 0 and cfg.truncated_init
        assert not cfg.spline_mode

    def test_readme_key_block_parses_to_the_empty_config(self, tmp_path):
        # README's first ini block lists every key at its default, so a new
        # key or a changed default cannot leave the documented list behind
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        documented = parse_config(write_config(tmp_path, block, name="readme.cfg"))
        assert documented == parse_config(write_config(tmp_path, ""))

    def test_comments_and_values(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                "# full-size run\nreplications = 250\nsample_sizes = 2500,5000 # two sizes\n",
            )
        )
        assert cfg.replications == 250
        assert cfg.sample_sizes == (2500, 5000)

    def test_small_beta_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*1/2"):
            parse_config(write_config(tmp_path, "beta = 0.3\n"))

    def test_unknown_key_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config(write_config(tmp_path, "modes = 5\nmystery = 3\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write_config(tmp_path, "just some words\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_config(tmp_path, "modes = 5\nmodes = 6\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1: expected an integer"):
            parse_config(write_config(tmp_path, "replications = many\n"))

    def test_fixed_truncation(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "truncation = fixed:5\n"))
        assert cfg.truncation == TruncationRule.fixed(5)
        with pytest.raises(ConfigError, match="line 2: fixed rule needs k >= 1"):
            parse_config(write_config(tmp_path, "modes = 8\ntruncation = fixed:0\n"))

    def test_model_errors_name_the_lines_of_the_model_keys(self, tmp_path):
        text = "gamma = 1.0\nreplications = 4\nmodes = 8\nbeta = 0.6\n"
        with pytest.raises(ConfigError, match=r"^line 1 \(gamma\), line 3 \(modes\), line 4 \(beta\): need gamma"):
            parse_config(write_config(tmp_path, text))

    def test_burn_in_defaults_track_initializer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "truncated_init = false\n"))
        assert cfg.burn_in == 500
        cfg = parse_config(write_config(tmp_path, "truncated_init = false\nburn_in = 25\n"))
        assert cfg.burn_in == 25

    def test_coarse_step_may_reach_the_kernel_ceiling(self, tmp_path):
        # 1/1024 gives the largest kernel surface accepted, 1,025 points a side
        assert parse_config(write_config(tmp_path, "coarse_step = 0.0009765625\n")).coarse_step == 1 / 1024

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        text = f"sample_sizes = 50,100\nreplications = 4\noutput_dir = {tmp_path / 'out'}\n"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(bom) == parse_config(write_config(tmp_path, text))
        assert cli.main(["validate", "--config", str(bom)]) == cli.EXIT_OK
        capsys.readouterr()
        # a byte that is not UTF-8 after the mark is reported at its offset in the file
        bom.write_bytes(b"\xef\xbb\xbf# caf\xe9\n")
        with pytest.raises(ConfigError, match="byte 0xe9 at offset 8"):
            parse_config(bom)

    def test_coarse_level_above_the_finest_detail_level_names_the_grid(self, tmp_path):
        # max_level follows from grid_len, which the file sets or leaves at its default
        message = "coarse_level must be <= 10, the finest detail level of a grid of 2048 points, got 11"
        with pytest.raises(ConfigError, match=rf"^line 1 \(coarse_level\): {message}$"):
            parse_config(write_config(tmp_path, "coarse_level = 11\n"))
        with pytest.raises(ConfigError, match=r"^line 1 \(grid_len\), line 2 \(coarse_level\): .* <= 6, .* of 128 "):
            parse_config(write_config(tmp_path, "grid_len = 128\ncoarse_level = 7\nmodes = 8\n"))

    def test_descending_sizes_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(write_config(tmp_path, "sample_sizes = 800, 200\n"))
        # a repeated size would run its replications twice and count them twice
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_config(write_config(tmp_path, "sample_sizes = 20, 20\n"))


TINY_CONFIG = "modes = 8\ngrid_len = 256\nsample_sizes = 6, 20\nreplications = 3\nseed = 5\n"
# 700 replications run as 3 chunks of n = 6 (312 per chunk) and 3 of n = 20 (258 per chunk)
POOL_CONFIG = "modes = 8\ngrid_len = 256\nsample_sizes = 6, 20\nreplications = 700\nseed = 5\n"


class InlinePool:
    """Stands in for an executor: records the worker count, maps in this thread."""

    requested: list[int] = []

    def __init__(self, max_workers, **options):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestRunExperiment:
    @pytest.mark.parametrize(
        "threads, cpus, expected",
        [(64, 3, 3), (64, 8, 6), (2, 8, 2), (1, 8, 1), (64, None, 5), (64, 1, 1), (1, 1, 1)],
    )
    def test_pool_is_capped_at_tasks_and_cpus(self, tmp_path, monkeypatch, threads, cpus, expected):
        # 6 chunks are 6 tasks, run by `expected` workers on one thread more,
        # except on one usable CPU, where two threads would only take turns;
        # cpus None means no affinity call, os.cpu_count() = 5
        monkeypatch.setattr(InlinePool, "requested", [])
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        if cpus is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 5)
        else:
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        config = parse_config(write_config(tmp_path, POOL_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        assert len(harness.chunk_layout(config)) == 6
        results, _ = run_experiment(config, threads=threads)
        assert len(results) == 1400
        assert InlinePool.requested == [expected + (cpus != 1)]

    def test_smoke_run_emits_all_artifacts(self, tmp_path):
        cfg = parse_config(smoke_config(tmp_path))
        results, reports = run_experiment(cfg)
        assert len(results) == 20
        assert [r.n for r in reports] == [200, 800]
        for name in CSV_NAMES:
            path = tmp_path / "out" / name
            assert path.exists(), name
            header = path.read_text().splitlines()[0]
            assert "," in header
        for chart in ("mse_curve.svg", "exceedance.svg", "consistency_ratio.svg", "eigen_decay.svg"):
            assert (tmp_path / "out" / chart).exists()

    def test_schema_headers(self, tmp_path):
        cfg = parse_config(smoke_config(tmp_path))
        run_experiment(cfg)
        out = tmp_path / "out"
        expectations = {
            "exceedance_table.csv": "n,total,exceeded,proportion",
            "mse_curve.csv": "n,mean_sq_error_B,ref_n_pow_minus_quarter",
            "consistency.csv": "n,k_n,lambda_kn,a_sum,ratio,xi,trace_sum,N_sup,V_sup,mode",
            "results.csv": "n,replication,error_B,xi,exceeded",
            "eigen_decay.csv": "n,j,C_nj",
            "kernel_surface.csv": "s,t,value",
        }
        for name, header in expectations.items():
            assert (out / name).read_text().splitlines()[0] == header

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path):
        cfg_a = parse_config(smoke_config(tmp_path, out_name="a"))
        cfg_b = parse_config(smoke_config(tmp_path, out_name="b"))
        cfg_c = parse_config(smoke_config(tmp_path, out_name="c"))
        run_experiment(cfg_a, threads=1)
        run_experiment(cfg_b, threads=1)
        run_experiment(cfg_c, threads=3)
        for name in CSV_NAMES:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False)

    def test_bound_computed_once_per_sample_size(self, tmp_path, monkeypatch):
        # the run context certifies each size once; the chunks and the reports read its certificate
        calls = []
        names = ("exceedance_bound", "consistency_ratio", "max_inverse_gap")
        for name in names:
            module = harness.estimation if name == "max_inverse_gap" else harness.diagnostics
            original = getattr(module, name)
            # each takes k_n as its second argument
            monkeypatch.setattr(module, name, lambda *a, name=name, f=original: calls.append((name, a[1])) or f(*a))
        harness._context.cache_clear()
        results, reports = run_experiment(parse_config(smoke_config(tmp_path)), threads=1)
        harness._context.cache_clear()
        assert [report.k_n for report in reports] == [6, 7]
        assert sorted(calls) == sorted((name, k) for name in names for k in (6, 7))
        assert {r.xi for r in results if r.n == 800} == {reports[1].xi}

    def test_replication_streams_are_scheduling_free(self, tmp_path):
        cfg = parse_config(smoke_config(tmp_path))
        late, _ = run_replication(cfg, 200, 3)
        again, _ = run_replication(cfg, 200, 3)
        assert late.error_b == again.error_b

    def test_spline_mode_changes_only_the_error_metric(self, tmp_path):
        plain = parse_config(smoke_config(tmp_path, out_name="p"))
        splined = parse_config(smoke_config(tmp_path, out_name="s", extra="spline_mode = true\n"))
        r_plain, _ = run_replication(plain, 200, 0)
        r_spline, _ = run_replication(splined, 200, 0)
        assert r_plain.error_b != r_spline.error_b
        assert abs(r_plain.error_b - r_spline.error_b) < 0.5 * max(r_plain.error_b, r_spline.error_b)

    @pytest.mark.parametrize("extra, built", [("", 1), ("spline_mode = true\n", 2)], ids=["grid", "spline"])
    def test_scoring_matrix_is_built_once_before_the_chunks(self, tmp_path, monkeypatch, extra, built):
        # the chunks' threads share the one cached matrix instead of each building it;
        # the trace sums come from the grid matrix, which spline mode builds after the chunks
        matrix = harness.estimation._wavelet_matrix
        matrix.cache_clear()
        misses = []
        original = harness._run_stack

        def recorded(*args):
            misses.append(matrix.cache_info().misses)
            return original(*args)

        monkeypatch.setattr(harness, "_run_stack", recorded)
        run_experiment(parse_config(smoke_config(tmp_path, extra=extra)), threads=1)
        assert misses and set(misses) == {1}
        assert matrix.cache_info().misses == built

    def test_exceedance_flag_matches_bound(self, tmp_path):
        cfg = parse_config(smoke_config(tmp_path))
        results, _ = run_experiment(cfg)
        for r in results:
            assert r.exceeded == (r.error_b > r.xi)
            assert 0.0 < r.xi < 1.0


# 50 modes as in the reference model; n = 20 < p, n = 51 = p + 1
CHUNK_CONFIG = "grid_len = 256\nsample_sizes = 20, 51, 80\nreplications = 9\nseed = 11\n"
# a chunk budget that runs CHUNK_CONFIG in chunks of 6, 6 and 5 replications
# at n = 20, 51, 80 without burn-in, and the seam sizes 255, 256, 511, 512 in
# chunks of 4
TEST_BUDGET = 150_000


def read_decay_rows(path):
    lines = path.read_text().splitlines()[1:]
    return [(int(n), int(j), float(value)) for n, j, value in (line.split(",") for line in lines)]


class TestChunks:
    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param("", id="log-rule"),
            pytest.param("burn_in = 5\n", id="burn-in"),
            pytest.param("truncated_init = false\nburn_in = 3\n", id="zero-start"),
            pytest.param("truncation = fixed:2\n", id="fixed-k"),
            pytest.param("spline_mode = true\n", id="spline"),
        ],
    )
    def test_chunked_sweep_matches_single_replications(self, tmp_path, monkeypatch, extra):
        # 255 steps are one piece, 256 one full piece, 511 a full one and one of 255, 512 two full ones
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        text = CHUNK_CONFIG.replace("sample_sizes = 20, 51, 80", "sample_sizes = 20, 51, 80, 255, 256, 511, 512")
        config = parse_config(write_config(tmp_path, text + extra + f"output_dir = {tmp_path / 'out'}\n"))
        layout = harness.chunk_layout(config)
        assert all(sum(chunk[0] == n for chunk in layout) > 1 for n in config.sample_sizes)
        assert any(r1 - r0 > 1 for _, r0, r1 in layout)
        results, _ = run_experiment(config)
        decay = []
        for result in results:
            single, state = run_replication(config, result.n, result.replication)
            assert (result.error_b, result.xi) == (single.error_b, single.xi), (result.n, result.replication)
            if result.replication == 0:
                decay.extend((result.n, j, value) for j, value in eigen_decay_report(state))
        assert read_decay_rows(tmp_path / "out" / "eigen_decay.csv") == decay

    @pytest.mark.parametrize(
        "text",
        ["", "sample_sizes = 50,100,200\nreplications = 400\n", TINY_CONFIG, CHUNK_CONFIG + "burn_in = 40\n"],
        ids=["desk", "short-many", "tiny", "burn-in"],
    )
    def test_layout_covers_each_replication_once_within_the_budget(self, tmp_path, text):
        config = parse_config(write_config(tmp_path, text))
        layout = harness.chunk_layout(config)
        cells = [(n, r) for n, r0, r1 in layout for r in range(r0, r1)]
        assert cells == [(n, r) for n in config.sample_sizes for r in range(config.replications)]
        for n, r0, r1 in layout:
            assert r1 - r0 == 1 or harness.chunk_doubles(config, n, r1 - r0) <= harness.CHUNK_BUDGET

    @pytest.mark.parametrize(
        "text, widths",
        [
            ("", {n: (5, 181_300) for n in (500, 2000, 8000)}),
            ("truncated_init = false\n", {n: (5, 181_300) for n in (500, 2000, 8000)}),
            ("spline_mode = true\n", {n: (5, 181_300) for n in (500, 2000, 8000)}),
            ("sample_sizes = 2048,8192,32768,131072\n", {n: (5, 181_300) for n in (2048, 8192, 32768, 131072)}),
            ("sample_sizes = 50,100,200\nreplications = 400\n",
             {50: (8, 190_800), 100: (7, 187_600), 200: (6, 197_000)}),
            ("modes = 200\nsample_sizes = 50, 600\n", {50: (1, 346_600), 600: (1, 426_000)}),
        ],
        ids=["desk", "desk-zero-start", "desk-spline", "desk-long", "short-many", "modes-200"],
    )
    def test_chunk_widths_stated_in_readme(self, tmp_path, text, widths):
        # (replications per chunk, the doubles that chunk keeps alive) for each n
        config = parse_config(write_config(tmp_path, text))
        sizes = {n: harness.chunk_size(config, n) for n in config.sample_sizes}
        assert {n: (size, harness.chunk_doubles(config, n, size)) for n, size in sizes.items()} == widths

    def test_pool_maps_the_same_chunks_for_every_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(InlinePool, "requested", [])
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        mapped = []
        original = harness._run_stack

        def recorded(config, n, r0, r1):
            mapped.append((n, r0, r1))
            return original(config, n, r0, r1)

        # every chunk runs once, in layout order, whatever the thread count
        monkeypatch.setattr(harness, "_run_stack", recorded)
        config = parse_config(write_config(tmp_path, POOL_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        layouts = []
        for threads in (1, 2, 3, 8):
            mapped.clear()
            run_experiment(config, threads=threads)
            layouts.append(list(mapped))
        assert layouts == [harness.chunk_layout(config)] * 4

    def test_rank_error_inside_a_chunk_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        class ZeroDraws:
            """A generator whose every normal is 0: the trajectory stays at 0."""

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

        original = harness.replication_rng
        monkeypatch.setattr(
            harness, "replication_rng", lambda seed, n, r: ZeroDraws() if (n, r) == (20, 2) else original(seed, n, r)
        )
        text = TINY_CONFIG.replace("sample_sizes = 6, 20", "sample_sizes = 6, 20, 40")
        cfg_path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        layout = harness.chunk_layout(parse_config(cfg_path))
        assert layout[1:] == [(20, 0, 3), (40, 0, 3)]
        # on two CPUs the serial sweep runs two threads: the n = 40 chunk may be
        # in flight when the n = 20 chunk fails
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            threads_before = threading.active_count()
            assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
            assert threading.active_count() == threads_before
            assert "numeric failure: empirical eigenvalue 3 is 0.000e+00" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


PIECE = harness.model.PIECE_ROWS
# one size below, at and above a piece, and one that crosses two seams
PIECE_CONFIG = (
    f"modes = 8\ngrid_len = 256\nsample_sizes = {PIECE - 1}, {PIECE}, {PIECE + 1}, {2 * PIECE + 37}\n"
    "replications = 2\nseed = 5\n"
)


def mirrored_replication(config, n, r):
    """One cell through the public whole-trajectory route: simulate_trajectory, fit_estimator, grid scoring."""
    params = config.model
    covariance = harness.model.build_covariance(params)
    rho = harness.model.build_rho(params)
    noise = harness.model.build_noise_covariance(params, covariance, rho)
    rng = harness.replication_rng(config.master_seed, n, r)
    if config.truncated_init:
        x0 = harness.model.sample_initial_condition(covariance, rng)
    else:
        x0 = np.zeros(params.modes)
    traj = harness.model.simulate_trajectory(n, rho, noise, x0, rng, burn_in=config.burn_in)
    state = fit_estimator(traj.head(n), config.truncation)
    newest = traj.states[n]
    predicted = harness.estimation.plug_in_predict(state, newest)
    error = harness.estimation.prediction_error_besov(rho.matrix @ newest, predicted, params.grid_len, config.wavelet)
    return error, state


class TestStreaming:
    """A replication is simulated and its moments summed one piece of PIECE_ROWS steps at a time."""

    @pytest.mark.parametrize(
        "extra", ["", "truncated_init = false\nburn_in = 7\n"], ids=["truncated-init", "zero-start-burn-in"]
    )
    def test_sweep_matches_the_whole_trajectory_route_across_piece_seams(self, tmp_path, extra):
        config = parse_config(write_config(tmp_path, PIECE_CONFIG + extra + f"output_dir = {tmp_path / 'one'}\n"))
        results, _ = run_experiment(config, threads=1)
        for result in results:
            single, fit = run_replication(config, result.n, result.replication)
            error, state = mirrored_replication(config, result.n, result.replication)
            assert result.error_b == single.error_b == error, (result.n, result.replication)
            for name in ("eigenvalues", "eigenvectors", "d_matrix", "rho_hat"):
                assert np.array_equal(getattr(fit, name), getattr(state, name)), (result.n, name)
        run_experiment(replace(config, output_dir=str(tmp_path / "two")), threads=2)
        for name in CSV_NAMES:
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name, shallow=False), name

    def test_replication_memory_is_flat_in_n(self, tmp_path):
        sizes = (PIECE, 4 * PIECE, 16 * PIECE)
        config = parse_config(
            write_config(tmp_path, f"modes = 8\ngrid_len = 256\nsample_sizes = {', '.join(map(str, sizes))}\n")
        )
        peaks = []
        for n in sizes:
            run_replication(config, n, 0)  # fills the run context, the scoring matrix and the step table
            tracemalloc.start()
            try:
                run_replication(config, n, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one piece is (PIECE + 1) x 8 doubles, 256 KiB; whole trajectories grew 16-fold
        assert max(peaks) - min(peaks) <= 32 * 1024, peaks


# (config text, n) of chunks whose traced memory is checked against the budget
MEMORY_CASES = {
    **{f"desk-{n}": ("", n) for n in (500, 2000, 8000)},
    **{f"short-many-{n}": ("sample_sizes = 50,100,200\nreplications = 400\n", n) for n in (50, 100, 200)},
    **{f"modes-200-{n}": ("modes = 200\nsample_sizes = 50, 600\n", n) for n in (50, 600)},
    **{
        f"zero-start-burn-in-{n}": ("truncated_init = false\nburn_in = 700\nsample_sizes = 50, 500, 2000\n", n)
        for n in (50, 500, 2000)
    },
}


class TestChunkMemory:
    @pytest.mark.parametrize("text, n", MEMORY_CASES.values(), ids=MEMORY_CASES.keys())
    def test_chunk_peak_stays_within_the_budget(self, tmp_path, text, n):
        config = parse_config(write_config(tmp_path, text))
        size = harness.chunk_size(config, n)
        harness._run_chunk(config, (n, 0, size))  # fills the run context, the scoring matrix and the step table
        tracemalloc.start()
        try:
            harness._run_chunk(config, (n, 0, size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if size > 1:
            assert peak <= 8 * harness.CHUNK_BUDGET, (size, peak)
        else:
            assert peak <= 1.25 * 8 * harness.chunk_doubles(config, n, 1), peak

    @pytest.mark.parametrize("text, n", [("", 2000), ("sample_sizes = 50,100,200\nreplications = 400\n", 50)])
    def test_piece_buffer_and_normals_scratch_are_freed_before_the_fit(self, tmp_path, monkeypatch, text, n):
        config = parse_config(write_config(tmp_path, text))
        buffers, alive_at_fit = [], []
        stream, fit = harness.model.stream_paths, harness.estimation.fit_moments

        def watched_stream(*args):
            # the stream's generator holds the normals scratch in its frame
            pieces = stream(*args)
            buffers.append(weakref.ref(pieces))
            for states, first in pieces:
                buffers.append(weakref.ref(states.base))
                yield states, first

        def watched_fit(*args):
            alive_at_fit.append(sum(ref() is not None for ref in buffers))
            return fit(*args)

        monkeypatch.setattr(harness.model, "stream_paths", watched_stream)
        monkeypatch.setattr(harness.estimation, "fit_moments", watched_fit)
        harness._run_stack(config, n, 0, harness.chunk_size(config, n))
        # the generator, and one piece buffer per piece: as many as the path has edges
        assert len(buffers) == len(list(harness.model.piece_edges(n, config.burn_in)))
        assert alive_at_fit == [0]


class TestWriteCsv:
    def test_rows_are_the_bytes_csv_writer_wrote(self, tmp_path):
        # ints, Python and numpy floats, bools, and the strings the program
        # writes: column names, the consistency mode and the bundle's records
        header = ["n", "replication", "error_B", "xi", "exceeded", "mode", "record"]
        rows = [
            (500, np.int64(7), 0.1, np.float64(1 / 3), True, "true", "eigenvalue"),
            (2**70, -3, -0.0, np.float64(1e-300), False, "n", "d_matrix"),
            (0, 1, math.inf, 5e-324, True, "k_n", "rho_hat"),
        ]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerows([harness._format(v) for v in row] for row in [header, *rows])
        path = tmp_path / "table.csv"
        harness._write_csv(path, header, iter(rows))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert path.read_text().splitlines()[1] == "500,7,0.1,0.3333333333333333,1,true,eigenvalue"


class TestKernelSurface:
    def test_surface_is_streamed_into_its_csv(self, tmp_path):
        # 257 points a side: the surface is 0.53 MB, and a list of one tuple per pair of points peaked at 10.2 MB
        config = parse_config(write_config(tmp_path, "coarse_step = 0.00390625\n"))
        tracemalloc.start()
        try:
            harness.write_kernel_surface(tmp_path / "kernel_surface.csv", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak
        lines = (tmp_path / "kernel_surface.csv").read_text().splitlines()
        assert len(lines) == 1 + 257**2 and lines[:2] == ["s,t,value", "0.0,0.0,0.0"]

    def test_rows_are_the_bytes_of_its_values_formatted_one_by_one(self, tmp_path):
        # each row of the surface is formatted into its lines at once; the
        # bytes are csv.writer's of every (s, t, value) passed through _format
        config = parse_config(write_config(tmp_path, "coarse_step = 0.0625\n"))
        harness.write_kernel_surface(tmp_path / "kernel_surface.csv", config)
        points = np.linspace(0.0, 1.0, 17)
        surface = harness.model.covariance_kernel_surface(harness.model.build_covariance(config.model), points)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["s", "t", "value"])
        writer.writerows(
            [harness._format(v) for v in (s, t, surface[a, b])]
            for a, s in enumerate(points.tolist())
            for b, t in enumerate(points.tolist())
        )
        assert (tmp_path / "kernel_surface.csv").read_bytes() == expected.getvalue().encode("utf-8")


class TestReadme:
    def test_cited_module_names_resolve(self):
        # README cites names as `module.name`; a deleted or renamed name would leave it pointing nowhere
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        modules = sorted(path.stem for path in Path(banach_ar1.__file__).parent.glob("[a-z]*.py"))
        cited = set(re.findall(rf"`({'|'.join(modules)})\.([A-Za-z_]\w*)", readme))
        assert len(cited) > 10, cited
        assert [f"{m}.{name}" for m, name in sorted(cited) if not hasattr(import_module(f"banach_ar1.{m}"), name)] == []


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class DrawStageError(RuntimeError):
    """Raised by a test while a chunk makes its streams."""


class EarlierChunkError(RuntimeError):
    """Raised by a test from the earlier of two failing chunks."""


class LaterChunkError(RuntimeError):
    """Raised by a test from the later of two failing chunks."""


class TestDrawAhead:
    """The serial sweep on two or more CPUs: two threads run whole chunks, so one can draw while the other computes."""

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param("", id="plain"),
            pytest.param("spline_mode = true\n", id="spline"),
            pytest.param("truncated_init = false\nburn_in = 30\n", id="burn-in"),
        ],
    )
    def test_drawing_ahead_writes_the_bytes_of_drawing_inline(self, tmp_path, monkeypatch, extra):
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        usable_cpus(monkeypatch, 2)
        ahead = parse_config(write_config(tmp_path, CHUNK_CONFIG + extra + f"output_dir = {tmp_path / 'ahead'}\n"))
        run_experiment(ahead, threads=1)
        # reference: the chunks in turn in this thread
        monkeypatch.setattr(InlinePool, "requested", [])
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        run_experiment(replace(ahead, output_dir=tmp_path / "inline"), threads=1)
        assert InlinePool.requested == [2]
        for name in CSV_NAMES:
            assert filecmp.cmp(tmp_path / "ahead" / name, tmp_path / "inline" / name, shallow=False), name

    def test_chunks_run_on_two_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        usable_cpus(monkeypatch, 2)
        config = parse_config(write_config(tmp_path, CHUNK_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        layout = harness.chunk_layout(config)
        lock = threading.Lock()
        running = {"now": 0, "most": 0}  # chunks in flight
        started = []  # (chunk, thread) as each chunk starts
        second_started = threading.Event()
        original = harness._run_stack

        def traced(config, n, r0, r1):
            with lock:
                running["now"] += 1
                running["most"] = max(running["most"], running["now"])
                started.append((layout.index((n, r0, r1)), threading.get_ident()))
                if len(started) == 2:
                    second_started.set()
            # the first chunk goes on only once another thread has started the second
            assert second_started.wait(timeout=30)
            try:
                return original(config, n, r0, r1)
            finally:
                with lock:
                    running["now"] -= 1

        monkeypatch.setattr(harness, "_run_stack", traced)
        threads_before = threading.active_count()
        results, _ = run_experiment(config, threads=1)
        assert threading.active_count() == threads_before
        assert [(r.n, r.replication) for r in results] == [
            (n, r) for n in config.sample_sizes for r in range(config.replications)
        ]
        assert len(layout) == 6
        assert sorted(chunk for chunk, _ in started) == list(range(len(layout)))
        assert len({thread for _, thread in started}) == 2
        assert running == {"now": 0, "most": 2}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_draw_stage_error_surfaces_with_its_own_type(self, tmp_path, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        original = harness.replication_rng

        def failing(seed, n, r):
            if n == 51:
                raise DrawStageError(f"no stream for ({n}, {r})")
            return original(seed, n, r)

        monkeypatch.setattr(harness, "replication_rng", failing)
        config = parse_config(write_config(tmp_path, CHUNK_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        threads_before = threading.active_count()
        with pytest.raises(DrawStageError, match=r"no stream for \(51, 0\)"):
            run_experiment(config, threads=1)
        assert threading.active_count() == threads_before
        assert not (tmp_path / "out").exists()

    def test_more_threads_than_cores_write_the_bytes_of_two(self, tmp_path, monkeypatch):
        # 6 chunks on 7 threads, switching as often as the interpreter allows,
        # share the cached run context, step table, rotated noise root and scoring matrix
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        usable_cpus(monkeypatch, 8)
        config = parse_config(write_config(tmp_path, CHUNK_CONFIG + f"output_dir = {tmp_path / 'two'}\n"))
        run_experiment(config, threads=1)
        interval = sys.getswitchinterval()
        threads_before = threading.active_count()
        sys.setswitchinterval(1e-6)
        try:
            run_experiment(replace(config, output_dir=tmp_path / "seven"), threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before
        for name in CSV_NAMES:
            assert filecmp.cmp(tmp_path / "two" / name, tmp_path / "seven" / name, shallow=False), name

    def test_earliest_failing_chunk_wins_when_a_later_one_fails_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        usable_cpus(monkeypatch, 2)
        config = parse_config(write_config(tmp_path, CHUNK_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        layout = harness.chunk_layout(config)
        later_failed = threading.Event()
        original = harness._run_stack

        def failing(config, n, r0, r1):
            chunk = layout.index((n, r0, r1))
            if chunk == 4:
                later_failed.set()
                raise LaterChunkError("chunk 4")
            if chunk == 3:
                # chunk 3 fails only after chunk 4 has, on the other thread
                assert later_failed.wait(timeout=30)
                raise EarlierChunkError("chunk 3")
            return original(config, n, r0, r1)

        monkeypatch.setattr(harness, "_run_stack", failing)
        threads_before = threading.active_count()
        with pytest.raises(EarlierChunkError, match="chunk 3"):
            run_experiment(config, threads=1)
        assert threading.active_count() == threads_before
        assert not (tmp_path / "out").exists()

    def test_no_fit_shares_the_memory_of_its_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_BUDGET", TEST_BUDGET)
        config = parse_config(write_config(tmp_path, CHUNK_CONFIG + f"output_dir = {tmp_path / 'out'}\n"))
        pieces, fits = [], []
        stream, fit = harness.model.stream_paths, harness.estimation.fit_moments

        def kept_pieces(*args):
            for states, first in stream(*args):
                pieces.append(states)
                yield states, first

        def kept_fits(*args):
            fits.append(fit(*args))
            return fits[-1]

        monkeypatch.setattr(harness.model, "stream_paths", kept_pieces)
        monkeypatch.setattr(harness.estimation, "fit_moments", kept_fits)
        run_experiment(config, threads=1)
        run_replication(config, 51, 4)
        assert len(pieces) == len(fits) == len(harness.chunk_layout(config)) + 1
        for state in fits:
            for array in (state.eigenvalues, state.eigenvectors, state.d_matrix, state.rho_hat):
                assert not any(np.shares_memory(array, piece.base) for piece in pieces)

    @pytest.mark.parametrize("threads, pool", [(1, 2), (2, 3)])
    def test_run_log_says_how_the_chunks_run(self, tmp_path, monkeypatch, caplog, threads, pool):
        monkeypatch.setattr(InlinePool, "requested", [])
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        usable_cpus(monkeypatch, 2)
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        with caplog.at_level("INFO", logger="banach_ar1"):
            assert cli.main(["run", "--config", str(cfg_path), "--threads", str(threads)]) == cli.EXIT_OK
        assert "BLAS threads: OPENBLAS_NUM_THREADS=" in caplog.text
        assert f"chunks run on {pool} threads of one process, one chunk at a time per thread" in caplog.text
        assert InlinePool.requested == [pool]
        # at n = 20 a replication keeps 2 blocks of 16 columns x 8 modes for its piece,
        # 3 x 8 doubles of anchors and start and 8 fit matrices of 8 x 8, and the chunk
        # one path's 32 x 8 doubles of scratch: (3 (256 + 24 + 512) + 256) x 8 bytes
        assert (
            "paths run in pieces of at most 256 steps, cut at the burn-in's end, drawn one path at a time "
            "into rho's eigenbasis and stepped there in blocks of 16 states; "
            "replications per chunk of at most 1.64 MB: 3 at n = 6 (0.0168 MB), 3 at n = 20 (0.0211 MB)"
        ) in caplog.text
        assert [record.name for record in caplog.records if "chunks run on" in record.message] == [
            "banach_ar1.harness"
        ]


class TestEstimatorBundle:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        state = fit_estimator(Trajectory(states=rng.standard_normal((30, 6))), TruncationRule.fixed(3))
        path = tmp_path / "estimator.csv"
        write_estimator_csv(state, path)
        loaded = read_estimator_csv(path)
        assert loaded.n == state.n and loaded.k_n == state.k_n
        assert np.array_equal(loaded.eigenvalues, state.eigenvalues)
        assert np.array_equal(loaded.eigenvectors, state.eigenvectors)
        assert np.array_equal(loaded.d_matrix, state.d_matrix)
        assert np.array_equal(loaded.rho_hat, state.rho_hat)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_estimator_csv(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("eigenvector,0,1,", "eigenvector,0,1,nan", r"line \d+ \(eigenvector,0,1,nan\): value is not finite"),
            ("rho_hat,1,1,", "rho_hat,1,1,inf", r"line \d+ \(rho_hat,1,1,inf\): value is not finite"),
            (None, "rho_hat,0,7,9.0", r"line 18 \(rho_hat,0,7,9.0\): outside a bundle of 2 eigenvalues"),
            (None, "d_matrix,1,0,0.5", r"line 18 \(d_matrix,1,0,0.5\): repeats line 12 \(d_matrix,1,0,"),
        ],
        ids=["nan-eigenvector", "inf-rho-hat", "entry-outside-matrix", "duplicate-row"],
    )
    def test_rejects_corrupt_records(self, tmp_path, old, new, message):
        # a 2-mode bundle is 17 lines: header, n, k_n, 2 eigenvalues, then 4 rows per matrix
        rng = np.random.default_rng(12)
        state = fit_estimator(Trajectory(states=rng.standard_normal((30, 2))), TruncationRule.fixed(1))
        path = tmp_path / "estimator.csv"
        write_estimator_csv(state, path)
        rows = [new if old and row.startswith(old) else row for row in path.read_text().splitlines()]
        path.write_text("\n".join(rows + ([] if old else [new])) + "\n")
        with pytest.raises(ValueError, match=message):
            read_estimator_csv(path)

    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="^unexpected estimator bundle header: None$"):
            read_estimator_csv(path)

    def test_truncation_order_beyond_the_eigenpairs_is_refused(self, tmp_path):
        # loaded, k_n = 9 of one eigenpair would send eigen_decay_report past the eigenvalues
        path = tmp_path / "estimator.csv"
        rows = ["record,i,j,value", "n,0,0,50", "k_n,0,0,9", "eigenvalue,0,0,1.0"]
        rows += [f"{name},0,0,1.0" for name in ("eigenvector", "d_matrix", "rho_hat")]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"^need 1 <= k_n <= n and k_n <= 1, the number of eigenpairs$"):
            read_estimator_csv(path)

    def test_a_stack_of_fits_is_refused_before_writing(self, tmp_path):
        x = np.random.default_rng(11).standard_normal((3, 30, 6))
        moments = TransitionMoments()
        moments.add(x)
        stack = fit_moments(moments, TruncationRule.fixed(3))
        path = tmp_path / "estimator.csv"
        with pytest.raises(ValueError, match=r"writes one fit, got a stack of 3: write state\[r\]"):
            write_estimator_csv(stack, path)
        assert not path.exists()
        write_estimator_csv(stack[1], path)
        assert np.array_equal(read_estimator_csv(path).rho_hat, stack.rho_hat[1])


class TestRunContext:
    @pytest.mark.parametrize("text, solves", [("", 4), ("width = 0.05\n", 3)], ids=["repaired", "psd"])
    def test_build_runs_one_symmetric_eigensolve_per_operator(self, tmp_path, monkeypatch, text, solves):
        # one eigh for the banded innovation covariance, which the repair reads
        # and which, when it is already PSD, gives the noise root too; one for
        # the clipped matrix's root; one for rho's eigenbasis, which the
        # stationarity gate, the stationary covariance and the steps read; and
        # one for the stationary covariance's rank in the repair log
        config = parse_config(write_config(tmp_path, text))
        calls = []

        def counted(name):
            solver = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return solver(*args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        harness._RunContext(config)
        assert calls == ["eigh"] * solves

    @pytest.mark.parametrize(
        "text, figures",
        [
            ("", "innovation covariance rank 27 of 50, stationary covariance S rank 34, max |S - C| = 4.087e-03"),
            ("modes = 20\n", "innovation covariance rank 12 of 20, stationary covariance S rank 18, "),
            ("modes = 200\n", "innovation covariance rank 102 of 200, stationary covariance S rank 109, "),
            ("width = 0.05\n", "rank 50 of 50, stationary covariance S rank 50, max |S - C| = 4.842e-11"),
        ],
        ids=["reference", "modes-20", "modes-200", "width-0.05"],
    )
    def test_banded_repair_is_logged_once(self, tmp_path, caplog, text, figures):
        config = parse_config(write_config(tmp_path, text))
        with caplog.at_level("INFO", logger="banach_ar1"):
            harness._RunContext(config)
        logged = [record.message for record in caplog.records if record.message.startswith("banded repair: ")]
        assert len(logged) == 1 and figures in logged[0], logged


# 8 modes at width 1: no power of rho up to 10 has spectral norm below 1
GATE_FAILING_CONFIG = "modes = 8\nwidth = 1\nsample_sizes = 20,40\nreplications = 2\ngrid_len = 64\n"

# each a configuration error in every command; the test adds an output_dir line to every row
INVALID_INPUTS = [
    pytest.param("seed = -1\n", [], id="config-seed-negative"),
    pytest.param("", ["--seed", "-5"], id="flag-seed-negative"),
    pytest.param("coarse_step = 0\n", [], id="coarse-step-zero"),
    pytest.param("coarse_step = nan\n", [], id="coarse-step-nan"),
    pytest.param("coarse_step = 1e-5\n", [], id="coarse-step-kernel-too-large"),
    pytest.param("coarse_step = 0.00097\n", [], id="coarse-step-just-below-ceiling"),
    pytest.param("sample_sizes = 20, 20\n", [], id="sample-sizes-repeated"),
    pytest.param(f"sample_sizes = 20, {10**309}\n", [], id="sample-size-beyond-double"),
    pytest.param("sample_sizes = ,\n", [], id="sample-sizes-empty"),
    pytest.param("burn_in = -1\n", [], id="burn-in-negative"),
    pytest.param("coarse_level = 0\n", [], id="coarse-level-zero"),
    pytest.param("coarse_level = 11\n", [], id="coarse-level-above-finest-detail-level"),
    pytest.param("truncation = fixed:0\n", [], id="truncation-fixed-zero"),
    pytest.param("gamma = 400\n", [], id="gamma-eigenvalues-underflow"),
    pytest.param("width = 1e300\n", [], id="width-squared-overflows"),
    pytest.param("modes = 8\nwidth = 1e-200\n", [], id="width-squared-underflows"),
    pytest.param("width = 1e-155\n", [], id="width-band-quotient-overflows"),
    pytest.param("wavelet_order = 11\n", [], id="wavelet-order-above-ten"),
    pytest.param("grid_len = 3\n", [], id="grid-len-three"),
    pytest.param("grid_len = 0\n", [], id="grid-len-zero"),
    pytest.param("grid_len = -4\n", [], id="grid-len-negative"),
    pytest.param(f"grid_len = {2**40}\n", [], id="grid-len-tables-above-ceiling"),
    pytest.param("modes = 10000000000000000000000\n", [], id="modes-huge"),
    pytest.param("modes = 257\ngrid_len = 256\n", [], id="modes-above-grid-len"),
    pytest.param("", ["--out", ""], id="flag-out-empty"),
]


class TestCli:
    def test_run_and_validate_and_kernel(self, tmp_path, capsys):
        cfg_path = smoke_config(tmp_path)
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert cli.main(["kernel", "--config", str(cfg_path), "--out", str(tmp_path / "k")]) == 0
        assert (tmp_path / "k" / "kernel_surface.csv").exists()
        capsys.readouterr()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, "beta = 0.3\n")
        assert cli.main(["validate", "--config", str(bad)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == cli.EXIT_IO
        capsys.readouterr()

    def test_seed_flag_and_env_override(self, tmp_path, capsys, monkeypatch):
        cfg_path = smoke_config(tmp_path, out_name="seeded")
        monkeypatch.setenv("BANACH_AR1_SEED", "777")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("BANACH_AR1_SEED")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "flag"), "--seed", "777"]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "plain")]) == 0
        env_bytes = (tmp_path / "env" / "results.csv").read_bytes()
        assert env_bytes == (tmp_path / "flag" / "results.csv").read_bytes()
        assert env_bytes != (tmp_path / "plain" / "results.csv").read_bytes()
        capsys.readouterr()

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import banach_ar1.cli as cli_mod
        from banach_ar1.estimation import TruncationRankError

        cfg_path = smoke_config(tmp_path, out_name="numo")

        def explode(config, threads=1):
            raise TruncationRankError("synthetic degeneracy")

        monkeypatch.setattr(cli_mod.harness, "run_experiment", explode)
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_indefinite_noise_covariance_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch, command):
        def indefinite(self):
            raise ValueError("matrix is not positive semi-definite: min eigenvalue -1.000000e-03")

        monkeypatch.setattr(harness.model.SpectralOperator, "sqrt", property(indefinite))
        harness._context.cache_clear()
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
        assert "numeric failure: repaired innovation covariance: matrix is not positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gate_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # an autocorrelation with spectral norm >= 1 must abort the run
        import banach_ar1.harness as harness_mod
        from banach_ar1.model import SpectralOperator

        cfg_path = smoke_config(tmp_path, out_name="gated")
        original = harness_mod.model.build_rho

        def inflated(params):
            op = original(params)
            return SpectralOperator(op.matrix * 4.0)

        monkeypatch.setattr(harness_mod.model, "build_rho", inflated)
        harness_mod._context.cache_clear()
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_GATE
        harness_mod._context.cache_clear()
        capsys.readouterr()

    def test_validate_reads_the_gate_of_the_run_context(self, tmp_path, capsys):
        # validate builds run's checked context, so it fails with run's message and exit code
        cfg_path = write_config(tmp_path, GATE_FAILING_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        messages = []
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_GATE
            messages.append([line for line in capsys.readouterr().err.splitlines() if "gate failure" in line])
        assert messages[0] == messages[1] == [
            "model gate failure: no power of rho up to 10 has spectral norm < 1 (last norm 2.620536)"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config_text",
        [GATE_FAILING_CONFIG, "modes = 8\ngamma = 20\n"],
        ids=["gate-fails", "eigen-gaps-vanish"],
    )
    def test_kernel_needs_only_the_covariance(self, tmp_path, capsys, config_text):
        cfg_path = write_config(tmp_path, config_text + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main(["kernel", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert (tmp_path / "out" / "kernel_surface.csv").read_text().startswith("s,t,value\n")
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    @pytest.mark.parametrize("config_text, extra_args", INVALID_INPUTS)
    def test_invalid_inputs_are_config_errors(self, tmp_path, capsys, command, config_text, extra_args):
        cfg_path = write_config(tmp_path, config_text + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main([command, "--config", str(cfg_path), *extra_args]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    @pytest.mark.parametrize(
        "key, value", [("gamma", "inf"), ("width", "nan"), ("width", "1e-200"), ("gamma", "400"), ("grid_len", 2**40)]
    )
    def test_model_errors_name_the_line_of_their_key(self, tmp_path, capsys, command, key, value):
        cfg_path = write_config(tmp_path, f"replications = 2\n{key} = {value}\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert f"configuration error: line 2 ({key}): " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    def test_seed_variable_that_is_not_an_integer_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("BANACH_AR1_SEED", "abc")
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "configuration error: BANACH_AR1_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_builds_no_table_that_only_run_reads(self, tmp_path, capsys, monkeypatch):
        # validate certifies every size in the run context; the scoring matrix and rho's step table stay run's
        matrix = harness.estimation._wavelet_matrix
        original = harness.model.SpectralOperator.step_table
        reads = []

        def step_table(self):
            reads.append(self)
            return original.__get__(self, type(self))

        monkeypatch.setattr(harness.model.SpectralOperator, "step_table", property(step_table))
        harness._context.cache_clear()
        matrix.cache_clear()
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main(["validate", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert matrix.cache_info().misses == 0 and reads == []
        # the same counters see run build both
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert matrix.cache_info().misses > 0 and reads
        harness._context.cache_clear()
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    def test_empty_output_dir_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # accepted, it would send every artifact into the working directory
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, TINY_CONFIG + "output_dir =\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "output_dir must be non-empty" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(b"# caf\xe9\n" + f"output_dir = {tmp_path / 'out'}\n".encode())
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert f"{cfg_path} is not UTF-8: byte 0xe9 at offset 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
    def test_output_path_that_cannot_be_a_directory_is_an_io_error(self, tmp_path, capsys, monkeypatch, command, below):
        ran = []
        monkeypatch.setattr(harness, "_run_chunk", lambda *args: ran.append(args))
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        assert cli.main([command, "--config", str(cfg_path), "--out", str(blocker / below)]) == cli.EXIT_IO
        assert f"i/o failure: output directory {blocker / below}: {blocker} is not a directory" in capsys.readouterr().err
        assert ran == [] and blocker.read_bytes() == b"kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker", "exp.cfg"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["existing", "to-be-made"])
    def test_output_directory_this_process_cannot_write_is_an_io_error(
        self, tmp_path, capsys, monkeypatch, command, below
    ):
        # the tests may run as root, whom a chmod does not stop, so os.access is told the directory is locked
        ran, asked = [], []
        monkeypatch.setattr(harness, "_run_chunk", lambda *args: ran.append(args))
        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access

        def locked_access(path, mode, **kwargs):
            if Path(path) == locked:
                asked.append(mode)
                return False
            return access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", locked_access)
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        assert cli.main([command, "--config", str(cfg_path), "--out", str(locked / below)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"i/o failure: output directory {locked / below}: {locked} is not writable and searchable" in err
        assert asked == [os.W_OK | os.X_OK] and ran == [] and list(locked.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text, n, k",
        [("sample_sizes = 3\n", 3, 2), ("sample_sizes = 4,8\ntruncation = fixed:3\n", 4, 3)],
        ids=["log-rule", "fixed"],
    )
    def test_zero_start_with_fewer_nonzero_inputs_than_k_n_is_a_numeric_failure(
        self, tmp_path, capsys, monkeypatch, command, text, n, k
    ):
        # X_0 = 0, so n states give the fit at most n - 2 nonzero inputs
        ran = []
        monkeypatch.setattr(harness, "_run_chunk", lambda *args: ran.append(args))
        cfg_path = write_config(
            tmp_path, f"truncated_init = false\nburn_in = 0\nreplications = 2\n{text}output_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
        assert (
            f"numeric failure: n = {n} starts from X_0 = 0 (truncated_init = false, burn_in = 0): "
            f"its n - 2 = {n - 2} nonzero inputs cannot span k_n = {k} eigenvectors"
        ) in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["burn_in = 1\nsample_sizes = 3\n", "sample_sizes = 4,8\ntruncation = fixed:2\n"])
    def test_zero_start_with_enough_nonzero_inputs_runs(self, tmp_path, text):
        # a burn-in moves X_0 off zero; at k_n = n - 2 the nonzero inputs suffice
        cfg_path = write_config(tmp_path, f"truncated_init = false\nreplications = 2\n{text}output_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_vanishing_eigen_gap_is_a_numeric_failure(self, tmp_path, capsys, command):
        # distinct covariance eigenvalues whose gaps fall below the gap floor
        cfg_path = write_config(
            tmp_path,
            "modes = 8\ngamma = 20\nsample_sizes = 20,40\nreplications = 2\ngrid_len = 64\n"
            f"output_dir = {tmp_path / 'out'}\n",
        )
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
        assert "eigenvalue gap at position 3 is 8.549e-40" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_env_seed_reports_the_reason(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BANACH_AR1_SEED", "-3")
        assert cli.main(["validate", "--config", str(write_config(tmp_path, ""))]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        assert "integer" not in err

    @pytest.mark.parametrize("command", ["validate", "run", "kernel"])
    @pytest.mark.parametrize("key", ["burn_in", "sample_sizes"])
    def test_huge_path_is_a_config_error(self, tmp_path, capsys, monkeypatch, command, key):
        # a path of 10**20 steps would hand the pool about 3.9e17 pieces per replication
        swept = []
        monkeypatch.setattr(harness, "run_experiment", lambda config, threads: swept.append(config) or ([], []))
        cfg_path = write_config(tmp_path, f"modes = 8\ngrid_len = 64\n{key} = {10**20}\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "steps, sum over n of (burn_in + n) x replications; at most 1,000,000,000 can run" in capsys.readouterr().err
        assert swept == [] and not (tmp_path / "out").exists()

    def test_sweep_of_the_most_steps_is_accepted(self, tmp_path):
        # parsed only: the limit counts every replication's burn-in and path
        at_limit = f"burn_in = 10\nsample_sizes = {harness.MAX_SWEEP_STEPS // 4 - 10}\nreplications = 4\n"
        assert parse_config(write_config(tmp_path, at_limit)).replications == 4
        over = at_limit.replace("burn_in = 10", "burn_in = 11")
        with pytest.raises(ConfigError, match="asks for 1,000,000,004 steps"):
            parse_config(write_config(tmp_path, over))
        # a size past the largest double meets the same limit
        with pytest.raises(ConfigError, match=r"asks for 5\.00e\+310 steps"):
            parse_config(write_config(tmp_path, f"sample_sizes = 20, {10**309}\n"))

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        cfg_path = write_config(tmp_path, TINY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_path), "--threads", threads]) == cli.EXIT_CONFIG
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


CONFIG_KEYS = (
    "beta", "gamma", "width", "modes", "grid_len", "wavelet_order", "coarse_level", "sample_sizes",
    "replications", "truncation", "burn_in", "truncated_init", "spline_mode", "coarse_step", "output_dir", "seed",
)
NON_INTEGER_VALUES = st.one_of(
    st.floats().map(repr),
    st.lists(st.integers(min_value=-5, max_value=2**70), max_size=4).map(lambda sizes: ",".join(map(str, sizes))),
    st.sampled_from(["log", "fixed:3", "fixed:0", "true", "off", "results", "inf", "nan"]),
    st.text("abcdefxyz:,._-", max_size=8),
    st.just(""),
    st.text(),
)
CONFIG_VALUES = st.one_of(
    st.integers().map(str), st.integers(min_value=2**1000, max_value=10**400).map(str), NON_INTEGER_VALUES
)


def at_most_16_if_integer(value: str) -> bool:
    """True unless the value parses as an integer above 16."""
    try:
        return int(value) <= 16
    except ValueError:
        return True


# modes stays at most 16: nothing bounds the p x p allocations of larger values yet
MODES_VALUES = st.one_of(st.integers(max_value=16).map(str), NON_INTEGER_VALUES.filter(at_most_16_if_integer))


@st.composite
def config_files(draw):
    """Any subset of the keys with any values, plus lines of arbitrary bytes, in any order."""
    lines = [
        f"{key} = {draw(MODES_VALUES if key == 'modes' else CONFIG_VALUES)}"
        .encode("utf-8", "surrogatepass")
        for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), unique=True))
    ]
    lines += draw(st.lists(st.binary(), max_size=2))
    return b"\n".join(draw(st.permutations(lines)))


CLI_ARGS = st.one_of(
    st.just([]),
    st.integers().map(lambda seed: [f"--seed={seed}"]),
    st.text().map(lambda out: [f"--out={out}"]),
)


def with_examples(rows):
    """@example(config=..., args=...) for each (config, args) row."""

    def decorate(test):
        for config, args in rows:
            test = example(config=config, args=args)(test)
        return test

    return decorate


class TestValidateProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(config=config_files(), args=CLI_ARGS)
    @with_examples(
        [(row.values[0].encode(), row.values[1]) for row in INVALID_INPUTS]
        + [(b"# caf\xe9\n", []), (b"output_dir =\n", [])]
    )
    def test_validate_exits_with_a_documented_code(self, tmp_path_factory, config, args):
        # validate never simulates, so sizes other than modes may be arbitrarily large
        path = tmp_path_factory.getbasetemp() / "property.cfg"
        path.write_bytes(config)
        assert cli.main(["validate", "--config", str(path), *args]) in (0, 2, 3, 4, 5)


def run_python(args, tmp_path, **preset):
    """Run the interpreter on the package sources with the BLAS thread variables unset unless preset."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS and k != harness.ENV_SEED_VAR}
    src = str(Path(banach_ar1.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(preset)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, cwd=tmp_path, env=env, timeout=120
    )


class TestBlasThreadPolicy:
    def test_package_import_loads_no_numpy(self, tmp_path):
        out = run_python(["-c", "import sys, banach_ar1; print('numpy' in sys.modules)"], tmp_path)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("preset", [None, *cli.BLAS_THREAD_VARS])
    def test_cli_import_sets_unset_variables_to_one(self, tmp_path, preset):
        code = f"import json, os, banach_ar1.cli; print(json.dumps([os.environ[v] for v in {cli.BLAS_THREAD_VARS!r}]))"
        env = {} if preset is None else {preset: "3"}
        values = json.loads(run_python(["-c", code], tmp_path, **env).stdout)
        assert values == ["3" if var == preset else "1" for var in cli.BLAS_THREAD_VARS]

    def test_child_of_test_session_sees_original_variables(self, original_blas_env):
        # this module imports banach_ar1.cli, whose pin must not reach children
        code = f"import json, os; print(json.dumps([os.environ.get(v) for v in {cli.BLAS_THREAD_VARS!r}]))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == [original_blas_env[var] for var in cli.BLAS_THREAD_VARS]

    def test_cli_csvs_identical_at_one_and_two_workers(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        logs = {}
        for threads in ("1", "2"):
            args = ["-m", "banach_ar1.cli", "run", "--config", str(cfg_path), "--out", f"w{threads}"]
            logs[threads] = run_python([*args, "--threads", threads], tmp_path).stderr
        for name in CSV_NAMES:
            assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False), name
        pool = harness.pool_threads(2, len(harness.chunk_layout(parse_config(cfg_path))))
        assert f"INFO banach_ar1.harness: chunks run on {pool} threads of one process" in logs["2"]
        assert "OPENBLAS_NUM_THREADS=1 (set by banach-ar1)" in logs["1"]

    def test_cli_run_on_two_workers_stays_in_one_process(self, tmp_path):
        # four usable CPUs, so the sweep's two chunks get two workers wherever the test runs
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        code = (
            "import os, sys\n"
            "events = []\n"
            "child = ('os.fork', 'os.forkpty', 'os.posix_spawn', 'os.spawn', 'os.exec', 'os.system',\n"
            "         'subprocess.Popen')\n"
            "sys.addaudithook(lambda event, args: events.append(event) if event in child else None)\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from banach_ar1 import cli\n"
            f"code = cli.main(['run', '--config', {str(cfg_path)!r}, '--out', 'out', '--threads', '2'])\n"
            "print(code, events, any(m.split('.')[0] == 'multiprocessing' for m in sys.modules))\n"
        )
        out = run_python(["-c", code], tmp_path)
        assert out.stdout.splitlines()[-1] == "0 [] False"
        assert "chunks run on 3 threads of one process" in out.stderr
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_log_names_a_preset_variable(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_CONFIG)
        args = ["-m", "banach_ar1.cli", "run", "--config", str(cfg_path), "--out", "out"]
        log = run_python(args, tmp_path, OMP_NUM_THREADS="1").stderr
        assert "INFO banach_ar1.harness: chunks run on 2 threads of one process, one chunk at a time per thread" in log
        assert "OMP_NUM_THREADS=1 (from the environment)" in log
        assert "MKL_NUM_THREADS=1 (set by banach-ar1)" in log
        for name in CSV_NAMES:
            assert "worker" not in (tmp_path / "out" / name).read_text()
