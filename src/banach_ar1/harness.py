"""Experiment orchestration: configuration, replication runs, CSV/SVG output.

A run sweeps the configured sample sizes; for each size n and replication r
it simulates n+1 states, fits the truncated estimator on the first n, makes
the one-step prediction from the last state, and records the wavelet-domain
sup-norm error together with the exceedance bound computed from the known
model spectrum.  Replication (n, r) draws from an RNG stream seeded by
(master_seed, n, r), so results do not depend on scheduling order or worker
count, and two runs with the same configuration are byte-identical.

The replications of one sample size run in chunks, stacked along a leading
axis through simulation, fit, prediction and scoring; a chunk is the unit of
work of the executor.  Every product in the stack is the per-replication
gemm or gemv, so a replication's error does not depend on its chunk.  A
chunk runs in two stages: the draw stage fills its innovations, the compute
stage steps the recursion, fits, predicts and scores.  A sweep maps the
chunks, in layout order, over a pool of worker processes or, with one
worker, over two threads of this process, so while one thread draws the
other can compute.  Each worker runs one chunk at a time, so at most two
chunks' trajectory buffers (each within TRAJECTORY_BUDGET doubles, or one
replication) are in use at once in a serial sweep, and a process reuses the
buffer of a finished chunk for the next chunk of its shape.

The experiment fits on the first n states and predicts from state n+1, so
the estimator's sample and the prediction input are disjoint.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics, estimation, model, svg
from .estimation import EstimatorState, TruncationRule
from .model import ModelParams
from .wavelet import WaveletBasisSpec

logger = logging.getLogger(__name__)

ENV_SEED_VAR = "BANACH_AR1_SEED"


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configuration."""


class StationarityError(RuntimeError):
    """Raised when the configured model fails the stationarity gate."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams
    wavelet: WaveletBasisSpec
    beta_exponent: float
    sample_sizes: tuple[int, ...]
    replications: int
    truncation: TruncationRule
    burn_in: int
    truncated_init: bool
    spline_mode: bool
    coarse_step: float
    output_dir: str
    master_seed: int

    def __post_init__(self):
        if not self.sample_sizes:
            raise ConfigError("sample_sizes must be non-empty")
        if any(a >= b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ConfigError(f"sample_sizes must be strictly ascending, got {list(self.sample_sizes)}")
        if min(self.sample_sizes) < 2:
            raise ConfigError("sample sizes must be >= 2")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        for name, value in (
            ("beta", self.beta_exponent),
            ("gamma", self.model.gamma),
            ("width", self.model.width),
            ("coarse_step", self.coarse_step),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # the kernel surface has round(1 / coarse_step) + 1 points a side: at most 1,025
        if not 1 / 1024 <= self.coarse_step < 0.5:
            raise ConfigError(f"coarse_step must lie in [1/1024, 0.5), got {self.coarse_step}")
        try:
            self.model.width**2  # the innovation covariance divides by it
        except OverflowError:
            raise ConfigError(f"width is too large: width**2 overflows, got {self.model.width}") from None
        c = model.covariance_eigenvalues(self.model.gamma, self.model.modes + 1)
        if not (c[-1] > 0 and (np.diff(c) < 0).all()):
            raise ConfigError(
                f"gamma = {self.model.gamma} is too large: the covariance eigenvalues "
                f"(1 + pi^2 j^2)^(-gamma), j <= modes + 1, must be positive and strictly decreasing"
            )
        if self.wavelet.grid_len != self.model.grid_len:
            raise ConfigError(
                f"wavelet grid ({self.wavelet.grid_len}) and model grid "
                f"({self.model.grid_len}) disagree"
            )


_DEFAULTS = {
    "beta": 0.6,
    "gamma": 1.21,
    "width": 0.4,
    "modes": 50,
    "grid_len": 2048,
    "wavelet_order": 10,
    "coarse_level": 2,
    "sample_sizes": "500,2000,8000",
    "replications": 50,
    "truncation": "log",
    "burn_in": None,  # 0 with the truncated-Gaussian initializer, else 500
    "truncated_init": True,
    "spline_mode": False,
    "coarse_step": 0.0372,
    "output_dir": "results",
    "seed": 1729,
}


def _parse_bool(raw: str, line_no: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"line {line_no}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, line_no: int) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"line {line_no}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, line_no: int) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(f"line {line_no}: expected a number, got {raw!r}") from None


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented `key = value` file into an ExperimentConfig.

    Blank lines and `#` comments are ignored; unknown keys and malformed
    lines are reported with their line numbers.  Missing keys fall back to
    defaults mirroring the reference scenario (beta 0.6, gamma 1.21, width
    0.4, coarse level 2, grid 2048, order-10 wavelets, log-ceiling
    truncation).
    """
    raw: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {line_no}: expected `key = value`, got {line.rstrip()!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            raw[key] = (value, line_no)
    return _build_config(raw)


def _build_config(raw: dict[str, tuple[str, int]]) -> ExperimentConfig:
    def get(key):
        return raw.get(key, (None, 0))

    def number(key, parser):
        value, line_no = get(key)
        return _DEFAULTS[key] if value is None else parser(value, line_no)

    beta = number("beta", _parse_float)
    gamma = number("gamma", _parse_float)
    width = number("width", _parse_float)
    modes = number("modes", _parse_int)
    grid_len = number("grid_len", _parse_int)
    order = number("wavelet_order", _parse_int)
    coarse_level = number("coarse_level", _parse_int)
    replications = number("replications", _parse_int)
    coarse_step = number("coarse_step", _parse_float)
    seed = number("seed", _parse_int)
    truncated_init = (
        _DEFAULTS["truncated_init"]
        if get("truncated_init")[0] is None
        else _parse_bool(*get("truncated_init"))
    )
    spline_mode = (
        _DEFAULTS["spline_mode"] if get("spline_mode")[0] is None else _parse_bool(*get("spline_mode"))
    )
    burn_value, burn_line = get("burn_in")
    if burn_value is None:
        burn_in = 0 if truncated_init else 500
    else:
        burn_in = _parse_int(burn_value, burn_line)

    sizes_value, sizes_line = get("sample_sizes")
    if sizes_value is None:
        sizes_value = _DEFAULTS["sample_sizes"]
    try:
        sample_sizes = tuple(int(tok.strip()) for tok in sizes_value.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"line {sizes_line}: sample_sizes must be comma-separated integers") from None

    trunc_value, trunc_line = get("truncation")
    if trunc_value is None:
        trunc_value = _DEFAULTS["truncation"]
    trunc_value = trunc_value.strip().lower()

    output_value, _ = get("output_dir")
    output_dir = _DEFAULTS["output_dir"] if output_value is None else output_value

    if beta <= 0.5:
        line = get("beta")[1]
        raise ConfigError(f"line {line}: beta must exceed 1/2, got {beta}")
    max_level = grid_len.bit_length() - 2

    try:
        if trunc_value == "log":
            truncation = TruncationRule.log_ceil()
        elif trunc_value.startswith("fixed:"):
            truncation = TruncationRule.fixed(_parse_int(trunc_value.split(":", 1)[1], trunc_line))
        else:
            raise ConfigError(f"line {trunc_line}: truncation must be `log` or `fixed:<k>`")
        params = ModelParams(
            gamma=gamma,
            beta_exponent=beta,
            width=width,
            modes=modes,
            grid_len=grid_len,
            seed=seed,
        )
        wavelet_spec = WaveletBasisSpec(order=order, coarse_level=coarse_level, max_level=max_level)
        return ExperimentConfig(
            model=params,
            wavelet=wavelet_spec,
            beta_exponent=beta,
            sample_sizes=sample_sizes,
            replications=replications,
            truncation=truncation,
            burn_in=burn_in,
            truncated_init=truncated_init,
            spline_mode=spline_mode,
            coarse_step=coarse_step,
            output_dir=output_dir,
            master_seed=seed,
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from None


class _ChunkBuffers:
    """Trajectory buffers that the chunks of a run reuse within a process.

    A buffer outlives its chunk: a finished chunk hands it back for the
    next chunk of the same (replications, length, modes) shape, and a
    buffer of another shape drops the spares.
    """

    def __init__(self):
        self._spare_lock = threading.Lock()
        self._spares: list[np.ndarray] = []  # guarded by _spare_lock; all of one shape

    def trajectory(self, shape: tuple[int, int, int]) -> np.ndarray:
        """A spare trajectory buffer of this shape, or a new one; its contents are garbage."""
        with self._spare_lock:
            if self._spares and self._spares[-1].shape == shape:
                return self._spares.pop()
            self._spares.clear()
        return np.empty(shape)

    def recycle(self, buffer: np.ndarray) -> None:
        """Take back a trajectory buffer that nothing refers to any more."""
        with self._spare_lock:
            if self._spares and self._spares[-1].shape != buffer.shape:
                self._spares.clear()
            self._spares.append(buffer)

    def release(self) -> None:
        """Drop the spares."""
        with self._spare_lock:
            self._spares.clear()


class _RunContext:
    """Model pieces, and the chunks' reusable memory, shared by every replication of one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.covariance = model.build_covariance(config.model)
        self.rho = model.build_rho(config.model)
        self.noise = model.build_noise_covariance(config.model, self.covariance, self.rho)
        self.gate = model.check_stationarity(self.rho, j0_max=10)
        # gap coefficients need one eigenvalue beyond the largest truncation
        self.c_extended = model.covariance_eigenvalues(config.model.gamma, config.model.modes + 1)
        self._bounds: dict[int, tuple[int, np.ndarray, float]] = {}
        self.buffers = _ChunkBuffers()

    def bound_for(self, n: int) -> tuple[int, np.ndarray, float]:
        """k_n, its gap coefficients and the exceedance bound xi, computed once per n."""
        if n not in self._bounds:
            # mirrors fit_estimator's clamp: n states give n - 1 transitions
            k = estimation.truncation_order(n, self.config.truncation, p_max=min(n - 1, self.config.model.modes))
            a_vals = estimation.gap_coefficients(self.c_extended, k)
            a_vals.setflags(write=False)
            self._bounds[n] = k, a_vals, diagnostics.exceedance_bound(n, k, self.c_extended, a_vals)
        return self._bounds[n]


@functools.lru_cache(maxsize=4)
def _context(config: ExperimentConfig) -> _RunContext:
    return _RunContext(config)


def replication_rng(master_seed: int, n: int, replication: int) -> np.random.Generator:
    """Independent, scheduling-order-free RNG stream for one replication."""
    return np.random.default_rng([master_seed, n, replication])


# Doubles in one chunk's trajectory stack (256 KiB).  Chunk sizes follow
# from the configuration alone, never from the worker count, so every
# --threads value writes the same bytes.
TRAJECTORY_BUDGET = 2**15


def chunk_layout(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """The pool's tasks in (n, replication) order: (n, r0, r1) runs replications r0..r1-1 of size n.

    A chunk holds as many replications as fit their (burn_in + n + 1) x
    modes trajectories into TRAJECTORY_BUDGET doubles, and at least one.
    """
    chunks = []
    for n in config.sample_sizes:
        size = max(1, TRAJECTORY_BUDGET // ((config.burn_in + n + 1) * config.model.modes))
        chunks.extend((n, r0, min(r0 + size, config.replications)) for r0 in range(0, config.replications, size))
    return chunks


def _draw_stack(config: ExperimentConfig, n: int, r0: int, r1: int) -> np.ndarray:
    """Draw stage of replications r0..r1-1 of size n: their streams, starts and innovations.

    Returns their model.draw_paths buffer, a spare one where one fits.  It
    reads only the run context's cached, read-only operators, never the
    power table, so two threads may draw at once.
    """
    ctx = _context(config)
    length, p = config.burn_in + n + 1, config.model.modes
    rngs = [replication_rng(config.master_seed, n, r) for r in range(r0, r1)]
    if config.truncated_init:
        x0 = [model.sample_initial_condition(ctx.covariance, rng) for rng in rngs]
    else:
        x0 = np.zeros((len(rngs), p))
    return model.draw_paths(ctx.buffers.trajectory((len(rngs), length, p)), ctx.noise, x0, rngs)


def _coarse_step(config: ExperimentConfig) -> float | None:
    """The coarse_step that scoring expands errors through: spline mode's, or None on the grid."""
    return config.coarse_step if config.spline_mode else None


def _compute_stack(
    config: ExperimentConfig, n: int, r0: int, paths: np.ndarray
) -> tuple[list[diagnostics.ExperimentResult], EstimatorState]:
    """Compute stage: step, fit, predict and score the _draw_stack buffer of replications r0.. of size n.

    Returns their results and the stack of fits.
    """
    ctx = _context(config)
    states = model.step_paths(paths, ctx.rho)[:, config.burn_in :]
    fits = estimation.fit_stack(states[:, :n], config.truncation)
    newest = states[:, n]
    predicted = estimation.plug_in_predict(fits, newest)
    truth = (ctx.rho.matrix @ newest[..., None])[..., 0]
    errors = estimation.prediction_error_besov(
        truth, predicted, config.model.grid_len, config.wavelet, _coarse_step(config)
    )
    _, _, xi = ctx.bound_for(n)
    results = [
        diagnostics.ExperimentResult(n=n, replication=r, error_b=float(error), xi=xi)
        for r, error in enumerate(errors, start=r0)
    ]
    return results, fits


def run_replication(
    config: ExperimentConfig, n: int, replication: int
) -> tuple[diagnostics.ExperimentResult, EstimatorState]:
    """Simulate, fit, predict and score a single (n, replication) cell: a stack of one."""
    paths = _draw_stack(config, n, replication, replication + 1)
    results, fits = _compute_stack(config, n, replication, paths)
    return results[0], fits[0]


ChunkOutput = tuple[list[diagnostics.ExperimentResult], list[tuple[int, int, float]]]


def _run_chunk(task: tuple[ExperimentConfig, int, int, int]) -> ChunkOutput:
    """One chunk's two stages in turn: its results, and the eigen-decay rows if it holds replication 0."""
    config, n, r0, r1 = task
    paths = _draw_stack(config, n, r0, r1)
    results, fits = _compute_stack(config, n, r0, paths)
    # only the first replication's eigenvalue decay is reported per n
    decay = [(n, j, value) for j, value in diagnostics.eigen_decay_report(fits[0])] if r0 == 0 else []
    _context(config).buffers.recycle(paths)  # the output holds floats and fresh arrays, no view of the paths
    return results, decay


def worker_count(threads: int, tasks: int) -> int:
    """Worker processes for `tasks` chunks when `threads` are asked for.

    Never more than the tasks or the CPUs this process may run on; more
    workers would only wait for a core.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return min(threads, tasks, cpus)


def run_experiment(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[diagnostics.ExperimentResult], list[diagnostics.ConsistencyReport]]:
    """Run the full sweep and write every CSV/SVG artifact.

    Aborts with StationarityError unless some power of the autocorrelation
    matrix has spectral norm below 1.  The chunks of `chunk_layout` are
    mapped over a pool of `worker_count(threads, ...)` processes, or, when
    that is 1, over two threads of this process.  Their results come back
    in (n, replication) order before any file is written, so outputs are
    identical for any worker count, and the earliest failing chunk's error
    is raised.  The BLAS thread count is the caller's choice (the
    command-line program sets one per process).
    """
    ctx = _context(config)
    if not ctx.gate.holds:
        raise StationarityError(
            f"no power of rho up to {ctx.gate.j0} has spectral norm < 1 "
            f"(last norm {ctx.gate.norm:.6f})"
        )
    logger.info("stationarity gate passed: j0=%d, norm=%.6f", ctx.gate.j0, ctx.gate.norm)

    # fill every cache the chunks share, before two threads can race for it
    # or so that forked workers inherit it
    ctx.noise.sqrt
    for n in config.sample_sizes:
        ctx.bound_for(n)
    estimation._wavelet_matrix(config.model.modes, config.model.grid_len, config.wavelet, _coarse_step(config))
    tasks = [(config, *chunk) for chunk in chunk_layout(config)]
    workers = worker_count(threads, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        executor = ProcessPoolExecutor(max_workers=workers)
    else:
        # numpy's generator fill, BLAS and LAPACK release the interpreter lock
        executor = ThreadPoolExecutor(max_workers=2, thread_name_prefix="banach-ar1-chunk")
    try:
        with executor:
            outputs = list(executor.map(_run_chunk, tasks))
    finally:
        ctx.buffers.release()  # the buffers belong to the sweep, not to the cached context

    results = [result for chunk_results, _ in outputs for result in chunk_results]
    decay_rows = [row for _, chunk_decay in outputs for row in chunk_decay]

    phi = model.eigenfunctions_on_grid(config.model.modes, config.model.grid_len)
    trace = diagnostics.trace_embedding_report(phi, config.wavelet)
    reports = []
    for n in config.sample_sizes:
        k, a_vals, xi = ctx.bound_for(n)
        reports.append(
            diagnostics.ConsistencyReport(
                n=n,
                k_n=k,
                lambda_kn=estimation.max_inverse_gap(ctx.c_extended, k),
                a_sum=float(a_vals.sum()),
                ratio=diagnostics.consistency_ratio(n, k, ctx.c_extended, a_vals),
                xi=xi,
                trace_sum=trace.trace_sum,
                n_sup=trace.n_sup,
                v_sup=trace.v_sup,
                mode="true",
            )
        )

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_outputs(out_dir, config, results, reports, decay_rows)
    return results, reports


def _format(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def write_outputs(out_dir, config, results, reports, decay_rows) -> None:
    out_dir = Path(out_dir)
    exceed_rows = diagnostics.exceedance_table(results)
    mse_rows = diagnostics.empirical_mse_curve(results)

    _write_csv(
        out_dir / "results.csv",
        ["n", "replication", "error_B", "xi", "exceeded"],
        ((r.n, r.replication, r.error_b, r.xi, r.exceeded) for r in results),
    )
    _write_csv(out_dir / "exceedance_table.csv", ["n", "total", "exceeded", "proportion"], exceed_rows)
    _write_csv(out_dir / "mse_curve.csv", ["n", "mean_sq_error_B", "ref_n_pow_minus_quarter"], mse_rows)
    _write_csv(
        out_dir / "consistency.csv",
        ["n", "k_n", "lambda_kn", "a_sum", "ratio", "xi", "trace_sum", "N_sup", "V_sup", "mode"],
        (
            (c.n, c.k_n, c.lambda_kn, c.a_sum, c.ratio, c.xi, c.trace_sum, c.n_sup, c.v_sup, c.mode)
            for c in reports
        ),
    )
    _write_csv(out_dir / "eigen_decay.csv", ["n", "j", "C_nj"], decay_rows)
    write_kernel_surface(out_dir / "kernel_surface.csv", config)

    ns = [row[0] for row in mse_rows]
    svg.line_chart(
        out_dir / "mse_curve.svg",
        [
            svg.Series("mean squared error", ns, [row[1] for row in mse_rows]),
            svg.Series("n^(-1/4)", ns, [row[2] for row in mse_rows], dashed=True),
        ],
        title="Mean squared prediction error",
        x_label="n",
        y_label="MSE",
        x_log=True,
        y_log=True,
    )
    svg.line_chart(
        out_dir / "exceedance.svg",
        [svg.Series("exceedance proportion", [row[0] for row in exceed_rows], [row[3] for row in exceed_rows])],
        title="Proportion of errors above the bound",
        x_label="n",
        y_label="proportion",
        x_log=True,
    )
    svg.line_chart(
        out_dir / "consistency_ratio.svg",
        [svg.Series("ratio", [c.n for c in reports], [c.ratio for c in reports])],
        title="Truncation-rate ratio",
        x_label="n",
        y_label="ratio",
        x_log=True,
        y_log=True,
    )
    if decay_rows:
        by_n: dict[int, tuple[list[float], list[float]]] = {}
        for n, j, value in decay_rows:
            by_n.setdefault(n, ([], []))
            by_n[n][0].append(j)
            by_n[n][1].append(value)
        svg.line_chart(
            out_dir / "eigen_decay.svg",
            [svg.Series(f"n={n}", js, vals) for n, (js, vals) in sorted(by_n.items())],
            title="Empirical eigenvalue decay",
            x_label="j",
            y_label="eigenvalue",
            y_log=True,
        )


def write_kernel_surface(path, config: ExperimentConfig) -> None:
    """Covariance kernel sampled on a coarse uniform grid, in long CSV form."""
    ctx = _context(config)
    points = np.linspace(0.0, 1.0, round(1.0 / config.coarse_step) + 1)
    surface = model.covariance_kernel_surface(ctx.covariance, points)
    rows = []
    for a, s in enumerate(points):
        for b, t in enumerate(points):
            rows.append((float(s), float(t), float(surface[a, b])))
    _write_csv(Path(path), ["s", "t", "value"], rows)


ESTIMATOR_CSV_FIELDS = ("n", "k_n", "eigenvalue", "eigenvector", "d_matrix", "rho_hat")


def write_estimator_csv(state: EstimatorState, path) -> None:
    """Persist a fitted estimator as a long-format CSV bundle.

    Rows are (record, i, j, value): scalars use i = j = 0, vectors use i,
    matrices use (i, j), all zero-based.  Floats round-trip exactly.
    """
    rows: list[tuple[str, int, int, object]] = [("n", 0, 0, state.n), ("k_n", 0, 0, state.k_n)]
    for i, v in enumerate(state.eigenvalues):
        rows.append(("eigenvalue", i, 0, float(v)))
    for name, mat in (("eigenvector", state.eigenvectors), ("d_matrix", state.d_matrix), ("rho_hat", state.rho_hat)):
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                rows.append((name, i, j, float(mat[i, j])))
    _write_csv(Path(path), ["record", "i", "j", "value"], rows)


def read_estimator_csv(path) -> EstimatorState:
    """Reload an estimator bundle written by write_estimator_csv."""
    scalars: dict[str, int] = {}
    vectors: dict[str, dict[int, float]] = {}
    matrices: dict[str, dict[tuple[int, int], float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["record", "i", "j", "value"]:
            raise ValueError(f"unexpected estimator bundle header: {header}")
        for record, i, j, value in reader:
            if record not in ESTIMATOR_CSV_FIELDS:
                raise ValueError(f"unknown record type {record!r}")
            if record in ("n", "k_n"):
                scalars[record] = int(value)
            elif record == "eigenvalue":
                vectors.setdefault(record, {})[int(i)] = float(value)
            else:
                matrices.setdefault(record, {})[(int(i), int(j))] = float(value)
    try:
        eigenvalues = np.array(
            [vectors["eigenvalue"][i] for i in range(len(vectors["eigenvalue"]))]
        )
        mats = {}
        for name in ("eigenvector", "d_matrix", "rho_hat"):
            entries = matrices[name]
            size = max(i for i, _ in entries) + 1
            mats[name] = np.array([[entries[(i, j)] for j in range(size)] for i in range(size)])
        return EstimatorState(
            n=scalars["n"],
            k_n=scalars["k_n"],
            eigenvalues=eigenvalues,
            eigenvectors=mats["eigenvector"],
            d_matrix=mats["d_matrix"],
            rho_hat=mats["rho_hat"],
        )
    except KeyError as exc:
        raise ValueError(f"estimator bundle is missing records: {exc}") from None


def config_with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """A copy of the configuration with a different master seed."""
    return replace(config, master_seed=seed, model=replace(config.model, seed=seed))
