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
chunk is one call of model.simulate_paths on the stack, then its fit,
prediction and scoring.  A sweep maps the chunks, in layout order, over a
pool of worker processes or, with one worker, over two threads of this
process, so while one thread draws the other can compute.  Each worker runs
one chunk at a time, so at most two chunks' trajectories (each within
TRAJECTORY_BUDGET doubles, or one replication) are alive at once in a
serial sweep.

The experiment fits on the first n states and predicts from state n+1, so
the estimator's sample and the prediction input are disjoint.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import os
import sys
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
        # the exceedance bound and the truncation-rate ratio divide n in doubles
        if self.sample_sizes[-1] > sys.float_info.max:
            raise ConfigError(f"sample sizes must be at most {sys.float_info.max:.6g}, the largest double")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if not self.output_dir:
            raise ConfigError("output_dir must be non-empty")
        for name, value in (
            ("gamma", self.model.gamma),
            ("width", self.model.width),
            ("coarse_step", self.coarse_step),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # the kernel surface has round(1 / coarse_step) + 1 points a side: at most 1,025
        if not 1 / 1024 <= self.coarse_step < 0.5:
            raise ConfigError(f"coarse_step must lie in [1/1024, 0.5), got {self.coarse_step}")
        # the innovation covariance divides |j - h|^2, at most (modes - 1)^2, by width**2
        try:
            quotient = (self.model.modes - 1) ** 2 / self.model.width**2
        except (OverflowError, ZeroDivisionError):
            quotient = math.inf
        if not quotient < math.inf:
            raise ConfigError(f"width**2 must be positive and (modes - 1)**2 / width**2 finite, got {self.model.width}")
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


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_sizes(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError("sample_sizes must be comma-separated integers") from None


def _parse_truncation(raw: str) -> TruncationRule:
    low = raw.lower()
    if low == "log":
        return TruncationRule.log_ceil()
    if low.startswith("fixed:"):
        return TruncationRule.fixed(_parse_int(low.removeprefix("fixed:")))
    raise ValueError("truncation must be `log` or `fixed:<k>`")


# key -> (parser of its stripped value, default)
_KEYS = {
    "beta": (_parse_float, 0.6),
    "gamma": (_parse_float, 1.21),
    "width": (_parse_float, 0.4),
    "modes": (_parse_int, 50),
    "grid_len": (_parse_int, 2048),
    "wavelet_order": (_parse_int, 10),
    "coarse_level": (_parse_int, 2),
    "sample_sizes": (_parse_sizes, (500, 2000, 8000)),
    "replications": (_parse_int, 50),
    "truncation": (_parse_truncation, TruncationRule.log_ceil()),
    "burn_in": (_parse_int, None),  # 0 with the truncated-Gaussian initializer, else 500
    "truncated_init": (_parse_bool, True),
    "spline_mode": (_parse_bool, False),
    "coarse_step": (_parse_float, 0.0372),
    "output_dir": (str, "results"),
    "seed": (_parse_int, 1729),
}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented UTF-8 `key = value` file into an ExperimentConfig.

    Blank lines and `#` comments are ignored; unknown keys, duplicates,
    malformed lines and values that do not parse are reported with their
    line numbers, and a model or wavelet-basis error with the lines of its
    keys that the file sets.  Missing keys fall back to defaults mirroring the
    reference scenario (beta 0.6, gamma 1.21, width 0.4, coarse level 2,
    grid 2048, order-10 wavelets, log-ceiling truncation).
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    values = {key: default for key, (_, default) in _KEYS.items()}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected `key = value`, got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
        lines[key] = line_no

    def built(cls, keys, **fields):
        """cls(**fields), its ValueError raised as a ConfigError naming the lines that set `keys`."""
        try:
            return cls(**fields)
        except ValueError as exc:
            where = ", ".join(f"line {lines[k]} ({k})" for k in sorted(lines.keys() & keys, key=lines.get))
            raise ConfigError(f"{where}: {exc}") from None

    params = built(
        ModelParams,
        ("beta", "gamma", "width", "modes", "grid_len"),
        gamma=values["gamma"],
        beta_exponent=values["beta"],
        width=values["width"],
        modes=values["modes"],
        grid_len=values["grid_len"],
    )
    wavelet_spec = built(
        WaveletBasisSpec,
        ("wavelet_order", "coarse_level", "grid_len"),
        order=values["wavelet_order"],
        coarse_level=values["coarse_level"],
        max_level=values["grid_len"].bit_length() - 2,
    )
    if values["burn_in"] is None:
        values["burn_in"] = 0 if values["truncated_init"] else 500
    return ExperimentConfig(
        model=params,
        wavelet=wavelet_spec,
        sample_sizes=values["sample_sizes"],
        replications=values["replications"],
        truncation=values["truncation"],
        burn_in=values["burn_in"],
        truncated_init=values["truncated_init"],
        spline_mode=values["spline_mode"],
        coarse_step=values["coarse_step"],
        output_dir=values["output_dir"],
        master_seed=values["seed"],
    )


class _RunContext:
    """The checked model pieces shared by every replication of one experiment.

    Building one is the check that `validate` and `run` share.  It raises
    NoiseCovarianceError when the innovation covariance cannot be repaired,
    StationarityError unless some power of rho up to 10 has spectral norm
    below 1, and EigenGapError when a sample size's bound meets a vanishing
    eigenvalue gap.  build_noise_covariance computes and checks the noise
    square root; every size's bound is filled here, before two threads can
    race for it or so that forked workers inherit it.
    """

    def __init__(self, config: ExperimentConfig):
        self.covariance = model.build_covariance(config.model)
        self.rho = model.build_rho(config.model)
        self.noise = model.build_noise_covariance(config.model, self.covariance, self.rho)
        self.gate = model.check_stationarity(self.rho, j0_max=10)
        if not self.gate.holds:
            raise StationarityError(
                f"no power of rho up to {self.gate.j0} has spectral norm < 1 "
                f"(last norm {self.gate.norm:.6f})"
            )
        # gap coefficients need one eigenvalue beyond the largest truncation
        self.c_extended = model.covariance_eigenvalues(config.model.gamma, config.model.modes + 1)
        # n -> (k_n, its gap coefficients, the exceedance bound xi)
        self.bounds: dict[int, tuple[int, np.ndarray, float]] = {}
        for n in config.sample_sizes:
            # mirrors fit_estimator's clamp: n states give n - 1 transitions
            k = estimation.truncation_order(n, config.truncation, p_max=min(n - 1, config.model.modes))
            a_vals = estimation.gap_coefficients(self.c_extended, k)
            a_vals.setflags(write=False)
            self.bounds[n] = k, a_vals, diagnostics.exceedance_bound(n, k, self.c_extended, a_vals)


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


def _coarse_step(config: ExperimentConfig) -> float | None:
    """The coarse_step that scoring expands errors through: spline mode's, or None on the grid."""
    return config.coarse_step if config.spline_mode else None


def _run_stack(
    config: ExperimentConfig, n: int, r0: int, r1: int
) -> tuple[list[diagnostics.ExperimentResult], EstimatorState]:
    """Simulate, fit, predict and score replications r0..r1-1 of size n as one stack.

    Returns their results and the stack of fits.
    """
    ctx = _context(config)
    rngs = [replication_rng(config.master_seed, n, r) for r in range(r0, r1)]
    if config.truncated_init:
        x0 = [model.sample_initial_condition(ctx.covariance, rng) for rng in rngs]
    else:
        x0 = np.zeros((len(rngs), config.model.modes))
    states = model.simulate_paths(n, ctx.rho, ctx.noise, x0, rngs, config.burn_in)
    fits = estimation.fit_stack(states[:, :n], config.truncation)
    newest = states[:, n]
    predicted = estimation.plug_in_predict(fits, newest)
    truth = (ctx.rho.matrix @ newest[..., None])[..., 0]
    errors = estimation.prediction_error_besov(
        truth, predicted, config.model.grid_len, config.wavelet, _coarse_step(config)
    )
    _, _, xi = ctx.bounds[n]
    results = [
        diagnostics.ExperimentResult(n=n, replication=r, error_b=float(error), xi=xi)
        for r, error in enumerate(errors, start=r0)
    ]
    return results, fits


def run_replication(
    config: ExperimentConfig, n: int, replication: int
) -> tuple[diagnostics.ExperimentResult, EstimatorState]:
    """Simulate, fit, predict and score a single (n, replication) cell: a stack of one."""
    results, fits = _run_stack(config, n, replication, replication + 1)
    return results[0], fits[0]


ChunkOutput = tuple[list[diagnostics.ExperimentResult], list[tuple[int, int, float]]]


def _run_chunk(task: tuple[ExperimentConfig, int, int, int]) -> ChunkOutput:
    """One chunk's results, and the eigen-decay rows if it holds replication 0."""
    config, n, r0, r1 = task
    results, fits = _run_stack(config, n, r0, r1)
    # only the first replication's eigenvalue decay is reported per n
    decay = [(n, j, value) for j, value in diagnostics.eigen_decay_report(fits[0])] if r0 == 0 else []
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

    The run context is built first, so its errors (StationarityError among
    them) come before any chunk runs.  The chunks of `chunk_layout` are
    mapped over a pool of `worker_count(threads, ...)` processes, or, when
    that is 1, over two threads of this process.  Their results come back
    in (n, replication) order before any file is written, so outputs are
    identical for any worker count, and the earliest failing chunk's error
    is raised.  The BLAS thread count is the caller's choice (the
    command-line program sets one per process).
    """
    ctx = _context(config)
    logger.info("stationarity gate passed: j0=%d, norm=%.6f", ctx.gate.j0, ctx.gate.norm)

    # filled here rather than in the run context, which validate builds too:
    # before two threads can race for it, or so that forked workers inherit it
    estimation._wavelet_matrix(config.model.modes, config.model.grid_len, config.wavelet, _coarse_step(config))
    tasks = [(config, *chunk) for chunk in chunk_layout(config)]
    workers = worker_count(threads, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        executor = ProcessPoolExecutor(max_workers=workers)
    else:
        # numpy's generator fill, BLAS and LAPACK release the interpreter lock
        executor = ThreadPoolExecutor(max_workers=2, thread_name_prefix="banach-ar1-chunk")
    with executor:
        outputs = list(executor.map(_run_chunk, tasks))

    results = [result for chunk_results, _ in outputs for result in chunk_results]
    decay_rows = [row for _, chunk_decay in outputs for row in chunk_decay]

    trace = diagnostics._trace_sums(
        estimation._wavelet_matrix(config.model.modes, config.model.grid_len, config.wavelet, None)
    )
    reports = []
    for n in config.sample_sizes:
        k, a_vals, xi = ctx.bounds[n]
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
    """Covariance kernel sampled on a coarse uniform grid, in long CSV form.

    Needs only the covariance, so it is written for models that fail the
    stationarity gate or whose eigenvalue gaps vanish.
    """
    points = np.linspace(0.0, 1.0, round(1.0 / config.coarse_step) + 1)
    surface = model.covariance_kernel_surface(model.build_covariance(config.model), points)
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
    The state must be one fit, not a stack of them.
    """
    if state.eigenvalues.ndim != 1:
        raise ValueError(f"write_estimator_csv writes one fit, got a stack of {len(state.eigenvalues)}: write state[r]")
    rows: list[tuple[str, int, int, object]] = [("n", 0, 0, state.n), ("k_n", 0, 0, state.k_n)]
    rows += [("eigenvalue", i, 0, float(v)) for i, v in enumerate(state.eigenvalues)]
    for name, mat in (("eigenvector", state.eigenvectors), ("d_matrix", state.d_matrix), ("rho_hat", state.rho_hat)):
        rows += [(name, i, j, float(v)) for (i, j), v in np.ndenumerate(mat)]
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
    return replace(config, master_seed=seed)
