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
work of the thread pool.  Every product in the stack is the per-replication
gemm or gemv, so a replication's error does not depend on its chunk.  A
chunk streams its stack through model.stream_paths, one call per stage of
each piece, adding each piece's transitions to the moments of the fit as
the piece is made, then fits, predicts and scores; no whole trajectory is
kept.  A chunk holds as many replications as fit into CHUNK_BUDGET
doubles, counting what each one's stream and fit keep alive (chunk_doubles).
A sweep maps the chunks, in layout order, over one more thread than it has
workers, or over one thread on one usable CPU; numpy's generator fill, BLAS
and LAPACK release the interpreter lock, so while one thread draws another
can compute.  Each thread runs one chunk at a time, so a serial sweep keeps
at most two chunks alive.

The experiment fits on the first n states and predicts from state n+1, so
the estimator's sample and the prediction input are disjoint.
"""

from __future__ import annotations

import functools
import io
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import diagnostics, estimation, model, svg
from .estimation import EstimatorState, TruncationRule
from .model import ModelParams
from .wavelet import WaveletBasisSpec

logger = logging.getLogger(__name__)

ENV_SEED_VAR = "BANACH_AR1_SEED"


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configuration; keys are the config-file keys a check read."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


class StationarityError(RuntimeError):
    """Raised when the configured model fails the stationarity gate."""


# Most steps a sweep may ask for, sum over n of (burn_in + n) x replications,
# 115 times the long sweep in README.  It bounds steps, not cost: a
# replication at n = 2 costs about 0.37 ms of CPU, mostly the fit's eigh, so
# 5 * 10**8 of them pass it and would take about 50 CPU-hours.
MAX_SWEEP_STEPS = 10**9


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep of a checked model and wavelet basis.

    ModelParams and WaveletBasisSpec check their own fields when they are
    built; this checks the sweep around them, and that their grids agree.
    """

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
            raise ConfigError("sample_sizes must be non-empty", "sample_sizes")
        if any(a >= b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ConfigError(f"sample_sizes must be strictly ascending, got {list(self.sample_sizes)}", "sample_sizes")
        if min(self.sample_sizes) < 2:
            raise ConfigError("sample sizes must be >= 2", "sample_sizes")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1", "replications")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0", "burn_in")
        steps = sum(self.burn_in + n for n in self.sample_sizes) * self.replications
        if steps > MAX_SWEEP_STEPS:
            digits = str(steps)  # a float would overflow past 1.8e308
            shown = f"{steps:,}" if steps < 10**18 else f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
            raise ConfigError(
                f"the sweep asks for {shown} steps, sum over n of (burn_in + n) x replications; "
                f"at most {MAX_SWEEP_STEPS:,} can run", "sample_sizes", "burn_in", "replications",
            )
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}", "seed")
        if not self.output_dir:
            raise ConfigError("output_dir must be non-empty", "output_dir")
        # the kernel surface has round(1 / coarse_step) + 1 points a side: at most 1,025
        if not 1 / 1024 <= self.coarse_step < 0.5:
            raise ConfigError(f"coarse_step must lie in [1/1024, 0.5), got {self.coarse_step}", "coarse_step")
        if self.wavelet.grid_len != self.model.grid_len:
            raise ConfigError(
                f"wavelet grid ({self.wavelet.grid_len}) and model grid ({self.model.grid_len}) disagree", "grid_len"
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
# a ModelParams or WaveletBasisSpec field -> the key that sets it, where the two names differ
_FIELD_KEYS = {"beta_exponent": "beta", "order": "wavelet_order", "max_level": "grid_len"}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented UTF-8 `key = value` file, with or without a byte-order mark, into an ExperimentConfig.

    Blank lines and `#` comments are ignored; unknown keys, duplicates,
    malformed lines and values that do not parse are reported with their
    line numbers, and a model, wavelet-basis or sweep error with the lines
    of the keys its check reads that the file sets.  Missing keys fall back
    to defaults mirroring the reference scenario (beta 0.6, gamma 1.21,
    width 0.4, coarse level 2, grid 2048, order-10 wavelets, log-ceiling
    truncation).
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # a leading byte-order mark, as editors may save one
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

    def built(cls, **fields):
        """cls(**fields), its error raised as a ConfigError naming the lines of the keys that its check read."""
        try:
            return cls(**fields)
        except ValueError as exc:
            named = getattr(exc, "keys", None) or {_FIELD_KEYS.get(f, f) for f in getattr(exc, "fields", ())}
            where = ", ".join(f"line {lines[k]} ({k})" for k in sorted(lines.keys() & named, key=lines.get))
            raise ConfigError(f"{where}: {exc}") from None

    params = built(
        ModelParams,
        gamma=values["gamma"],
        beta_exponent=values["beta"],
        width=values["width"],
        modes=values["modes"],
        grid_len=values["grid_len"],
    )
    wavelet_spec = built(
        WaveletBasisSpec,
        order=values["wavelet_order"],
        coarse_level=values["coarse_level"],
        max_level=values["grid_len"].bit_length() - 2,
    )
    if values["burn_in"] is None:
        values["burn_in"] = 0 if values["truncated_init"] else 500
    return built(
        ExperimentConfig,
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


def _rank(operator: model.SpectralOperator) -> int:
    """Eigenvalues of a symmetric operator above 1e-12 times the largest, read through its eigen."""
    w = operator.eigen.values
    return int((w > 1e-12 * w[-1]).sum())


class _RunContext:
    """The checked model pieces shared by every replication of one experiment.

    Building one is the check that `validate` and `run` share.  It raises
    NoiseCovarianceError when the innovation covariance cannot be repaired,
    StationarityError unless some power of rho up to 10 has spectral norm
    below 1, EigenGapError when a sample size's bound meets a vanishing
    eigenvalue gap, and TruncationRankError when a size's fit from a zero
    start (X_0 = 0 without a burn-in) has fewer than k_n nonzero inputs, or
    when the stationary covariance S has its k_n-th eigenvalue at or below
    fit_moments' floor, 1e-10 times its leading one, where every fit fails.
    build_noise_covariance computes and checks the noise square root.  Past
    the gate one INFO line reports the banded repair: the ranks of the
    innovation covariance and S and how far S lies from the stated C.

    This is the one place that certifies a sample size: certificates[n]
    holds k_n and the known spectrum's lambda_kn, a_sum, ratio and xi, the
    values of consistency.csv but the grid's trace sums, which
    run_experiment adds after the sweep.  The chunks read xi from here.
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
        # the process's covariance S, which the banded repair moves away from the stated C
        stationary = model.SpectralOperator(model.stationary_covariance(self.rho, self.noise))
        distance = np.abs(stationary.matrix - self.covariance.matrix).max()
        logger.info(
            "banded repair: innovation covariance rank %d of %d, stationary covariance S rank %d, max |S - C| = %.3e",
            _rank(self.noise), self.noise.dim, _rank(stationary), distance,
        )
        s_values = stationary.eigen.values  # ascending
        # gap coefficients need one eigenvalue beyond the largest truncation
        c_values = model.covariance_eigenvalues(config.model.gamma, config.model.modes + 1)
        # n -> the certificate of size n: its consistency.csv values but the grid's trace sums
        self.certificates: dict[int, dict[str, float]] = {}
        for n in config.sample_sizes:
            k = estimation.truncation_order(n, config.truncation, p_max=config.model.modes)
            if not config.truncated_init and config.burn_in == 0 and k > n - 2:
                raise estimation.TruncationRankError(
                    f"n = {n} starts from X_0 = 0 (truncated_init = false, burn_in = 0): its n - 2 = {n - 2} nonzero "
                    f"inputs cannot span k_n = {k} eigenvectors; use a smaller truncation order, a larger n or a burn-in"
                )
            a_vals = estimation.gap_coefficients(c_values, k)
            if s_values[-k] <= 1e-10 * s_values[-1]:  # fit_moments' floor, at the process's spectrum
                raise estimation.TruncationRankError(
                    f"n = {n}: eigenvalue k_n = {k} of the stationary covariance S is {s_values[-k]:.3e} (leading "
                    f"{s_values[-1]:.3e}), at or below 1e-10 times the leading one; use a smaller truncation order"
                )
            self.certificates[n] = dict(
                k_n=k,
                lambda_kn=estimation.max_inverse_gap(c_values, k),
                a_sum=float(a_vals.sum()),
                ratio=diagnostics.consistency_ratio(n, k, c_values, a_vals),
                xi=diagnostics.exceedance_bound(n, k, c_values, a_vals),
            )


@functools.lru_cache(maxsize=4)
def _context(config: ExperimentConfig) -> _RunContext:
    return _RunContext(config)


def replication_rng(master_seed: int, n: int, replication: int) -> np.random.Generator:
    """Independent, scheduling-order-free RNG stream for one replication."""
    return np.random.default_rng([master_seed, n, replication])


# Doubles that one chunk may keep alive (1.9 MiB, chunk_doubles).  A
# serial sweep holds two chunks at once: on 2 cores, 2**17 (one desk
# replication per chunk at n = 500 and 2000) made the desk sweep about 18%
# slower, and 2**18 raised its peak RSS by 1.5 to 2.3 MB.  31 * 2**13 is
# the smallest multiple of 2**13 that holds 8, 7 and 6 replications of
# short-many (n = 50, 100, 200) per chunk (it holds 9, 8 and 6; at 30 *
# 2**13, n = 100 and 200 drop to 7 and 5) and 5 of every desk size (n =
# 500, 2000, 8000, whose pieces are all PIECE_ROWS long).  A narrower chunk
# spends more interpreter time per path on the whole-stack calls of
# model.stream_paths' piece loop.  Chunk sizes follow from the
# configuration alone, so every --threads value writes the same bytes.
CHUNK_BUDGET = 31 * 2**13


def chunk_doubles(config: ExperimentConfig, n: int, size: int) -> int:
    """Doubles a chunk of `size` replications of size n keeps alive: its stream's and its fit's.

    The stream's buffers are freed before the fit, so the sum is an upper bound.
    """
    p = config.model.modes
    return model.stream_doubles(n, config.burn_in, p, size) + size * estimation.FIT_PEAK_ARRAYS * p * p


def chunk_size(config: ExperimentConfig, n: int) -> int:
    """Replications of size n in a full chunk: as many as fit into CHUNK_BUDGET, at least one."""
    return min(config.replications, max(1, CHUNK_BUDGET // chunk_doubles(config, n, 1)))


def chunk_layout(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """The pool's tasks in (n, replication) order: (n, r0, r1) runs replications r0..r1-1 of size n."""
    chunks = []
    for n in config.sample_sizes:
        size = chunk_size(config, n)
        chunks.extend((n, r0, min(r0 + size, config.replications)) for r0 in range(0, config.replications, size))
    return chunks


def _coarse_step(config: ExperimentConfig) -> float | None:
    """The coarse_step that scoring expands errors through: spline mode's, or None on the grid."""
    return config.coarse_step if config.spline_mode else None


def _run_stack(
    config: ExperimentConfig, n: int, r0: int, r1: int
) -> tuple[list[diagnostics.ExperimentResult], EstimatorState]:
    """Simulate, fit, predict and score replications r0..r1-1 of size n as one stack.

    The paths are streamed a piece at a time: the fit's moments are summed
    over the states X_0..X_(n-1) of each piece, and the prediction starts
    from X_n, copied out of the last piece so that the piece and stage
    buffers are freed before the fit.  Returns the results and fits.
    """
    ctx = _context(config)
    rngs = [replication_rng(config.master_seed, n, r) for r in range(r0, r1)]
    if config.truncated_init:
        x0 = [model.sample_initial_condition(ctx.covariance, rng) for rng in rngs]
    else:
        x0 = np.zeros((len(rngs), config.model.modes))
    moments = estimation.TransitionMoments()
    for states, first in model.stream_paths(n, ctx.rho, ctx.noise, x0, rngs, config.burn_in):
        moments.add(states[:, : n - first])  # the fit's states end at X_(n-1)
    newest = states[:, n - first].copy()
    del states
    fits = estimation.fit_moments(moments, config.truncation)
    predicted = estimation.plug_in_predict(fits, newest)
    truth = (ctx.rho.matrix @ newest[..., None])[..., 0]
    errors = estimation.prediction_error_besov(
        truth, predicted, config.model.grid_len, config.wavelet, _coarse_step(config)
    )
    xi = ctx.certificates[n]["xi"]
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


def _run_chunk(config: ExperimentConfig, chunk: tuple[int, int, int]) -> ChunkOutput:
    """One chunk's results, and the eigen-decay rows if it holds replication 0."""
    n, r0, r1 = chunk
    results, fits = _run_stack(config, n, r0, r1)
    # only the first replication's eigenvalue decay is reported per n
    decay = [(n, j, value) for j, value in diagnostics.eigen_decay_report(fits[0])] if r0 == 0 else []
    return results, decay


def pool_threads(threads: int, tasks: int) -> int:
    """Threads that run `tasks` chunks when `threads` workers are asked for.

    A worker for each chunk and usable CPU, at most `threads` of them (more
    would only wait for a core), and one thread more, so that one thread can
    draw while another computes; on one usable CPU the two would only take
    turns, so the chunks run on one thread.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return min(threads, tasks, cpus) + (cpus > 1)


def check_output_dir(path: str | Path) -> None:
    """Raise unless the nearest existing ancestor of `path`, or `path` itself, is a directory this process can write in.

    NotADirectoryError when it is not a directory, PermissionError when it
    lacks write or search permission for this process.
    """
    for ancestor in (Path(path), *Path(path).parents):
        if os.path.lexists(ancestor):
            if not ancestor.is_dir():
                raise NotADirectoryError(f"output directory {path}: {ancestor} is not a directory")
            if not os.access(ancestor, os.W_OK | os.X_OK):
                raise PermissionError(f"output directory {path}: {ancestor} is not writable and searchable")
            return


def run_experiment(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[diagnostics.ExperimentResult], list[diagnostics.ConsistencyReport]]:
    """Run the full sweep and write every CSV/SVG artifact.

    The thread count, the run context and the output directory
    (check_output_dir) are checked first, so their errors (ConfigError,
    StationarityError and NotADirectoryError among them) come before any
    chunk runs.  The chunks of `chunk_layout` are mapped over
    `pool_threads(threads, ...)` threads of this process, which one INFO
    line reports with the piece, the block and the chunk sizes.
    Their results come back in (n, replication) order before any file is
    written, so outputs are identical for any worker count, and the
    earliest failing chunk's error is raised.  The BLAS thread count is
    the caller's choice (the command-line program sets one).
    """
    chunks = chunk_layout(config)
    pool = pool_threads(threads, len(chunks))
    ctx = _context(config)
    check_output_dir(config.output_dir)
    logger.info("stationarity gate passed: j0=%d, norm=%.6f", ctx.gate.j0, ctx.gate.norm)

    # filled here rather than in the run context, which validate builds too,
    # before the chunks' threads can race for them
    estimation._wavelet_matrix(config.model.modes, config.model.grid_len, config.wavelet, _coarse_step(config))
    ctx.rho.step_table
    sizes = []
    for n in config.sample_sizes:
        size = chunk_size(config, n)
        sizes.append(f"{size} at n = {n} ({chunk_doubles(config, n, size) * 8 / 1e6:.3g} MB)")
    logger.info(
        "chunks run on %d threads of one process, one chunk at a time per thread; paths run in pieces of at most "
        "%d steps, cut at the burn-in's end, drawn path by path and stepped as one stack in rho's eigenbasis, in "
        "blocks of %d states; replications per chunk of at most %.3g MB: %s",
        pool, model.PIECE_ROWS, model.BLOCK, CHUNK_BUDGET * 8 / 1e6, ", ".join(sizes),
    )
    with ThreadPoolExecutor(pool, thread_name_prefix="banach-ar1-chunk") as executor:
        outputs = list(executor.map(functools.partial(_run_chunk, config), chunks))

    results = [result for chunk_results, _ in outputs for result in chunk_results]
    decay_rows = [row for _, chunk_decay in outputs for row in chunk_decay]

    trace = diagnostics._trace_sums(
        estimation._wavelet_matrix(config.model.modes, config.model.grid_len, config.wavelet, None)
    )
    reports = [
        diagnostics.ConsistencyReport(n=n, **ctx.certificates[n], **trace._asdict(), mode="true")
        for n in config.sample_sizes
    ]

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_outputs(out_dir, config, results, reports, decay_rows)
    return results, reports


def _format(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return float.__repr__(value)  # shortest round-trip form, numpy scalars included
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The header and each row as a line of _format'd values joined by commas; a str row is written as it stands.

    A str row holds lines that the caller formatted, each ending in "\\n".
    No value the program writes holds a comma, a quote or a line break, so
    none is quoted: the bytes are those of csv.writer with lineterminator "\\n".
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(
            row if isinstance(row, str) else ",".join(map(_format, row)) + "\n" for row in chain([header], rows)
        )


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
        ((c.n, c.k_n, c.lambda_kn, c.a_sum, c.ratio, c.xi, c.trace_sum, c.n_sup, c.v_sup, c.mode) for c in reports),
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
    stationarity gate or whose eigenvalue gaps vanish.  Each row of the
    surface is formatted into its lines as the writer takes it, so only the
    surface itself and one row's lines are held.
    """
    points = np.linspace(0.0, 1.0, round(1.0 / config.coarse_step) + 1)
    surface = model.covariance_kernel_surface(model.build_covariance(config.model), points)
    ticks = [_format(t) for t in points.tolist()]  # each label formatted once, not once per line
    value = float.__repr__  # _format of a float, without its dispatch
    rows = (
        "".join([f"{s},{t},{value(v)}\n" for t, v in zip(ticks, row.tolist())]) for s, row in zip(ticks, surface)
    )
    _write_csv(Path(path), ["s", "t", "value"], rows)


def config_with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """A copy of the configuration with a different master seed."""
    return replace(config, master_seed=seed)
