"""Command-line entry point.

Subcommands:
  run       execute the configured experiment sweep and write all artifacts
  validate  parse and check a configuration: the stationarity gate and every
            size's exceedance bound, as run computes them
  kernel    emit only the covariance-kernel surface CSV

Exit codes: 0 success, 2 configuration error, 3 stationarity-gate failure,
4 numeric failure (degenerate spectrum or covariance), 5 I/O failure.
"""

from __future__ import annotations

import os

# One BLAS thread per process.  A replication works on p x p matrices with
# p around 50, where extra BLAS threads only spin; parallelism comes from the
# --threads worker processes, which inherit these variables, and in a serial
# sweep from a second thread that runs every other chunk.  BLAS reads them
# when numpy loads, so this runs before anything imports numpy (the package
# __init__ imports none).  A value set beforehand wins.  The settings are
# recorded as made here, for the run log.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SETTINGS = {
    var: f"{os.environ[var]} (from the environment)" if var in os.environ else "1 (set by banach-ar1)"
    for var in BLAS_THREAD_VARS
}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .estimation import EigenGapError, TruncationRankError
from .harness import ConfigError, StationarityError
from .model import NoiseCovarianceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

# named explicitly: under `python -m banach_ar1.cli` this module is __main__
logger = logging.getLogger("banach_ar1.cli")


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.parse_config(args.config)
    env_seed = os.environ.get(harness.ENV_SEED_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{harness.ENV_SEED_VAR} must be an integer, got {env_seed!r}") from None
        config = harness.config_with_seed(config, seed)
    if getattr(args, "seed", None) is not None:
        config = harness.config_with_seed(config, args.seed)
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=args.out)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    workers = harness.worker_count(args.threads, len(harness.chunk_layout(config)))
    drawing = "chunks run on two threads, drawn one at a time" if workers == 1 else "chunks drawn inline"
    blas = ", ".join(f"{var}={setting}" for var, setting in BLAS_THREAD_SETTINGS.items())
    logger.info("%d worker process(es), %s, BLAS threads per process: %s", workers, drawing, blas)
    results, reports = harness.run_experiment(config, threads=args.threads)
    print(f"wrote {len(results)} replication results for {len(reports)} sample sizes to {config.output_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args)
    ctx = harness._context(config)
    gate = ctx.gate
    if not gate.holds:
        print(f"stationarity gate FAILED: norm of power {gate.j0} is {gate.norm:.6f}", file=sys.stderr)
        return EXIT_GATE
    for n in config.sample_sizes:
        ctx.bound_for(n)  # raises EigenGapError where the run's bound would
    print(
        f"config ok: modes={config.model.modes}, grid={config.model.grid_len}, "
        f"sizes={list(config.sample_sizes)}, replications={config.replications}; "
        f"stationary at power {gate.j0} with norm {gate.norm:.6f}"
    )
    return EXIT_OK


def _cmd_kernel(args) -> int:
    config = _load_config(args)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.write_kernel_surface(out_dir / "kernel_surface.csv", config)
    print(f"wrote {out_dir / 'kernel_surface.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banach-ar1",
        description="Simulation and consistency diagnostics for functional AR(1) prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("run", _cmd_run), ("validate", _cmd_validate), ("kernel", _cmd_kernel)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value configuration file")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config and environment)")
        if name == "run":
            p.add_argument(
                "--threads", type=int, default=1,
                help="worker processes (default 1; at most one per replication and usable CPU)",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StationarityError as exc:
        print(f"model gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (EigenGapError, TruncationRankError, NoiseCovarianceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
