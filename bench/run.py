"""Benchmark of the banach-ar1 Monte Carlo sweep.

Run from the root of a source checkout:

    python3 bench/run.py --workload desk-1w --seed 1 --seconds 40 --trace 0

With `--trace 0` it drives the command-line program as a user would, one
sweep at a time (a closed loop with one client), checks every sweep's
outputs and prints the end-to-end metrics.  With `--trace 1` it runs the
sweep in-process with spans around each layer (see tracing.py) and prints
the per-layer metrics.  The last line of standard output is the JSON result
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
report with the machine facts and the samples behind each metric.

The program runs from `src/` in the environment it was given: the benchmark
sets no BLAS or OpenMP thread variable, because oversubscription of BLAS
threads is one of the things it measures.  Scratch output goes under
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from check import check_sweep, read_errors

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CLI_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    sample_sizes: tuple[int, ...]
    replications: int
    threads: int

    @property
    def cells(self) -> int:
        return len(self.sample_sizes) * self.replications


# Why each workload exists is recorded in bench/README.md.  desk-2w is
# runnable by hand but kept out of BENCHMARK.json: its run-to-run spread is
# wider than any bound the benchmark may set.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-1w", "", (500, 2000, 8000), 50, threads=1),
        Workload("desk-2w", "", (500, 2000, 8000), 50, threads=2),
        Workload("short-many", "sample_sizes = 50,100,200\nreplications = 400\n", (50, 100, 200), 400, threads=1),
    )
}


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class CliRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_cli(root: Path, args: list[str], log_path: Path) -> CliRun:
    """Run `banach-ar1 <args>` and collect its process tree's resource use.

    `os.wait4` returns the child's rusage including every descendant it
    reaped (the pool workers), so cpu_s is user + system time of the whole
    tree and rss_mb the largest resident set among its processes.
    """
    command = [sys.executable, "-m", "banach_ar1.cli", *args]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=program_env(root), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the whole process group down with us
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tally:
    """Attempted and failed invocations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])
        return not problems


def measure_cli(root: Path, wl: Workload, seed: int, seconds: float, work: Path):
    """End-to-end metrics: `validate` for set-up time, then `run` sweeps for `seconds`."""
    cfg = work / "workload.cfg"
    cfg.write_text(wl.config_text, encoding="utf-8")
    common = ["--config", str(cfg), "--seed", str(seed)]
    tally = Tally()

    setup = []
    for i in range(SETUP_REPEATS):
        res = run_cli(root, ["validate", *common], work / "validate.log")
        if tally.record(f"validate {i}", [] if res.code == 0 else [f"exit code {res.code}"]):
            setup.append(res.wall_s)

    def sweep(label: str, threads: int) -> tuple[CliRun, bytes | None, list[str]]:
        out = _fresh(work / label)
        res = run_cli(root, ["run", *common, "--out", str(out), "--threads", str(threads)], work / f"{label}.log")
        problems = [f"exit code {res.code}"] if res.code else check_sweep(out, wl.sample_sizes, wl.replications)
        results = (out / "results.csv").read_bytes() if not problems else None
        return res, results, problems

    runs: list[CliRun] = []
    first_results = None
    attempts = 0
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        res, results, problems = sweep("sweep", wl.threads)
        if results is not None:
            first_results = first_results or results
            if results != first_results:
                problems = ["results.csv differs from the first sweep of this run"]
        if tally.record(f"sweep {attempts}", problems):
            runs.append(res)
        attempts += 1
    if wl.threads != 1 and first_results is not None:
        # determinism contract: any worker count gives the same bytes
        _, results, problems = sweep("reference_1w", 1)
        if results is not None and results != first_results:
            problems = [f"results.csv at --threads {wl.threads} differs from --threads 1"]
        tally.record("reference sweep at --threads 1", problems)

    if not runs or not setup:
        return None, tally, {}
    wall = statistics.median([r.wall_s for r in runs])
    metrics = {
        "wall_s": (wall, "s"),
        "replications_per_s": (wl.cells / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median([r.cpu_s for r in runs]), "s"),
        "peak_rss_mb": (statistics.median([r.rss_mb for r in runs]), "MB"),
    }
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
        "setup_s": setup,
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, tally, samples


def _timed_import(root: Path) -> float:
    code = "import time; t = time.perf_counter(); import banach_ar1; print(repr(time.perf_counter() - t))"
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=program_env(root),
                         capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S)
    return float(out.stdout.strip())


def _same_files(a: Path, b: Path) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"{b.name} holds other files than {a.name}"]
    return [f"{name} differs between {a.name} and {b.name}" for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()]


def measure_layers(root: Path, wl: Workload, seed: int, seconds: float, work: Path):
    """Per-layer metrics from the traced in-process sweep."""
    import_times = [_timed_import(root) for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, str(root / "src"))
    from banach_ar1 import harness
    from tracing import (REPLICATION_LAYERS, Tracer, replication_layer_coverage, traced_sweep,
                         untraced_replications, write_spans)

    cfg = work / "workload.cfg"
    cfg.write_text(wl.config_text, encoding="utf-8")
    config = harness.config_with_seed(harness.parse_config(cfg), seed)
    tracer = Tracer()
    tally = Tally()
    start = time.perf_counter()
    run_experiment_s = {}
    for threads in (1, 2):
        out = _fresh(work / f"run_experiment_{threads}w")
        begin = time.perf_counter()
        harness.run_experiment(replace(config, output_dir=str(out)), threads=threads)
        run_experiment_s[threads] = time.perf_counter() - begin

    harness.run_replication(config, wl.sample_sizes[0], 0)  # builds the program's cached run context
    untraced = []
    traced_dir = work / "traced"
    while not untraced or time.perf_counter() - start < seconds:
        if len(untraced) % 2:  # alternate which side of the overhead pair runs first
            errors = traced_sweep(config, _fresh(traced_dir), tracer)
            untraced_s, expected = untraced_replications(config)
        else:
            untraced_s, expected = untraced_replications(config)
            errors = traced_sweep(config, _fresh(traced_dir), tracer)
        untraced.append(untraced_s)
        problems = check_sweep(traced_dir, wl.sample_sizes, wl.replications)
        if errors != expected:
            problems.append("traced errors differ from harness.run_replication")
        tally.record(f"traced sweep {len(untraced)}", problems)

    for threads in run_experiment_s:
        out = work / f"run_experiment_{threads}w"
        problems = check_sweep(out, wl.sample_sizes, wl.replications) + _same_files(traced_dir, out)
        if read_errors(out) != errors:
            problems.append("traced per-replication errors differ from results.csv")
        tally.record(f"run_experiment at {threads} workers", problems)
    write_spans(tracer, work / "spans.csv")

    passes = len(untraced)
    per_pass = {name: tracer.total(name) / passes for name in (
        "harness.replications", *REPLICATION_LAYERS, "diagnostics.trace", "diagnostics.aggregate", "harness.write")}
    phase = per_pass["harness.replications"]
    layer_sum = sum(per_pass[name] for name in REPLICATION_LAYERS)
    fixed = per_pass["diagnostics.trace"] + per_pass["diagnostics.aggregate"] + per_pass["harness.write"]
    replication_ms = sorted(d * 1e3 for d in tracer.durations("replication"))
    traced_phase = statistics.median(tracer.durations("harness.replications"))
    counts = tracer.counts
    metrics = {
        "setup.import_s": (statistics.median(import_times), "s"),
        "model.build_s": (statistics.median(tracer.durations("model.build")), "s"),
        "model.simulate_s": (per_pass["model.simulate"], "s"),
        "model.simulate_share": (per_pass["model.simulate"] / phase, "ratio"),
        "model.simulate_ns_per_state": (tracer.total("model.simulate") / counts["model.states_simulated"] * 1e9, "ns"),
        "model.states_simulated": (counts["model.states_simulated"] // passes, "count"),
        "estimation.fit_s": (per_pass["estimation.fit"], "s"),
        "estimation.fit_share": (per_pass["estimation.fit"] / phase, "ratio"),
        "estimation.fit_calls": (counts["estimation.fit_calls"] // passes, "count"),
        "estimation.fit_rank_deficient_frac": (
            counts["estimation.fit_rank_deficient"] / counts["estimation.fit_calls"], "ratio"),
        "estimation.predict_s": (per_pass["estimation.predict"], "s"),
        "estimation.score_s": (per_pass["estimation.score"], "s"),
        "estimation.score_share": (per_pass["estimation.score"] / phase, "ratio"),
        "diagnostics.trace_s": (per_pass["diagnostics.trace"], "s"),
        "diagnostics.aggregate_s": (per_pass["diagnostics.aggregate"], "s"),
        "harness.write_s": (per_pass["harness.write"], "s"),
        "harness.output_bytes": (sum(p.stat().st_size for p in traced_dir.iterdir()), "bytes"),
        "harness.run_experiment_s": (run_experiment_s[1], "s"),
        "harness.run_experiment_2w_s": (run_experiment_s[2], "s"),
        "harness.pool_wait_s": (run_experiment_s[2] - layer_sum / 2 - fixed, "s"),
        "replication_ms_p50": (statistics.median(replication_ms), "ms"),
        "replication_ms_p99": (statistics.quantiles(replication_ms, n=100)[98] if len(replication_ms) > 1
                               else replication_ms[0], "ms"),
        "replication_samples": (len(replication_ms), "count"),
        "trace.overhead_s": (traced_phase - statistics.median(untraced), "s"),
        "trace.overhead_frac": (traced_phase / statistics.median(untraced) - 1.0, "ratio"),
        "trace.layer_coverage": (replication_layer_coverage(tracer), "ratio"),
    }
    samples = {
        "traced_passes": passes,
        "untraced_replication_phase_s": untraced,
        "traced_replication_phase_s": tracer.durations("harness.replications"),
        "import_s": import_times,
        "spans_file": str((work / "spans.csv").relative_to(root)),
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, tally, samples


MACHINE_FACTS = """
import json, os, platform, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "os_cpu_count": os.cpu_count(),
    "sched_affinity": len(os.sched_getaffinity(0)),
    "blas_name": blas.get("name"),
    "blas_version": blas.get("version"),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
"""


def machine_facts(root: Path) -> dict:
    facts = json.loads(subprocess.run([sys.executable, "-c", MACHINE_FACTS], cwd=root, env=program_env(root),
                                      capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S).stdout)
    facts["thread_env"] = {name: os.environ.get(name) for name in THREAD_VARS}
    facts["git_commit"] = None
    if (root / ".git").exists():  # a plain checkout is not a repository; never look above it
        try:
            facts["git_commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                                 text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def measure(root: Path, wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one measurement; returns the result object and the report behind it."""
    work = _fresh(root / ".bench_out" / f"{wl.name}-s{seed}-t{int(trace)}")
    master_seed = seed % 2**31  # the program requires a non-negative seed
    measure_fn = measure_layers if trace else measure_cli
    metrics, tally, samples = measure_fn(root, wl, master_seed, seconds, work)
    report = {
        "workload": wl.name, "seed": seed, "master_seed": master_seed, "trace": int(trace),
        "machine": machine_facts(root), "samples": samples, "problems": tally.problems,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if metrics is None:
        return None, report
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # runs the cleanup above
    if not (ROOT / "src" / "banach_ar1" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from the root of a source checkout", file=sys.stderr)
        return 2
    result, report = measure(ROOT, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    if result is None:
        print("no successful measurement; see the problems in the report above", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
