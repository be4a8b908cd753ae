"""Traced in-process sweep: per-layer timings taken from outside the program.

`traced_sweep` mirrors `harness.run_experiment` step by step.  It calls the
same public functions with the same `replication_rng(seed, n, r)` streams,
so its CSVs are byte-identical to the program's.  Around each call into a
layer it records a span (name, start, end, parent, replication id) in
memory; `write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from banach_ar1 import diagnostics, estimation, harness, model

REPLICATION_LAYERS = ("model.simulate", "estimation.fit", "estimation.predict", "estimation.score", "diagnostics.bound")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, (n, r) or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str, rep: tuple[int, int] | None = None):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, rep])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def traced_sweep(config: harness.ExperimentConfig, out_dir: Path, tracer: Tracer) -> dict[tuple[int, int], float]:
    """One sweep of `config` with spans around every layer; writes outputs to out_dir."""
    if config.spline_mode:
        raise ValueError("the traced sweep mirrors grid scoring only")
    params = config.model
    with tracer.span("sweep"):
        with tracer.span("model.build"):
            covariance = model.build_covariance(params)
            rho = model.build_rho(params)
            noise = model.build_noise_covariance(params, covariance, rho)
            gate = model.check_stationarity(rho, j0_max=10)
            c_extended = model.covariance_eigenvalues(params.gamma, params.modes + 1)
        if not gate.holds:
            raise harness.StationarityError("traced sweep: stationarity gate failed")

        def bound(n: int) -> tuple[int, float]:
            k = estimation.truncation_order(n, config.truncation, p_max=min(n - 1, params.modes))
            a_vals = estimation.gap_coefficients(c_extended, k)
            return k, diagnostics.exceedance_bound(n, k, c_extended, a_vals)

        results = []
        decay_rows = []
        with tracer.span("harness.replications"):
            for n in config.sample_sizes:
                for r in range(config.replications):
                    with tracer.span("replication", (n, r)):
                        with tracer.span("model.simulate", (n, r)):
                            rng = harness.replication_rng(config.master_seed, n, r)
                            if config.truncated_init:
                                x0 = model.sample_initial_condition(covariance, rng)
                            else:
                                x0 = np.zeros(params.modes)
                            traj = model.simulate_trajectory(n, rho, noise, x0, rng, burn_in=config.burn_in)
                        with tracer.span("estimation.fit", (n, r)):
                            state = estimation.fit_estimator(traj.head(n), config.truncation)
                        with tracer.span("estimation.predict", (n, r)):
                            newest = traj.states[n]
                            predicted = estimation.plug_in_predict(state, newest)
                            truth = rho.matrix @ newest
                        with tracer.span("estimation.score", (n, r)):
                            error = estimation.prediction_error_besov(truth, predicted, params.grid_len, config.wavelet)
                        with tracer.span("diagnostics.bound", (n, r)):
                            _, xi = bound(n)
                    tracer.count("model.states_simulated", len(traj) + config.burn_in)
                    tracer.count("estimation.fit_calls")
                    tracer.count("estimation.fit_rank_deficient", int(n - 1 < params.modes))
                    results.append(diagnostics.ExperimentResult(n=n, replication=r, error_b=error, xi=xi))
                    if r == 0:
                        decay_rows.extend((n, j, value) for j, value in diagnostics.eigen_decay_report(state))

        with tracer.span("diagnostics.trace"):
            phi = model.eigenfunctions_on_grid(params.modes, params.grid_len)
            trace = diagnostics.trace_embedding_report(phi, config.wavelet)
        with tracer.span("diagnostics.aggregate"):
            reports = []
            for n in config.sample_sizes:
                k, xi = bound(n)
                a_vals = estimation.gap_coefficients(c_extended, k)
                reports.append(
                    diagnostics.ConsistencyReport(
                        n=n,
                        k_n=k,
                        lambda_kn=estimation.max_inverse_gap(c_extended, k),
                        a_sum=float(a_vals.sum()),
                        ratio=diagnostics.consistency_ratio(n, k, c_extended, a_vals),
                        xi=xi,
                        trace_sum=trace.trace_sum,
                        n_sup=trace.n_sup,
                        v_sup=trace.v_sup,
                        mode="true",
                    )
                )
            diagnostics.exceedance_table(results)
            diagnostics.empirical_mse_curve(results)
        with tracer.span("harness.write"):
            out_dir.mkdir(parents=True, exist_ok=True)
            harness.write_outputs(out_dir, config, results, reports, sorted(decay_rows))
    return {(res.n, res.replication): res.error_b for res in results}


def untraced_replications(config: harness.ExperimentConfig) -> tuple[float, dict[tuple[int, int], float]]:
    """Wall time of the program's own `run_replication` over every cell, and its errors."""
    start = time.perf_counter()
    errors = {}
    for n in config.sample_sizes:
        for r in range(config.replications):
            result, _ = harness.run_replication(config, n, r)
            errors[(n, r)] = result.error_b
    return time.perf_counter() - start, errors


def replication_layer_coverage(tracer: Tracer) -> float:
    """Share of the replication spans' time covered by their named layer spans."""
    return sum(tracer.total(name) for name in REPLICATION_LAYERS) / tracer.total("replication")


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "name", "start_s", "end_s", "parent", "n", "replication"])
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for index, (name, start, end, parent, rep) in enumerate(tracer.spans):
            n, r = rep if rep is not None else ("", "")
            writer.writerow([index, name, repr(start - origin), repr(end - origin), parent, n, r])
