"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from banach_ar1 import harness
from check import check_sweep

TINY_CONFIG = "sample_sizes = 6,20\nreplications = 3\nmodes = 8\ngrid_len = 256\n"
TINY_1W = run.Workload("tiny-1w", TINY_CONFIG, (6, 20), 3, threads=1)
TINY_2W = replace(TINY_1W, name="tiny-2w", threads=2)


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    cfg = base / "tiny.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    config = replace(harness.parse_config(cfg), output_dir=str(base / "out"))
    harness.run_experiment(config)
    return base / "out"


def test_clean_sweep_passes_check(tiny_sweep):
    assert check_sweep(tiny_sweep, TINY_1W.sample_sizes, TINY_1W.replications) == []


def _edit_row(index, column, value):
    def edit(lines):
        cells = lines[index].split(",")
        cells[column] = value
        lines[index] = ",".join(cells)
        return lines
    return edit


def _rescale_error(lines):
    """A valid-looking error_B that no longer matches mse_curve.csv."""
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (2.0 if cells[4] == "1" else 0.5))  # keeps the exceeded flag true
    lines[1] = ",".join(cells)
    return lines


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda lines: lines[:-1], id="row-dropped"),
        pytest.param(lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], id="rows-swapped"),
        pytest.param(_edit_row(1, 2, "nan"), id="error-nan"),
        pytest.param(_edit_row(1, 2, "-0.5"), id="error-negative"),
        pytest.param(_edit_row(2, 3, "1.0"), id="xi-out-of-range"),
        pytest.param(_edit_row(3, 4, "2"), id="flag-malformed"),
        pytest.param(_rescale_error, id="error-disagrees-with-tables"),
    ],
)
def test_corrupted_results_fail_check(tiny_sweep, tmp_path, corrupt):
    out = shutil.copytree(tiny_sweep, tmp_path / "out")
    path = out / "results.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
    assert check_sweep(out, TINY_1W.sample_sizes, TINY_1W.replications)


def test_missing_output_fails_check(tiny_sweep, tmp_path):
    out = shutil.copytree(tiny_sweep, tmp_path / "out")
    (out / "mse_curve.csv").unlink()
    assert check_sweep(out, TINY_1W.sample_sizes, TINY_1W.replications)


def _declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize(
    "workload, trace",
    [(TINY_1W, False), (TINY_2W, False), (TINY_1W, True)],
    ids=["cli-1w", "cli-2w", "traced"],
)
def test_printed_metrics_are_declared(workload, trace):
    result, report = run.measure(run.ROOT, workload, seed=5, seconds=0, trace=trace)
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-1w", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
