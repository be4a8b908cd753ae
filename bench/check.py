"""Output checks for one finished banach-ar1 sweep.

`check_sweep` returns a list of problems; a sweep with any problem counts
as failed.  It reads only the CSV files, so it needs neither numpy nor the
package under test.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

RESULTS_HEADER = ["n", "replication", "error_B", "xi", "exceeded"]
OTHER_FILES = (
    "consistency.csv",
    "eigen_decay.csv",
    "kernel_surface.csv",
    "mse_curve.svg",
    "exceedance.svg",
    "consistency_ratio.svg",
    "eigen_decay.svg",
)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def read_errors(out_dir) -> dict[tuple[int, int], float]:
    """`error_B` of each (n, replication) in results.csv."""
    _, rows = _rows(Path(out_dir) / "results.csv")
    return {(int(row[0]), int(row[1])): float(row[2]) for row in rows}


def _check_results(path: Path, sizes, replications) -> tuple[list[str], dict[int, list[tuple[float, bool]]]]:
    header, rows = _rows(path)
    if header != RESULTS_HEADER:
        return [f"results.csv header is {header}"], {}
    expected = [(n, r) for n in sizes for r in range(replications)]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"results.csv has {len(rows)} rows, expected {len(expected)}")
    by_n: dict[int, list[tuple[float, bool]]] = {}
    for line_no, row in enumerate(rows, start=2):
        try:
            n, r, error, xi = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            exceeded = {"0": False, "1": True}[row[4]]
        except (ValueError, KeyError, IndexError):
            problems.append(f"results.csv line {line_no} is malformed: {row}")
            continue
        if line_no - 2 < len(expected) and (n, r) != expected[line_no - 2]:
            problems.append(f"results.csv line {line_no} is cell {(n, r)}, expected {expected[line_no - 2]}")
        if not (math.isfinite(error) and error > 0.0):
            problems.append(f"results.csv line {line_no}: error_B {row[2]} is not finite and positive")
        if not (math.isfinite(xi) and 0.0 < xi < 1.0):
            problems.append(f"results.csv line {line_no}: xi {row[3]} is not in (0, 1)")
        if exceeded != (error > xi):
            problems.append(f"results.csv line {line_no}: exceeded flag disagrees with error_B > xi")
        by_n.setdefault(n, []).append((error, exceeded))
    return problems, by_n


def _check_exceedance(path: Path, by_n) -> list[str]:
    header, rows = _rows(path)
    if header != ["n", "total", "exceeded", "proportion"]:
        return [f"exceedance_table.csv header is {header}"]
    problems = []
    if [int(row[0]) for row in rows] != sorted(by_n):
        problems.append("exceedance_table.csv sizes differ from results.csv")
    for row in rows:
        group = by_n.get(int(row[0]), [])
        count = sum(flag for _, flag in group)
        if (int(row[1]), int(row[2])) != (len(group), count) or float(row[3]) != count / max(len(group), 1):
            problems.append(f"exceedance_table.csv row {row} disagrees with results.csv")
    return problems


def _check_mse(path: Path, by_n) -> list[str]:
    header, rows = _rows(path)
    if header != ["n", "mean_sq_error_B", "ref_n_pow_minus_quarter"]:
        return [f"mse_curve.csv header is {header}"]
    problems = []
    if [int(row[0]) for row in rows] != sorted(by_n):
        problems.append("mse_curve.csv sizes differ from results.csv")
    for row in rows:
        n = int(row[0])
        squares = [error * error for error, _ in by_n.get(n, [])]
        mean = math.fsum(squares) / max(len(squares), 1)
        # the program sums with numpy's pairwise order, so allow rounding only
        if not math.isclose(float(row[1]), mean, rel_tol=1e-12):
            problems.append(f"mse_curve.csv n={n}: mean {row[1]} != {mean!r} from results.csv")
        if not math.isclose(float(row[2]), n**-0.25, rel_tol=1e-15):
            problems.append(f"mse_curve.csv n={n}: reference column is {row[2]}")
    return problems


def check_sweep(out_dir, sizes, replications) -> list[str]:
    """Problems found in the outputs of a sweep over `sizes` x `replications`."""
    out_dir = Path(out_dir)
    missing = [name for name in ("results.csv", "exceedance_table.csv", "mse_curve.csv", *OTHER_FILES)
               if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]
    if missing:
        return [f"missing or empty output files: {missing}"]
    problems, by_n = _check_results(out_dir / "results.csv", sizes, replications)
    if by_n:
        problems += _check_exceedance(out_dir / "exceedance_table.csv", by_n)
        problems += _check_mse(out_dir / "mse_curve.csv", by_n)
    _, consistency = _rows(out_dir / "consistency.csv")
    if len(consistency) != len(sizes):
        problems.append(f"consistency.csv has {len(consistency)} rows, expected {len(sizes)}")
    return problems
