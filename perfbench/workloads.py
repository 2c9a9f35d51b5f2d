"""The benchmark's workloads: the CLI commands of each job and their checks.

A job is a list of `Command`s run in order in one process.  Each command is
worth `ops` operations in the failure count: one per CLI command, per peak
search, or per verified (N, M) sector.  `check` returns how many of a
command's operations came out wrong; it runs after the timed part, with the
tracer removed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIGURE_SCRIPT = ROOT / "scripts" / "make_figure_data.py"
REFERENCE = ROOT / "data"

WORKLOADS = ("figure_data", "peak_wide", "trace_dense", "verify_n12")

# Reference tolerance for figure_data, per real-valued column:
# |out - ref| <= atol + RTOL * |ref|.  Every column reproduces data/ to the
# last printed digit except the peak location kt_star, which moves by ~1e-12
# between machines: E is stationary at a peak, so the location is fixed far
# less tightly than the value.  1e-8 in kt still pins E to ~1e-13 there.
RTOL = 1e-12
ATOL = 1e-12
ATOL_BY_COLUMN = {"kt_star": 1e-8}
INTEGER_COLUMNS = {"N", "M"}

# Checks on outputs that have no reference file.
WEIGHT_SUM_TOL = 1e-9  # the package's own SPECTRUM_SUM_TOL
RECURRENCE_TOL = 1e-9  # E at kt = 0 and kt = T
PEAK_TOL = 1e-12  # E_max against a dense-grid maximum
DENSE_GRID = 32768

FIGURE_TOY = (
    "trace_N2_M1.csv", "trace_N5_M2.csv", "sweep_fillings_N10.csv", "fit_M1.csv",
)
VERIFY_LINE = re.compile(r"verify: (\d+) samples across N <= (\d+), (\d+) failures")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `out` names the file passed as --out, if any."""

    label: str
    argv: tuple[str, ...]
    out: str | None
    ops: int = 1


@dataclass
class Outcome:
    """What one command produced; `output` is the --out file or stdout."""

    code: int | None
    output: str
    stderr: str
    error: str | None = None


def figure_runs():
    spec = importlib.util.spec_from_file_location("make_figure_data", FIGURE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


def half_filling_sizes(seed: int) -> tuple[list[int], int]:
    """Sizes for peak_wide (three) and trace_dense (one), all N in 40..60.

    Seed 0 gives the published inputs: maxent at N = 40, 50, 60 and a trace at
    N = 40.  Other seeds keep the peak_wide sizes even, because an odd N
    doubles the period and the number of peaks, and move the smallest and
    largest size by the same step, so the work stays close to seed 0's.
    """
    if seed == 0:
        return [40, 50, 60], 40
    rng = random.Random(seed)
    step = 2 * rng.randrange(4)
    middle = 50 + 2 * rng.choice((-1, 0, 1))
    return [40 + step, middle, 60 - step], rng.randrange(40, 61)


def trace_steps(dots: int) -> int:
    """Steps that keep the trace output at 50 000 rows x 22 columns of cells."""
    return round(50000 * 22 / (dots // 2 + 2))


def commands(workload: str, seed: int, toy: bool = False) -> list[Command]:
    if workload == "figure_data":
        return [
            Command(name, tuple(argv), name)
            for name, argv in figure_runs()
            if not toy or name in FIGURE_TOY
        ]
    if workload == "peak_wide":
        sizes = [6, 8] if toy else half_filling_sizes(seed)[0]
        return [
            Command(
                f"maxent_N{n}",
                ("maxent", "--dots", str(n), "--excited", str(n // 2)),
                None,
            )
            for n in sizes
        ]
    if workload == "trace_dense":
        dots = 8 if toy else half_filling_sizes(seed)[1]
        steps = 200 if toy else trace_steps(dots)
        argv = (
            "trace", "--dots", str(dots), "--excited", str(dots // 2),
            "--periods", "1", "--steps", str(steps),
        )
        return [Command(f"trace_N{dots}", argv, "trace.csv")]
    if workload == "verify_n12":
        max_dots = 4 if toy else 12
        sectors = sum(n + 1 for n in range(2, max_dots + 1))
        argv = ("verify", "--max-dots", str(max_dots), "--samples", "25")
        return [Command(f"verify_N{max_dots}", argv, "failures.csv", sectors)]
    raise ValueError(f"unknown workload {workload!r}")


def _arg(command: Command, flag: str) -> int:
    return int(command.argv[command.argv.index(flag) + 1])


def strip_manifest(text: str) -> str:
    """Output without its '#' manifest lines, which carry a timestamp."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#")
    )


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = strip_manifest(text).splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_to_reference(text: str, reference: str) -> list[str]:
    """Column-by-column differences of a CSV from its reference, if any."""
    header, rows = _table(text)
    ref_header, ref_rows = _table(reference)
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != {len(ref_rows)}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, got, want in zip(header, row, ref_row):
            if column in INTEGER_COLUMNS:
                ok = got == want
            else:
                a, b = float(got), float(want)
                ok = abs(a - b) <= ATOL_BY_COLUMN.get(column, ATOL) + RTOL * abs(b)
            if not ok:
                problems.append(f"row {i} {column}: {got} != {want}")
    return problems


def _check_peak(command: Command, outcome: Outcome) -> list[str]:
    import numpy as np

    from dotent.analysis import period
    from dotent.closed_form import (
        ModelConfig,
        SchmidtSpectrum,
        amplitude_table,
        entanglement,
        entropy_curve,
    )

    dots, excited = _arg(command, "--dots"), _arg(command, "--excited")
    record = json.loads(outcome.output)
    config = ModelConfig(dots, excited)
    T = period(config)
    weights = record["spectrum_at_max"]["weights"]
    kt, E = record["kt_star"], record["E_max"]
    dense = entropy_curve(amplitude_table(config), np.linspace(0.0, T, DENSE_GRID + 1))
    e_mes = math.log2(len(weights))
    problems = []
    if record["config"] != {"dots": dots, "excitations": excited}:
        problems.append(f"config {record['config']}")
    if len(weights) != min(excited, dots - excited) + 1:
        problems.append(f"{len(weights)} Schmidt weights")
    if not 0.0 <= kt <= T:
        problems.append(f"kt_star {kt} outside [0, {T}]")
    if not abs(math.fsum(weights) - 1.0) <= WEIGHT_SUM_TOL:
        problems.append(f"weights sum to {math.fsum(weights)}")
    if not E >= float(dense.max()) - PEAK_TOL:
        problems.append(f"E_max {E} below dense-grid maximum {dense.max()}")
    if not abs(entanglement(SchmidtSpectrum(kt, tuple(weights))) - E) <= PEAK_TOL:
        problems.append("E_max is not the entropy of spectrum_at_max")
    if not abs(record["E_MES"] - e_mes) <= PEAK_TOL:
        problems.append(f"E_MES {record['E_MES']} != log2({len(weights)})")
    if not abs(record["e_max"] - E / e_mes) <= PEAK_TOL:
        problems.append(f"e_max {record['e_max']} != E_max / E_MES")
    return problems


def _check_trace(command: Command, outcome: Outcome) -> list[str]:
    from dotent.analysis import period
    from dotent.closed_form import ModelConfig

    dots, excited = _arg(command, "--dots"), _arg(command, "--excited")
    steps = _arg(command, "--steps")
    m_prime = min(excited, dots - excited)
    header, rows = _table(outcome.output)
    want = ["kt", "E"] + [f"P_{m}" for m in range(m_prime + 1)]
    if header != want:
        return [f"header {header}"]
    if len(rows) != steps + 1:
        return [f"{len(rows)} rows for {steps} steps"]
    T = period(ModelConfig(dots, excited))
    problems = []
    first, last = rows[0], rows[-1]
    if float(first[0]) != 0.0 or not abs(float(last[0]) - T) <= 1e-12 * T:
        problems.append(f"time window [{first[0]}, {last[0]}] is not [0, {T}]")
    for row in (first, last):
        if not abs(float(row[1])) <= RECURRENCE_TOL:
            problems.append(f"E = {row[1]} at kt = {row[0]}, expected 0")
    bad = [
        row[0]
        for row in rows
        if not abs(math.fsum(map(float, row[2:])) - 1.0) <= WEIGHT_SUM_TOL
    ]
    if bad:
        problems.append(f"weights do not sum to 1 at {len(bad)} times, first {bad[0]}")
    return problems


def _verify_failed_sectors(command: Command, outcome: Outcome) -> int:
    match = VERIFY_LINE.search(outcome.stderr)
    if outcome.code not in (0, 1) or match is None:
        return command.ops
    samples, max_dots, reported = map(int, match.groups())
    if (max_dots, samples) != (
        _arg(command, "--max-dots"), _arg(command, "--samples") * command.ops
    ):
        return command.ops
    if outcome.code == 0:
        return command.ops if reported else 0
    _, rows = _table(outcome.output)
    if len(rows) != reported:
        return command.ops
    return len({(row[0], row[1]) for row in rows})


def failed_ops(
    workload: str, command: Command, outcome: Outcome, reference: Path = REFERENCE
) -> tuple[int, list[str]]:
    """Operations of `command` that failed, with a note on each problem."""
    if outcome.error is not None:
        return command.ops, [outcome.error]
    if workload == "verify_n12":
        failed = _verify_failed_sectors(command, outcome)
        return failed, ([outcome.stderr.strip()] if failed else [])
    if outcome.code != 0:
        return command.ops, [f"exit code {outcome.code}: {outcome.stderr.strip()}"]
    if workload == "figure_data":
        ref = (reference / command.out).read_text(encoding="utf-8")
        problems = compare_to_reference(outcome.output, ref)
    elif workload == "peak_wide":
        problems = _check_peak(command, outcome)
    else:
        problems = _check_trace(command, outcome)
    return (command.ops if problems else 0), problems[:5]
