"""Every dataset of scripts/make_figure_data.py, regenerated against data/."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dotent.cli import _csv_lines, main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Per real column, |new - published| <= atol + RTOL * |published|.  The peak
# location is fixed less tightly than the value, because E is stationary
# there: the search stops once its Newton step is below 1e-12, and 100 times
# that still catches a stale row whose kt_star is off by 1e-9.
RTOL = 1e-12
ATOL = 1e-12
ATOL_BY_COLUMN = {"kt_star": 1e-10}
INTEGER_COLUMNS = {"N", "M"}


def _runs():
    spec = importlib.util.spec_from_file_location(
        "make_figure_data", ROOT / "scripts" / "make_figure_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


RUNS = _runs()


def _data_stamps():
    return {p.name: p.stat().st_mtime_ns for p in (ROOT / "data").iterdir()}


def test_script_loads_from_a_clean_checkout(tmp_path):
    # no PYTHONPATH and a foreign cwd: the script must find src/ by itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(ROOT / "scripts" / "make_figure_data.py")
    probe = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('m', {script!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(len(module.RUNS), sys.modules['dotent'].__file__)\n"
    )
    before = _data_stamps()
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    count, origin = done.stdout.strip().split(" ", 1)
    assert int(count) == 13
    assert pathlib.Path(origin).is_relative_to(ROOT / "src")
    assert _data_stamps() == before
    assert list(tmp_path.iterdir()) == []


def _table(path):
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_regenerated_dataset_matches_data(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = _table(out)
    ref_header, ref_rows = _table(ROOT / "data" / name)
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for j, column in enumerate(header):
        got = [row[j] for row in rows]
        want = [row[j] for row in ref_rows]
        if column in INTEGER_COLUMNS:
            assert got == want, column
        else:
            np.testing.assert_allclose(
                np.array(got, dtype=float),
                np.array(want, dtype=float),
                rtol=RTOL,
                atol=ATOL_BY_COLUMN.get(column, ATOL),
                err_msg=column,
            )


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_published_rows_round_trip_through_the_writer(same_lines, name):
    # 15 significant digits round-trip through float64, so the parsed cells
    # must format back to the published bytes, whatever machine made them.
    lines = (ROOT / "data" / name).read_text(encoding="utf-8").splitlines(True)
    header, *rows = [line for line in lines if not line.startswith("#")]
    formats = [
        "%d" if column in INTEGER_COLUMNS else "%.14e"
        for column in header.rstrip("\n").split(",")
    ]
    values = np.array([row.split(",") for row in rows], dtype=float)
    same_lines(str(_csv_lines(values, formats), "ascii"), "".join(rows))
