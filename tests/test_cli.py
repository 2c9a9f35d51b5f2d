import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dotent.analysis as analysis
import dotent.cli as cli
import dotent.closed_form as closed_form
from dotent.closed_form import (
    ModelConfig,
    entanglement,
    schmidt_spectrum,
    trace_entanglement,
)
from dotent.closed_form import amplitude_table as real_amplitude_table
from dotent.oracle import (
    DEFAULT_MAX_DOTS,
    build_basis,
    build_hamiltonian,
    evolve,
    reduced_entropy,
)

FLOAT_CELL = re.compile(r"^-?\d\.\d{14}e[+-]\d{2,}$")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _bumped_table(config):
    """Stand-in table builder whose output silently violates normalization."""
    table = real_amplitude_table(config)
    rows = [list(r) for r in table.numerators]
    rows[0][0] += table.denominator // 7 + 1
    return dataclasses.replace(table, numerators=tuple(tuple(r) for r in rows))


def _reference_lines(columns, rows):
    """Data lines as per-row '%' formatting prints them: the writer's reference."""
    line = ",".join("%d" if c in ("N", "M") else "%.14e" for c in columns) + "\n"
    values = np.asarray(rows, dtype=float) + 0.0
    return "".join(line % tuple(row) for row in values.tolist())


def _written_lines(columns, rows, path="-"):
    """Data lines as _write_csv prints them to path ('-': stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_csv(str(path), "# manifest", columns, rows)
    text = out.getvalue() if path == "-" else pathlib.Path(path).read_bytes().decode()
    manifest, header, lines = text.split("\n", 2)
    assert (manifest, header) == ("# manifest", ",".join(columns))
    return lines


@pytest.fixture
def python_rows(monkeypatch):
    """Every row the writer hands to Python's % instead of its kernel, in order."""
    rows = []
    python_lines = cli._python_lines

    def logged(values, formats):
        rows.extend(values.tolist())
        return python_lines(values, formats)

    monkeypatch.setattr(cli, "_python_lines", logged)
    return rows


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


class TestTrace:
    def test_two_dot_flips(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--dots", "2", "--excited", "1",
            "--kt-max", "3.1416", "--steps", "4",
        )
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["kt", "E", "P_0", "P_1"]
        assert len(rows) == 5
        entropies = [float(r[1]) for r in rows]
        for got, want in zip(entropies, [0.0, 1.0, 0.0, 1.0, 0.0]):
            assert abs(got - want) < 1e-8
        manifest = json.loads(comments[0][1:])
        assert manifest["command"] == "trace"
        assert manifest["tool_version"] == cli.__version__
        assert manifest["parameters"]["steps"] == 4

    def test_seven_dot_panel_peak(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--dots", "7", "--excited", "1",
            "--kt-max", "0.8976", "--steps", "512",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(max(float(r[1]) for r in rows) - 0.9997) < 1e-3

    def test_two_excited_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--dots", "11", "--excited", "2",
            "--kt-max", "6.2832", "--steps", "1024",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["kt", "E", "P_0", "P_1", "P_2"]
        best = max(rows, key=lambda r: float(r[1]))
        assert abs(float(best[0]) - math.pi) < 0.02

    def test_periods_flag_matches_explicit_window(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2",
            "--periods", "1", "--steps", "16",
        )
        code_b, out_b, _ = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2",
            "--kt-max", str(math.pi), "--steps", "16",
        )
        assert code_a == code_b == 0
        assert out_a.splitlines()[1:] == out_b.splitlines()[1:]

    def test_window_required(self, capsys):
        code, _, err = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2", "--steps", "16",
        )
        assert code == 2
        assert "error" in err

    def test_window_given_once(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--dots", "7", "--excited", "1",
            "--periods", "1", "--kt-max", "5", "--steps", "4",
        )
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    # 1e308 periods overflow to an infinite window; a 1e308 window overflows
    # kt times the phase multipliers.
    @pytest.mark.parametrize(
        "window",
        [
            ("--kt-max", "nan"), ("--kt-max", "inf"), ("--periods", "nan"),
            ("--periods", "1e308"), ("--kt-max", "1e308"),
        ],
    )
    def test_non_finite_window_rejected(self, capsys, window):
        code, out, err = run_cli(
            capsys, "trace", "--dots", "5", "--excited", "2", *window, "--steps", "3",
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    # Adjacent float times at the window's end differ by a radian of phase or
    # more.  Both exited 0: the first with a last time that reads back as inf,
    # the second with meaningless weights.
    @pytest.mark.parametrize(
        "argv",
        [
            ["--dots", "1", "--excited", "0", "--kt-max", "1.7976931348623151e+308",
             "--steps", "2"],
            ["--dots", "12", "--excited", "6", "--kt-max", "1e300", "--steps", "4"],
        ],
        ids=["max-float", "1e300"],
    )
    def test_window_beyond_phase_resolution_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "trace", *argv)
        assert code == 2
        assert out == ""
        assert "beyond finite precision" in err

    # The rule is trace_entanglement's, and the CLI draws it at the same window.
    @pytest.mark.parametrize("dots, excited", [(2, 1), (7, 3), (12, 6)])
    @pytest.mark.parametrize("path", ["cli", "library"])
    def test_longest_window_resolves_a_radian(self, capsys, path, dots, excited):
        config = ModelConfig(dots, excited)
        fastest = max(abs(m) for m in config.phase_multipliers)
        # The first power of two at which the float spacing times fastest is 1.
        limit = 2.0 ** math.ceil(52 - math.log2(fastest))
        for kt_max, refused in ((np.nextafter(limit, 0.0), False), (limit, True)):
            kt_max = float(kt_max)
            if path == "cli":
                code, out, _ = run_cli(
                    capsys, "trace", "--dots", str(dots), "--excited", str(excited),
                    "--kt-max", repr(kt_max), "--steps", "2",
                )
                assert code == (2 if refused else 0), kt_max
                assert (out == "") == refused
            elif refused:
                with pytest.raises(ValueError, match="beyond finite precision"):
                    trace_entanglement(config, kt_max, 2)
            else:
                assert trace_entanglement(config, kt_max, 2)[-1, 0] == kt_max

    def test_rows_match_the_reference_bytes(
        self, capsys, tmp_path, same_lines, python_rows
    ):
        argv = ["trace", "--dots", "40", "--excited", "20", "--periods", "1",
                "--steps", "3000"]
        config = ModelConfig(40, 20)
        rows = trace_entanglement(config, analysis.period(config), 3000)
        columns = ["kt", "E"] + [f"P_{m}" for m in range(21)]
        want = ",".join(columns) + "\n" + _reference_lines(columns, rows)
        # Python prints the rows with a zero, which the kernel cannot: the
        # kt = 0 row and a few whose smallest weights (~1e-34) round to 0
        # (two, with OpenBLAS 0.3).  The kernel prints every other row,
        # weights below 1e-8 included, from its double-double powers of ten.
        zero_rows = rows[(rows == 0.0).any(axis=1)]
        assert (zero_rows[0] == rows[0]).all() and len(zero_rows) < 10
        assert (rows[1:] < 1e-8).any()
        out_path = tmp_path / "trace.csv"
        assert cli.main(argv + ["--out", str(out_path)]) == 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        for text in (out_path.read_text(encoding="utf-8"), out):
            same_lines(text.split("\n", 1)[1], want)
        assert python_rows == zero_rows.tolist() * 2

    def test_too_few_steps(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2",
            "--kt-max", "1.0", "--steps", "0",
        )
        assert code == 2
        assert out == ""
        assert "at least one step" in err

    def test_one_step_writes_both_ends_of_the_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2",
            "--kt-max", "1.0", "--steps", "1",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["kt", "E", "P_0", "P_1", "P_2"]
        assert [float(row[0]) for row in rows] == [0.0, 1.0]

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, "trace", "--dots", "2", "--excited", "1",
            "--kt-max", "1.0", "--steps", "4",
            "--out", "/no/such/directory/trace.csv",
        )
        assert code == 3

    def test_deterministic_data_rows(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert cli.main([
                "trace", "--dots", "9", "--excited", "4",
                "--kt-max", "6.0", "--steps", "64", "--out", str(p),
            ]) == 0
        a, b = [p.read_text(encoding="utf-8") for p in paths]
        assert a.splitlines()[1:] == b.splitlines()[1:]
        assert "\r" not in a

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--dots", "5", "--excited", "2", "--kt-max", "2.0",
             "--steps", "8"],
            ["sweep", "--dots", "6"],
            ["sweep", "--excited", "half", "--dots", "2..7"],
            ["fit", "--excited", "1", "--dots", "7..10"],
            ["verify", "--max-dots", "3", "--samples", "4"],
        ],
        ids=["trace", "sweep-fillings", "sweep-sizes", "fit", "verify-failures"],
    )
    def test_float_formatting(self, capsys, monkeypatch, tmp_path, argv):
        # The bumped table makes verify write a failure table, in which the
        # analytical entropy of every sample reads nan.
        if argv[0] == "verify":
            monkeypatch.setattr(closed_form, "amplitude_table", _bumped_table)
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == (1 if argv[0] == "verify" else 0)
        _, header, rows = parse_csv(out_path.read_text(encoding="utf-8"))
        assert rows
        for row in rows:
            for column, cell in zip(header, row):
                if column in ("N", "M"):
                    assert re.match(r"^\d+$", cell), cell
                elif column == "E_analytical" or column == "abs_diff":
                    assert cell == "nan", cell
                else:
                    assert FLOAT_CELL.match(cell), cell


def _exact_ties():
    """Dyadic rationals whose exact decimal expansion ends in a 5 at digit 16."""
    values = [m * 2.0**e for e in range(-70, 60) for m in range(1, 300, 2)]
    digits = [Decimal(v).as_tuple().digits for v in values]
    return [v for v, d in zip(values, digits) if len(d) == 16 and d[-1] == 5]


def _decade_neighbours():
    """10**j and two float steps either side of it, for j in -101..20.

    This spans the kernel's whole domain, from the 3-digit exponents below
    1e-99 to the Python-formatted cells from 1e15 up.
    """
    values = []
    for j in range(-101, 21):
        below = above = float(f"1e{j}")
        values.append(below)
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [float(below), float(above)]
    return values


def _decimal_halves():
    """Floats nearest to d.ddddddddddddd5 * 10**E, and their neighbours.

    One random 15-digit d per exponent E in -99..-9, where 10**(14 - E) is
    no float and the kernel rounds on its double-double powers of ten.
    """
    digits = np.random.default_rng(1).integers(10**14, 10**15, 20 * 91).tolist()
    values = np.array(
        [float(f"{d}5e{e - 15}") for d, e in zip(digits, list(range(-99, -8)) * 20)]
    )
    return np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    ).tolist()


EDGE_CASES = {
    "ties": (np.random.default_rng(0).integers(10**14, 10**15, 4000) + 0.5).tolist(),
    "dyadic-ties": _exact_ties(),
    "decades": _decade_neighbours(),
    # digits 9.99999999999999|5.. may carry into the next decade
    "round-up": [
        float(f"9.99999999999999{tail}e{j}")
        for tail in ("4", "49999", "5", "50001", "6", "9")
        for j in range(-99, 17)
    ],
    "decimal-halves": _decimal_halves(),
    "extremes": [
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        math.nan, math.inf, -math.inf, 1e-8, 9.999999999999999e-9, 1e15,
        999999999999999.9,
    ],
}
FLOAT = st.one_of(st.floats(), st.floats(-1e16, 1e16))
# The cells the kernel prints: %.14e values with a two-digit exponent.
IN_DOMAIN = st.floats(1e-99, 1e15, exclude_max=True)


def _outside_the_kernel(rows):
    """The rows with a cell outside [1e-99, 1e15), NaN included.

    Where every rounding is decided, these are the rows Python prints.
    """
    rows = np.asarray(rows, dtype=float)
    return rows[~((rows >= 1e-99) & (rows < 1e15)).all(axis=1)].tolist()


class TestCsvWriter:
    """_write_csv against the per-row '%' reference, byte for byte.

    A row of float columns whose cells all lie in [1e-99, 1e15) is built by
    the kernel; Python prints every other row whole, and every row of a
    table with an integer column.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.one_of(IN_DOMAIN, FLOAT)] * 3), min_size=1, max_size=40
        )
    )
    def test_any_floats(self, same_lines, rows):
        columns = ["kt", "E", "P_0"]
        same_lines(_written_lines(columns, rows), _reference_lines(columns, rows))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), FLOAT, IN_DOMAIN), min_size=1, max_size=40
        )
    )
    def test_any_floats_beside_an_integer_column(self, same_lines, rows):
        columns = ["N", "kt", "E"]
        same_lines(_written_lines(columns, rows), _reference_lines(columns, rows))

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_values(self, same_lines, python_rows, case):
        rows = [(v,) for v in EDGE_CASES[case]]
        same_lines(_written_lines(["x"], rows), _reference_lines(["x"], rows))
        np.testing.assert_array_equal(python_rows, _outside_the_kernel(rows))

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_negative_and_integer_rows_go_whole_through_python(
        self, same_lines, python_rows, case
    ):
        columns = ["M", "x", "minus_x"]
        rows = [(i, v, -v) for i, v in enumerate(EDGE_CASES[case])]
        same_lines(_written_lines(columns, rows), _reference_lines(columns, rows))
        np.testing.assert_array_equal(python_rows, rows)
        negated = [row[2:] for row in rows]
        same_lines(_written_lines(["x"], negated), _reference_lines(["x"], negated))
        assert len(python_rows) == 2 * len(rows)

    # The exponent is guessed from the binary exponent, exact or one low, and
    # corrected when it is one off.  Biased by one on every binade that holds
    # no power of ten, where the guess is exact, it is one off either way for
    # about half the cells.
    @pytest.mark.parametrize("bias", [-1, 1])
    def test_exponent_guess_one_off(self, monkeypatch, same_lines, python_rows, bias):
        guesses = cli._GUESSES
        one_decade = np.append(guesses[:-1] == guesses[1:], False)
        biased = np.where(one_decade, guesses + bias, guesses)
        monkeypatch.setattr(cli, "_GUESSES", biased)
        rows = [(v,) for case in EDGE_CASES.values() for v in case]
        values = np.array([v for v in np.ravel(rows) if 1e-99 <= v < 1e15])
        exponents = np.array([Decimal(v).adjusted() for v in values.tolist()])
        guessed = np.take(biased, values.view(np.int64) >> 52) - 100
        assert np.all(np.abs(guessed - exponents) <= 1)
        assert np.mean(guessed != exponents) > 0.4
        same_lines(_written_lines(["x"], rows), _reference_lines(["x"], rows))
        np.testing.assert_array_equal(python_rows, _outside_the_kernel(rows))

    def test_exponent_guess_within_one_at_both_ends_of_every_binade(self):
        # [2**e, 2**(e + 1)) spans log10(2) of a decade, so floor(log10 a) is
        # the guess floor(e * log10(2)) or one more.
        binades = range(math.frexp(1e-99)[1] - 1, math.frexp(1e15)[1])
        ends = np.clip(
            [(2.0**e, np.nextafter(2.0 ** (e + 1), 0.0)) for e in binades],
            1e-99, np.nextafter(1e15, 0.0),
        ).ravel()
        exponents = np.array([Decimal(x).adjusted() for x in ends.tolist()])
        guessed = np.take(cli._GUESSES, ends.view(np.int64) >> 52) - 100
        assert set((exponents - guessed).tolist()) == {0, 1}

    @pytest.mark.parametrize("destination", ["stdout", "file"])
    @pytest.mark.parametrize(
        "count", [1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1]
    )
    def test_row_counts_around_a_chunk(
        self, tmp_path, same_lines, python_rows, count, destination
    ):
        rng = np.random.default_rng(count)
        scales = 10.0 ** rng.integers(-12, 17, (count, 3))
        rows = np.abs(rng.standard_normal((count, 3))) * scales
        rows[::7, 1] = 0.0
        rows[::11, 2] *= -1.0
        # Python prints the last row of one chunk and the first of the next.
        rows[cli.CHUNK_ROWS - 1 : cli.CHUNK_ROWS + 1, 0] = 0.0
        columns = ["kt", "E", "P_0"]
        path = "-" if destination == "stdout" else tmp_path / "rows.csv"
        same_lines(_written_lines(columns, rows, path), _reference_lines(columns, rows))
        assert python_rows == _outside_the_kernel(rows)

    def test_only_rows_with_unscaled_cells_go_through_python(
        self, same_lines, python_rows
    ):
        scaled = [1e-8, 0.5, 2.0, 999999999999999.9, 1e-99, 9.999999999999995e-3,
                  9.999999999999999e-9]
        unscaled = [0.0, -0.0, -3.25e-5, math.nan, math.inf, -math.inf, 5e-324,
                    9.999999999999999e-100, 1e15, -1.7976931348623157e308]
        rows = [(v, 1.5) for v in scaled] + [(1.5, v) for v in unscaled]
        rows = np.array(rows)[np.random.default_rng(0).permutation(len(rows))]
        lines = str(cli._csv_lines(rows, ["%.14e", "%.14e"]), "ascii")
        same_lines(lines, _reference_lines(["kt", "x"], rows))
        np.testing.assert_array_equal(python_rows, _outside_the_kernel(rows))
        assert len(python_rows) == len(unscaled)

    def test_cells_too_close_to_call_fall_back_to_python(
        self, monkeypatch, same_lines, python_rows
    ):
        # A margin this wide leaves every rounding below 1e-8 undecided.
        monkeypatch.setattr(cli, "_MARGIN", 1.0)
        values = np.array([v for case in EDGE_CASES.values() for v in case])
        values = values[(values >= 1e-99) & (values < 1e15)]
        lines = str(cli._csv_lines(values[:, None], ["%.14e"]), "ascii")
        same_lines(lines, _reference_lines(["x"], values[:, None]))
        assert python_rows == [[v] for v in values.tolist() if v < 1e-8]


class TestMaxent:
    def test_seven_three_record(self, capsys):
        code, out, _ = run_cli(capsys, "maxent", "--dots", "7", "--excited", "3")
        assert code == 0
        record = json.loads(out)
        assert record["config"] == {"dots": 7, "excitations": 3}
        assert abs(record["e_max"] - 0.9996) < 1e-4
        assert record["E_MES"] == 2.0
        assert abs(record["spectrum_at_max"]["time"] - record["kt_star"]) < 1e-15
        assert abs(sum(record["spectrum_at_max"]["weights"]) - 1.0) < 1e-12

    def test_six_one_record(self, capsys):
        code, out, _ = run_cli(capsys, "maxent", "--dots", "6", "--excited", "1")
        assert code == 0
        record = json.loads(out)
        assert abs(record["E_max"] - 1.0) < 1e-9
        assert abs(record["kt_star"] - 0.41635) < 1e-4

    def test_static_sector_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "maxent", "--dots", "3", "--excited", "0")
        assert code == 2
        assert "no dynamics" in err

    def test_float_overflow_refused_before_the_table(self, capsys):
        # At (2059, 1029) a branch root passes the float maximum; building
        # the exact table first would take minutes.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "maxent", "--dots", "2059", "--excited", "1029"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: N=2059, M=1029: a branch root")

    # The search tolerance is a constant, so any --tol is refused.
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "maxent", "--dots", "5", "--excited", "2", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err


class TestSweep:
    def test_over_fillings(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--dots", "10")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["N", "M", "kt_star", "E_max", "e_max", "E_MES"]
        assert [r[1] for r in rows] == [str(m) for m in range(1, 10)]
        emax = [float(r[3]) for r in rows]
        for m in range(1, 10):
            assert abs(emax[m - 1] - emax[10 - m - 1]) < 1e-9
        assert max(range(9), key=lambda i: emax[i]) == 4

    def test_over_sizes_single_excitation(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--excited", "1", "--dots", "2..7",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        emax = [float(r[3]) for r in rows]
        for value in emax[:5]:
            assert abs(value - 1.0) < 1e-9
        assert abs(emax[5] - 0.9997) < 5e-5

    def test_over_sizes_half_filling_growth(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--excited", "half", "--dots", "2..13",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [str(n) for n in range(2, 14)]
        assert [r[1] for r in rows] == [str(n // 2) for n in range(2, 14)]
        emax = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(emax) > -1e-9)
        assert emax[-1] > emax[0] + 1.5

    def test_over_sizes_requires_excited(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--dots", "2..7")
        assert code == 2

    def test_empty_range_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--excited", "1", "--dots", "7..3",
        )
        assert code == 2

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--excited", "1", "--dots", "2..40",
            "--tol", "-1",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err


class TestFit:
    def test_single_excitation_domain(self, capsys, tmp_path):
        out_path = tmp_path / "fit.csv"
        code, out, _ = run_cli(
            capsys, "fit", "--excited", "1", "--dots", "8..40",
            "--out", str(out_path),
        )
        assert code == 0
        fit = json.loads(out)
        assert set(fit) == {"slope", "intercept", "residual_rms", "domain"}
        assert fit["slope"] > 0.0
        assert fit["domain"] == list(range(8, 41))
        _, header, rows = parse_csv(out_path.read_text(encoding="utf-8"))
        assert header == ["N", "inv_E_max"]
        assert len(rows) == 33
        ordinates = [float(r[1]) for r in rows]
        assert fit["residual_rms"] < 0.01 * np.mean(ordinates)
        assert all(b > a for a, b in zip(ordinates, ordinates[1:]))

    def test_three_excited_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--excited", "3", "--dots", "12..24",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["slope"] > 0.0

    def test_subcritical_domain_rejected(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--excited", "2", "--dots", "8..10")
        assert code == 2
        assert "critical" in err

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--excited", "1", "--dots", "7..40", "--tol", "nan",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    def test_filling_past_the_exact_critical_rule_rejected(self, capsys):
        # At M = 6, 1/E_max still falls from N = 18 to 19, past 2M + 5 = 17.
        code, out, err = run_cli(capsys, "fit", "--excited", "6", "--dots", "18..40")
        assert code == 2
        assert out == ""
        assert err.startswith("error: critical size known for M in 1..5")

    def test_domain_checked_before_any_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError(f"searched {args} before checking the domain")

        # every search starts by building its table
        monkeypatch.setattr(analysis, "amplitude_table", no_search)
        code, out, err = run_cli(capsys, "fit", "--excited", "2", "--dots", "3..9")
        assert code == 2
        assert out == ""
        assert "critical" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--max-dots", "6", "--samples", "10",
        )
        assert code == 0
        assert out == ""
        assert "0 failures" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_usage_error(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "verify", "--max-dots", "4", "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert "sample" in err

    def test_empty_size_range_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-dots", "1")
        assert code == 2
        assert out == ""
        assert "max dots" in err

    def test_sizes_past_the_oracle_budget_refused_up_front(self, capsys, monkeypatch):
        def no_build(basis):
            raise AssertionError("built a Hamiltonian before checking the budget")

        monkeypatch.setattr(cli, "build_hamiltonian", no_build)
        over = str(DEFAULT_MAX_DOTS + 1)
        code, out, err = run_cli(capsys, "verify", "--max-dots", over)
        assert code == 2
        assert out == ""
        assert f"2..{DEFAULT_MAX_DOTS}" in err

    def test_does_not_import_numpy_ma(self):
        # Plain np.unique(x) imports numpy.ma on first use, a cost every
        # cold run would pay; the oracle avoids it.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "from dotent.cli import main\n"
            "assert main(['verify', '--max-dots', '6']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_sample_count_covers_every_sector(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--max-dots", "4", "--samples", "3",
        )
        assert code == 0
        # 3 + 4 + 5 sectors for N = 2, 3, 4
        assert "verify: 36 samples across N <= 4, 0 failures" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_bad_tolerance_refused_up_front(self, capsys, monkeypatch, tol):
        def no_build(basis):
            raise AssertionError("built a Hamiltonian before checking --tol")

        monkeypatch.setattr(cli, "build_hamiltonian", no_build)
        code, out, err = run_cli(
            capsys, "verify", "--max-dots", "3", "--samples", "2", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "tol" in err

    def test_reports_its_margin(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--max-dots", "6", "--samples", "10",
        )
        assert code == 0
        margin = re.compile(r"0 failures at tol 1e-09, max \|diff\| (\S+)$")
        match = margin.search(err.strip())
        assert match is not None
        assert 0.0 <= float(match.group(1)) <= 1e-12

    def test_nan_sample_makes_the_margin_nan(self, capsys, monkeypatch):
        real_grid_magnitudes = closed_form._grid_magnitudes

        def broken_magnitudes(table, kts):
            # One un-normalized sample, the last of the window's grid that
            # verify keeps: its weights sum to 1.5, not 1.
            magnitudes = real_grid_magnitudes(table, kts)
            magnitudes[len(kts) - 2] *= math.sqrt(1.5)
            return magnitudes

        monkeypatch.setattr(closed_form, "_grid_magnitudes", broken_magnitudes)
        code, _, err = run_cli(
            capsys, "verify", "--max-dots", "3", "--samples", "2",
        )
        assert code == 1
        assert err.strip().endswith("max |diff| nan")

    def test_oracle_runs_once_per_complementary_pair(self, capsys, monkeypatch):
        calls = {"evolve": 0, "reduced_entropy": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        code, _, err = run_cli(
            capsys, "verify", "--max-dots", "4", "--samples", "3",
        )
        assert code == 0
        assert "36 samples" in err
        # M <= N / 2: 2 + 2 + 3 sectors for N = 2, 3, 4
        assert calls == {"evolve": 7, "reduced_entropy": 7}

    def test_keeps_the_per_sector_per_sample_order_and_values(self):
        comparisons = cli._oracle_comparisons(8, 5, 1e-9)
        reference = []
        for dots in range(2, 9):
            for excitations in range(dots + 1):
                config = ModelConfig(dots, excitations)
                window = analysis.period(config) if config.m_prime else 2 * math.pi
                kts = np.linspace(0.0, window, 6)[:-1]
                hamiltonian = build_hamiltonian(build_basis(dots, excitations))
                table = real_amplitude_table(config)
                for kt in kts.tolist():
                    analytical = entanglement(schmidt_spectrum(table, kt))
                    amps = evolve(hamiltonian, kt)
                    brute = reduced_entropy(hamiltonian.basis, amps, excitations)
                    reference.append((dots, excitations, kt, analytical, float(brute)))
        assert [c[:3] for c in comparisons] == [r[:3] for r in reference]
        for got, want in zip(comparisons, reference):
            assert abs(got[3] - want[3]) <= 1e-15
            assert abs(got[4] - want[4]) <= 1e-13

    @pytest.mark.parametrize(
        "args",
        [
            (4, 2.5, 1e-9),
            (4, True, 1e-9),
            (4, 3.0, 1e-9),
            (4.0, 3, 1e-9),
            (True, 3, 1e-9),
            (float("nan"), 3, 1e-9),
            (4, 3, True),
        ],
        ids=["fractional-samples", "bool-samples", "float-samples",
             "float-dots", "bool-dots", "nan-dots", "bool-tol"],
    )
    def test_non_integer_arguments_refused_up_front(self, monkeypatch, args):
        def no_build(basis):
            raise AssertionError("built a Hamiltonian before checking arguments")

        monkeypatch.setattr(cli, "build_hamiltonian", no_build)
        with pytest.raises(ValueError, match="integer|tol"):
            cli.verification_failures(*args)

    def test_benchmark_domain_agrees_to_round_off(self):
        # verify --max-dots 12 --samples 25, the domain the benchmark runs
        comparisons = cli._oracle_comparisons(12, 25, 1e-9)
        assert len(comparisons) == 2200
        assert cli._mismatches(comparisons, 1e-9) == []
        assert np.abs([c[3] - c[4] for c in comparisons]).max() <= 1e-12

    def test_numpy_integers_accepted(self):
        comparisons = cli._oracle_comparisons(np.int64(3), np.int32(2), 1e-9)
        assert comparisons == cli._oracle_comparisons(3, 2, 1e-9)
        assert all(type(c[0]) is int and type(c[1]) is int for c in comparisons)

    def test_corrupted_amplitudes_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_form, "amplitude_table", _bumped_table)
        code, out, err = run_cli(
            capsys, "verify", "--max-dots", "4", "--samples", "8",
        )
        assert code == 1
        _, header, rows = parse_csv(out)
        assert header == ["N", "M", "kt", "E_analytical", "E_brute_force", "abs_diff"]
        assert rows
        # The bumped weights miss their sum by far more than SPECTRUM_SUM_TOL,
        # so every sample is masked, not compared as an entropy.
        assert all(row[3] == "nan" for row in rows)

        # A table that fails its own construction check is one NaN row per sector.
        def refused_table(config):
            raise closed_form.NormalizationError("initial condition violated")

        monkeypatch.setattr(closed_form, "amplitude_table", refused_table)
        code, out, _ = run_cli(capsys, "verify", "--max-dots", "3", "--samples", "2")
        assert code == 1
        _, _, rows = parse_csv(out)
        assert [row[:2] for row in rows] == [
            [str(n), str(m)] for n in (2, 3) for m in range(n + 1)
        ]
        assert all(row[2:] == ["nan"] * 4 for row in rows)

    def test_brute_force_moves_to_the_mirror_of_a_refused_table(self, monkeypatch):
        # The first member M < N - M of each pair fails its table check, so
        # the pair's one brute force runs at its mirror N - M instead.
        def refused_below_half(config):
            if config.excitations < config.dots - config.excitations:
                raise closed_form.NormalizationError("initial condition violated")
            return real_amplitude_table(config)

        evolved = []

        def counted(hamiltonian, kts):
            evolved.append(len(kts))
            return evolve(hamiltonian, kts)

        monkeypatch.setattr(closed_form, "amplitude_table", refused_below_half)
        monkeypatch.setattr(cli, "evolve", counted)
        comparisons = cli._oracle_comparisons(4, 3, 1e-9)
        below = [c for c in comparisons if c[1] < c[0] - c[1]]
        rest = [c for c in comparisons if c[1] >= c[0] - c[1]]
        assert [c[:2] for c in below] == [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)]
        assert all(math.isnan(x) for c in below for x in c[2:])
        assert len(rest) == 7 * 3 and cli._mismatches(rest, 1e-9) == []
        assert evolved == [3] * 7

    def test_failure_rows_match_the_reference_bytes(
        self, capsys, monkeypatch, same_lines
    ):
        monkeypatch.setattr(closed_form, "amplitude_table", _bumped_table)
        failures = cli.verification_failures(5, 8, 1e-9)
        columns = ["N", "M", "kt", "E_analytical", "E_brute_force", "abs_diff"]
        want = _reference_lines(columns, [(*f, abs(f[3] - f[4])) for f in failures])
        assert "nan" in want
        code, out, _ = run_cli(capsys, "verify", "--max-dots", "5", "--samples", "8")
        assert code == 1
        same_lines(out.split("\n", 2)[2], want)

    def test_failure_table_goes_to_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(closed_form, "amplitude_table", _bumped_table)
        out_path = tmp_path / "failures.csv"
        code = cli.main([
            "verify", "--max-dots", "3", "--samples", "6", "--out", str(out_path),
        ])
        assert code == 1
        _, header, rows = parse_csv(out_path.read_text(encoding="utf-8"))
        assert header[3:5] == ["E_analytical", "E_brute_force"]
        assert rows
        assert all(row[3] == "nan" for row in rows)


# --tol is covered by each command's test_bad_tolerance_is_usage_error.
@pytest.mark.parametrize(
    "argv",
    [
        ["maxent", "--dots", "5", "--excited", "2", "--grid", "64"],
        ["sweep", "--dots", "6", "--grid", "64"],
        ["sweep", "--excited", "1", "--dots", "2..6", "--workers", "2"],
        ["fit", "--excited", "1", "--dots", "7..12", "--grid", "64"],
        ["fit", "--excited", "1", "--dots", "7..12", "--workers", "2"],
    ],
)
def test_search_knobs_are_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


class TestEntryPoints:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["trace", "--dots", "2"]) == 2
        capsys.readouterr()

    def test_second_call_parses_on_its_own(self, capsys):
        # The parser is built once per process; a usage error must leave
        # nothing of its arguments, here --excited, to the next command.
        code, out, err = run_cli(
            capsys, "sweep", "--excited", "1", "--dots", "2..6", "--workers", "2"
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err
        code, out, err = run_cli(capsys, "sweep", "--dots", "4")
        assert (code, err) == (0, "")
        rows = [line.split(",")[:2] for line in out.splitlines()[2:]]
        assert rows == [["4", "1"], ["4", "2"], ["4", "3"]]
        assert cli._build_parser() is cli._build_parser()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_help(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dotent", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "trace" in proc.stdout
