import dataclasses
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import dotent.analysis as analysis
import dotent.cli as cli
from dotent.closed_form import amplitude_table as real_amplitude_table

FLOAT_CELL = re.compile(r"^-?\d\.\d{14}e[+-]\d{2,}$")


def _bumped_table(config):
    """Stand-in table builder whose output silently violates normalization."""
    table = real_amplitude_table(config)
    rows = [list(r) for r in table.amplitudes]
    rows[0][0] += Fraction(1, 7)
    return dataclasses.replace(table, amplitudes=tuple(tuple(r) for r in rows))


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

    @pytest.mark.parametrize(
        "window", [("--kt-max", "nan"), ("--kt-max", "inf"), ("--periods", "nan")]
    )
    def test_non_finite_window_rejected(self, capsys, window):
        code, out, err = run_cli(
            capsys, "trace", "--dots", "5", "--excited", "2", *window, "--steps", "3",
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_too_few_steps(self, capsys):
        code, _, _ = run_cli(
            capsys, "trace", "--dots", "6", "--excited", "2",
            "--kt-max", "1.0", "--steps", "1",
        )
        assert code == 2

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

    def test_float_formatting(self, capsys):
        _, out, _ = run_cli(
            capsys, "trace", "--dots", "5", "--excited", "2",
            "--kt-max", "2.0", "--steps", "8",
        )
        _, _, rows = parse_csv(out)
        for row in rows:
            for cell in row:
                assert FLOAT_CELL.match(cell), cell


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
        code, out, _ = run_cli(capsys, "sweep", "--over-M", "--dots", "10")
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
            capsys, "sweep", "--over-N", "--excited", "1", "--dots", "2..7",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        emax = [float(r[3]) for r in rows]
        for value in emax[:5]:
            assert abs(value - 1.0) < 1e-9
        assert abs(emax[5] - 0.9997) < 5e-5

    def test_over_sizes_half_filling_growth(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--over-N", "--excited", "half", "--dots", "2..13",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [str(n) for n in range(2, 14)]
        assert [r[1] for r in rows] == [str(n // 2) for n in range(2, 14)]
        emax = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(emax) > -1e-9)
        assert emax[-1] > emax[0] + 1.5

    def test_over_fillings_rejects_excited(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--over-M", "--dots", "10", "--excited", "2",
        )
        assert code == 2

    def test_over_sizes_requires_excited(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--over-N", "--dots", "2..7")
        assert code == 2

    def test_empty_range_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--over-N", "--excited", "1", "--dots", "7..3",
        )
        assert code == 2

    def test_modes_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--over-M", "--over-N", "--dots", "5",
        )
        assert code == 2

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--over-N", "--excited", "1", "--dots", "2..40",
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

    def test_domain_checked_before_any_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError(f"searched {args} before checking the domain")

        monkeypatch.setattr(analysis, "find_max", no_search)
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
        code, out, err = run_cli(capsys, "verify", "--max-dots", "17")
        assert code == 2
        assert out == ""
        assert "2..16" in err

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
        def broken_spectrum(table, kt):
            raise cli.NormalizationError("corrupt table")

        monkeypatch.setattr(cli, "schmidt_spectrum", broken_spectrum)
        code, _, err = run_cli(
            capsys, "verify", "--max-dots", "3", "--samples", "2",
        )
        assert code == 1
        assert err.strip().endswith("max |diff| nan")

    def test_oracle_runs_once_per_sector(self, capsys, monkeypatch):
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
        # 3 + 4 + 5 sectors for N = 2, 3, 4
        assert calls == {"evolve": 12, "reduced_entropy": 12}

    def test_corrupted_amplitudes_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "amplitude_table", _bumped_table)
        code, out, err = run_cli(
            capsys, "verify", "--max-dots", "4", "--samples", "8",
        )
        assert code == 1
        _, header, rows = parse_csv(out)
        assert header == ["N", "M", "kt", "E_analytical", "E_brute_force", "abs_diff"]
        assert rows

    def test_failure_table_goes_to_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "amplitude_table", _bumped_table)
        out_path = tmp_path / "failures.csv"
        code = cli.main([
            "verify", "--max-dots", "3", "--samples", "6", "--out", str(out_path),
        ])
        assert code == 1
        assert out_path.exists()
        assert "E_brute_force" in out_path.read_text(encoding="utf-8")


# --tol is covered by each command's test_bad_tolerance_is_usage_error.
@pytest.mark.parametrize(
    "argv",
    [
        ["maxent", "--dots", "5", "--excited", "2", "--grid", "64"],
        ["sweep", "--over-M", "--dots", "6", "--grid", "64"],
        ["sweep", "--over-N", "--excited", "1", "--dots", "2..6", "--workers", "2"],
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

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dotent", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "trace" in proc.stdout
