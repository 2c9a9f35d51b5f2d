"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with -s or
in failure output); the pytest -v listing gives the same one-line-per-criterion
view under default capture.
"""

import contextlib
import math
from fractions import Fraction

import numpy as np

from dotent.analysis import (
    critical_N,
    find_max,
    fit_inverse_linear,
    period,
    sweep_over_M,
    sweep_over_N,
)
from dotent.cli import verification_failures
from dotent.closed_form import (
    ModelConfig,
    amplitude_table,
    coefficients,
    entropy_curve,
    mes_entropy,
    peak_entropy_m1,
    pi_time_magnitudes,
    pi_time_magnitudes_exact,
    spectrum_curve,
)
from dotent.combinatorics import binomial


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {summary}")
        raise
    print(f"[criterion {number}] PASS {summary}")


def test_criterion_1_closed_form_matches_brute_force():
    with criterion(1, "closed form vs diagonalization, N <= 10, tol 1e-9"):
        assert verification_failures(10, 25, 1e-9) == []


def test_criterion_2_single_excitation_reaches_mes_up_to_six_dots():
    with criterion(2, "M=1 peak: exactly 1 bit through N=6, 0.9997 at N=7"):
        for dots in range(2, 7):
            record = find_max(ModelConfig(dots, 1))
            assert abs(record.E_max - 1.0) < 1e-9
        record = find_max(ModelConfig(7, 1))
        assert abs(record.E_max - 0.9997) <= 5e-5
        assert abs(record.kt_star - math.pi / 7.0) <= 1e-6


def test_criterion_3_searched_peak_equals_half_period_entropy():
    with criterion(3, "M=1 search vs closed peak value, N = 7..40, tol 1e-9"):
        for dots in range(7, 41):
            record = find_max(ModelConfig(dots, 1))
            assert abs(record.E_max - peak_entropy_m1(dots)) < 1e-9


def test_criterion_4_relative_peaks_near_unity():
    with criterion(4, "e_max at (7,3), (11,3), (5,2), (9,2)"):
        assert abs(find_max(ModelConfig(7, 3)).e_max - 0.9996) <= 1e-4
        assert abs(find_max(ModelConfig(11, 3)).e_max - 0.9990) <= 1e-4
        assert find_max(ModelConfig(5, 2)).e_max >= 1.0 - 1e-4
        assert find_max(ModelConfig(9, 2)).e_max >= 1.0 - 1e-3


def test_criterion_5_half_period_magnitudes_exact():
    with criterion(5, "odd-N kt=pi magnitudes, float 1e-12 and rational sum 1"):
        for dots in (5, 7, 9, 11):
            for excited in range(0, (dots - 1) // 2 + 1):
                config = ModelConfig(dots, excited)
                table = amplitude_table(config)
                numeric = np.abs(coefficients(table, math.pi))
                closed = pi_time_magnitudes(config)
                assert numeric.shape == closed.shape
                assert np.max(np.abs(numeric - closed)) <= 1e-12
                total = sum(
                    binomial(excited, m) * binomial(dots - excited, m) * mag * mag
                    for m, mag in enumerate(pi_time_magnitudes_exact(config))
                )
                assert total == Fraction(1)


def test_criterion_6_symmetry_and_periodicity():
    with criterion(6, "filling symmetry, exact periods, even-N zeros, N <= 12"):
        kts = np.linspace(0.0, 2.0 * math.pi, 97)
        for dots in range(2, 13):
            tables = {
                m: amplitude_table(ModelConfig(dots, m)) for m in range(dots + 1)
            }
            for m in range(dots + 1):
                gap = spectrum_curve(tables[m], kts) - spectrum_curve(
                    tables[dots - m], kts
                )
                assert np.max(np.abs(gap)) <= 1e-9
            for m in range(1, dots):
                config = ModelConfig(dots, m)
                T = period(config)
                if m in (1, dots - 1):
                    assert T == 2.0 * math.pi / dots
                shift = spectrum_curve(tables[m], kts + T) - spectrum_curve(
                    tables[m], kts
                )
                assert np.max(np.abs(shift)) <= 1e-9
                if dots % 2 == 0:
                    zeros = entropy_curve(
                        tables[m], np.array([math.pi, 2.0 * math.pi])
                    )
                    assert np.max(np.abs(zeros)) <= 1e-9


def test_criterion_7_inverse_peak_grows_linearly():
    with criterion(7, "1/E_max vs N line, M = 1..3: rms < 1% and monotone"):
        for excited in (1, 2, 3):
            sizes = list(range(critical_N(excited) + 1, 41))
            records = sweep_over_N(excited, sizes)
            fit = fit_inverse_linear(records)
            ordinates = [1.0 / r.E_max for r in records]
            assert fit.residual_rms < 0.01 * np.mean(ordinates)
            assert all(b > a for a, b in zip(ordinates, ordinates[1:]))


def test_criterion_8_ten_dot_filling_sweep_shape():
    with criterion(8, "N=10 sweep: symmetric, peaked at M=5, under the bound"):
        records = sweep_over_M(10)
        emax = [r.E_max for r in records]
        for i in range(9):
            assert abs(emax[i] - emax[8 - i]) <= 1e-9
        assert max(range(9), key=lambda i: emax[i]) == 4
        for r in records:
            assert r.E_max <= mes_entropy(r.config) + 1e-12
