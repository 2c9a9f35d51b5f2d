import dataclasses
import json
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dotent.closed_form
from dotent.analysis import find_max, period
from dotent.closed_form import (
    ModelConfig,
    NormalizationError,
    SchmidtSpectrum,
    amplitude_table,
    coefficients,
    derivative_basis,
    entanglement,
    entanglement_rate_m1,
    entropy_curve,
    entropy_derivatives,
    mes_entropy,
    mes_time_m1,
    p1_single_excitation,
    peak_entropy_m1,
    pi_time_magnitudes,
    pi_time_magnitudes_exact,
    schmidt_spectrum,
    spectrum_curve,
    trace_entanglement,
)
from dotent.combinatorics import binomial

# Reference numbers computed once at 40-digit precision from the defining
# expressions (Shannon entropy of exact rational weights, arcsine forms).
ENTROPY_5_2_AT_PI = 0.7254201904670346
PEAK_ENTROPY_4 = 0.8112781244591328
PEAK_ENTROPY_7 = 0.9996995428565171
PEAK_ENTROPY_8 = 0.9886994082884975
MES_TIME_6 = 0.4163485907994181

# Sectors whose tables are checked term by term against the paper's formula.
LARGE_SECTORS = [(40, 20), (41, 20), (60, 30), (100, 50)]

configs_upto = lambda n_max: st.integers(1, n_max).flatmap(
    lambda n: st.integers(0, n).map(lambda m: ModelConfig(n, m))
)


def _paper_table(dots, excited):
    """The paper's triple sum, one exact Fraction per term: the reference."""
    N, M = dots, excited
    top = min(M, N - M)
    rows = []
    for n in range(top + 1):
        row = []
        for m in range(top + 1):
            acc = Fraction(0)
            for k in range(m + 1):
                bracket = binomial(N + 1 - 2 * k, n - k) - 2 * binomial(
                    N - 2 * k, n - k - 1
                )
                acc += Fraction(
                    (-1) ** k * binomial(m, k) * bracket,
                    binomial(N - 2 * k, M - k),
                )
            row.append(acc)
        rows.append(tuple(row))
    multipliers = tuple(n * (N + 1 - n) - M * (N - M) for n in range(top + 1))
    return tuple(rows), multipliers


def _per_term_numerators(dots, excited):
    """The table's integer sums, one product per (n, m, k) term: the reference."""
    N, M = dots, excited
    top = min(M, N - M)
    denominators = [binomial(N - 2 * k, M - k) for k in range(top + 1)]
    common = math.lcm(*denominators)
    return tuple(
        tuple(
            sum(
                (-1) ** k
                * (common // denominators[k])
                * binomial(m, k)
                * (binomial(N + 1 - 2 * k, n - k) - 2 * binomial(N - 2 * k, n - k - 1))
                for k in range(m + 1)
            )
            for m in range(top + 1)
        )
        for n in range(top + 1)
    ), common


def _fractions(table):
    """The table's entries as exact Fractions numerator / denominator."""
    return tuple(
        tuple(Fraction(n, table.denominator) for n in row) for row in table.numerators
    )


def _degeneracy(dots, excited, m):
    """Branch m's degeneracy C(M, m) C(N - M, m)."""
    return binomial(excited, m) * binomial(dots - excited, m)


def _check_normalized_mixing(table, paper):
    """table.mixing against the paper's fractions p_nm times sqrt(f_m).

    Each entry must be float(p_nm) times the documented root
    isqrt(f_m 2^128) / 2^64, bit for bit, and lie within 2^-51 relative of
    p_nm sqrt(f_m), checked exactly: (a / p)^2 within f (1 -+ 2^-51)^2.
    """
    N, M = table.config.dots, table.config.excitations
    roots = [
        math.isqrt(_degeneracy(N, M, m) << 128) / (1 << 64) for m in range(len(paper))
    ]
    assert table.mixing.tolist() == [
        [float(p) * root for p, root in zip(row, roots)] for row in paper
    ]
    tol = Fraction(1, 2**51)
    for row, floats in zip(paper, table.mixing.tolist()):
        for m, (p, a) in enumerate(zip(row, floats)):
            if p == 0:
                assert a == 0.0
                continue
            ratio, f = Fraction(a) / p, _degeneracy(N, M, m)
            assert ratio > 0
            assert f * (1 - tol) ** 2 <= ratio**2 <= f * (1 + tol) ** 2


class TestModelConfig:
    def test_m_prime(self):
        assert ModelConfig(7, 3).m_prime == 3
        assert ModelConfig(7, 5).m_prime == 2
        assert ModelConfig(4, 0).m_prime == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(0, 0)
        with pytest.raises(ValueError):
            ModelConfig(3, 4)
        with pytest.raises(ValueError):
            ModelConfig(3, -1)

    @pytest.mark.parametrize(
        "dots,excited",
        [
            (7.0, 3),
            (7, 3.0),
            (math.nan, 3),
            (7, math.nan),
            (True, 1),
            (7, False),
            ("7", 3),
        ],
        ids=["float", "float-M", "nan", "nan-M", "bool", "bool-M", "str"],
    )
    def test_non_integers_refused(self, dots, excited):
        with pytest.raises(ValueError, match="must be an integer"):
            ModelConfig(dots, excited)

    def test_numpy_integers_stored_as_int(self):
        config = ModelConfig(np.int64(7), np.int32(3))
        assert type(config.dots) is int and type(config.excitations) is int
        assert config == ModelConfig(7, 3)

    def test_peak_record_from_numpy_sizes_serializes(self):
        record = find_max(ModelConfig(np.int64(7), 3))
        assert json.loads(json.dumps(dataclasses.asdict(record)))["config"] == {
            "dots": 7,
            "excitations": 3,
        }


class TestAmplitudeTable:
    def test_two_dots_single_excitation_exact(self):
        table = amplitude_table(ModelConfig(2, 1))
        assert (table.numerators, table.denominator) == (((1, 1), (1, -1)), 2)
        assert table.config.phase_multipliers == (-1, 1)

    def test_no_excitations_is_static(self):
        for n in (1, 3, 8):
            table = amplitude_table(ModelConfig(n, 0))
            assert (table.numerators, table.denominator) == (((1,),), 1)
            assert table.config.phase_multipliers == (0,)

    @pytest.mark.parametrize("dots", range(1, 11))
    def test_start_state_columns_exact(self, dots):
        # column m must sum to 1 for m=0 and 0 otherwise, as rationals
        for m_exc in range(dots + 1):
            table = amplitude_table(ModelConfig(dots, m_exc))
            top = table.config.m_prime
            for m in range(top + 1):
                total = sum(row[m] for row in table.numerators)
                assert total == (table.denominator if m == 0 else 0)

    @pytest.mark.parametrize("dots", range(1, 41))
    def test_mirror_fillings_share_one_table(self, dots):
        # The peak search builds one table per pair M, N - M and shares it.
        for m_exc in range(dots // 2 + 1):
            table = amplitude_table(ModelConfig(dots, m_exc))
            mirror = amplitude_table(ModelConfig(dots, dots - m_exc))
            assert table.numerators == mirror.numerators
            assert table.denominator == mirror.denominator
            assert table.config.phase_multipliers == mirror.config.phase_multipliers
            assert table.mixing.tolist() == mirror.mixing.tolist()

    @pytest.mark.parametrize("dots", range(1, 25))
    def test_matches_paper_formula(self, dots):
        for excited in range(dots + 1):
            table = amplitude_table(ModelConfig(dots, excited))
            paper = _paper_table(dots, excited)
            assert (_fractions(table), table.config.phase_multipliers) == paper
            _check_normalized_mixing(table, paper[0])

    @pytest.mark.parametrize("dots,excited", LARGE_SECTORS)
    def test_matches_paper_formula_at_large_size(self, dots, excited):
        table = amplitude_table(ModelConfig(dots, excited))
        paper = _paper_table(dots, excited)
        assert (_fractions(table), table.config.phase_multipliers) == paper
        _check_normalized_mixing(table, paper[0])

    def test_normalized_past_the_old_float_ceiling(self):
        # At (2734, 200) the largest degeneracy exceeds the float maximum,
        # so a separate float factor per branch would overflow; its root
        # does not, and the normalized table keeps every entry within 1.
        config = ModelConfig(2734, 200)
        with pytest.raises(OverflowError):
            float(max(_degeneracy(2734, 200, m) for m in range(201)))
        table = amplitude_table(config)
        weights = spectrum_curve(table, [0.0, 0.01, 1.0])
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(table.mixing).max() <= 1.0

    def test_float_overflow_refused_before_the_table(self, monkeypatch):
        # From (2059, 1029) the largest branch root passes the float
        # maximum; it is refused before the exact table, whose first step
        # is the common denominator, is built.
        roots = dotent.closed_form._branch_roots(ModelConfig(2058, 1029))
        assert all(math.isfinite(r) for r in roots)

        def no_table(*args):
            raise AssertionError("built the exact table before the roots")

        monkeypatch.setattr(dotent.closed_form.math, "lcm", no_table)
        with pytest.raises(ValueError, match=r"^N=2059, M=1029: .* float maximum"):
            amplitude_table(ModelConfig(2059, 1029))

    def test_recurrence_equals_the_paper_k_sums(self):
        sizes = [(n, m) for n in range(1, 41) for m in range(n + 1)]
        for dots, excited in sizes + [(64, 32), (101, 50)]:
            table = amplitude_table(ModelConfig(dots, excited))
            reference = _per_term_numerators(dots, excited)
            assert (table.numerators, table.denominator) == reference

    @pytest.mark.parametrize("dots", [*range(1, 60, 2), 101, 201, 401, 1001])
    def test_exact_magnitudes_at_pi(self, dots):
        # At kt = pi each harmonic is (-1)^lambda_n, so |c_m| is an exact
        # rational: the closed form 2^m m! (N - 2M) (N - 2m - 2)!! / N!!.
        half = (dots - 1) // 2
        for excited in range(half + 1) if dots < 60 else (1, 3, half):
            config = ModelConfig(dots, excited)
            table = amplitude_table(config)
            signs = [1 - 2 * (lam % 2) for lam in config.phase_multipliers]
            magnitudes = tuple(
                Fraction(abs(sum(map(operator.mul, signs, column))), table.denominator)
                for column in zip(*table.numerators)
            )
            assert magnitudes == pi_time_magnitudes_exact(config)

    def test_binomial_calls_grow_linearly(self, monkeypatch):
        calls = []
        real = dotent.closed_form.binomial

        def counted(x, y):
            calls.append((x, y))
            return real(x, y)

        monkeypatch.setattr(dotent.closed_form, "binomial", counted)
        amplitude_table(ModelConfig(60, 30))
        # the denominators, the branch roots and each row's first entry
        assert len(calls) <= 6 * 31

    @pytest.mark.parametrize("dots,excitations", [(6, 2), (10, 4)])
    def test_shifted_frequency_fails_the_recurrence_step(
        self, monkeypatch, dots, excitations
    ):
        # lambda_1 + 1 is no eigenvalue, so row 1's first step leaves a
        # remainder, and is refused before the column sums are checked.
        real = ModelConfig.phase_multipliers

        def shifted(config):
            multipliers = real.fget(config)
            return multipliers[:1] + (multipliers[1] + 1,) + multipliers[2:]

        monkeypatch.setattr(ModelConfig, "phase_multipliers", property(shifted))
        message = rf"^N={dots}, M={excitations}: inexact step at n=1, m=0$"
        with pytest.raises(NormalizationError, match=message):
            amplitude_table(ModelConfig(dots, excitations))

    def test_corrupt_bracket_fails_the_construction_check(self, monkeypatch):
        real = dotent.closed_form.binomial

        def perturbed(x, y):
            # C(7, 1) enters only the n = 1, k = 0 bracket of (6, 2)
            return real(x, y) + (1 if (x, y) == (7, 1) else 0)

        monkeypatch.setattr(dotent.closed_form, "binomial", perturbed)
        with pytest.raises(NormalizationError, match="initial condition violated"):
            amplitude_table(ModelConfig(6, 2))

    def test_phase_multipliers_formula(self):
        table = amplitude_table(ModelConfig(9, 4))
        for n, mult in enumerate(table.config.phase_multipliers):
            assert mult == n * (9 + 1 - n) - 4 * (9 - 4)


class TestCoefficients:
    def test_two_dots_are_cosine_and_sine(self):
        table = amplitude_table(ModelConfig(2, 1))
        kts = [0.0, 0.3, math.pi / 4, 1.9, math.pi]
        for kt, row in zip(kts, coefficients(table, np.array(kts))):
            c = coefficients(table, kt)
            assert abs(c[0] - math.cos(kt)) < 1e-12
            assert abs(c[1] - (-1j) * math.sin(kt)) < 1e-12
            assert np.abs(row - c).max() <= 1e-15

    @pytest.mark.parametrize("dots,m_exc", [(3, 1), (6, 2), (9, 4), (11, 3)])
    def test_start_state_at_time_zero(self, dots, m_exc):
        c = coefficients(amplitude_table(ModelConfig(dots, m_exc)), 0.0)
        assert abs(c[0] - 1.0) < 1e-12
        assert np.abs(c[1:]).max() < 1e-12

    def test_magnitudes_at_pi_five_two(self):
        # |c_m|^2 are the Schmidt weights C(2, m) C(3, m) (1/5, 2/15, 8/15)^2
        c = coefficients(amplitude_table(ModelConfig(5, 2)), math.pi)
        expected = np.array([1 / 25, 8 / 75, 64 / 75])
        assert np.abs(np.abs(c) ** 2 - expected).max() < 1e-12


class TestSchmidtSpectrum:
    def test_four_dots_single_excitation_quarter_turn(self):
        spec = schmidt_spectrum(amplitude_table(ModelConfig(4, 1)), math.pi / 4)
        assert abs(spec.weights[0] - 0.25) < 1e-12
        assert abs(spec.weights[1] - 0.75) < 1e-12

    def test_start_state(self):
        spec = schmidt_spectrum(amplitude_table(ModelConfig(8, 3)), 0.0)
        assert abs(spec.weights[0] - 1.0) < 1e-12
        assert max(spec.weights[1:]) < 1e-12

    def test_seven_three_at_pi(self):
        spec = schmidt_spectrum(amplitude_table(ModelConfig(7, 3)), math.pi)
        exact = [
            Fraction(225, 11025),
            Fraction(432, 11025),
            Fraction(1152, 11025),
            Fraction(9216, 11025),
        ]
        for got, want in zip(spec.weights, exact):
            assert abs(got - float(want)) < 1e-12

    @pytest.mark.parametrize("kt", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_flagged(self, kt):
        # Refused as input before any evaluation, not reported as a corrupt
        # table or passed on as NaN rows.
        config = ModelConfig(5, 2)
        table = amplitude_table(config)
        for evaluate in (
            lambda: schmidt_spectrum(table, kt),
            lambda: entropy_curve(table, [0.3, kt, 1.0]),
        ):
            with pytest.raises(ValueError, match=f"must be finite, got kt={kt}"):
                evaluate()
        with pytest.raises(ValueError, match=f"positive and finite, got kt_max={kt}"):
            trace_entanglement(config, kt, 4)

    def test_broken_table_is_flagged(self):
        table = amplitude_table(ModelConfig(6, 2))
        rows = [list(r) for r in table.numerators]
        rows[1][1] += table.denominator // 7 + 1
        bad = dataclasses.replace(table, numerators=tuple(tuple(r) for r in rows))
        with pytest.raises(NormalizationError):
            schmidt_spectrum(bad, 0.37)

    @settings(max_examples=120, deadline=None)
    @given(configs_upto(12), st.floats(-20.0, 20.0))
    def test_weights_normalized_everywhere(self, config, kt):
        weights = spectrum_curve(amplitude_table(config), [kt])[0]
        assert abs(weights.sum() - 1.0) < 1e-12
        assert weights.min() > -1e-15

    @settings(max_examples=80, deadline=None)
    @given(configs_upto(12), st.floats(-10.0, 10.0))
    def test_hole_excitation_symmetry(self, config, kt):
        mirror = ModelConfig(config.dots, config.dots - config.excitations)
        a = spectrum_curve(amplitude_table(config), [kt])[0]
        b = spectrum_curve(amplitude_table(mirror), [kt])[0]
        assert np.abs(a - b).max() < 1e-12


def _derivatives(table, kts):
    return entropy_derivatives(table.multipliers, derivative_basis(table), kts)


class TestEntropyDerivatives:
    @pytest.mark.parametrize("dots,m_exc", [(7, 3), (12, 5), (40, 20)])
    def test_match_central_differences(self, dots, m_exc):
        table = amplitude_table(ModelConfig(dots, m_exc))
        kts = np.array([0.3, 1.1, 2.5])
        # step well inside the fastest harmonic's oscillation
        h = 1e-3 / np.ptp(table.multipliers)
        d1, d2 = _derivatives(table, kts)
        above, here, below = (entropy_curve(table, kts + s) for s in (h, 0.0, -h))
        fd1 = (above - below) / (2.0 * h)
        fd2 = (above - 2.0 * here + below) / h**2
        assert np.abs(d1 - fd1).max() < 1e-5 * np.abs(d1).max()
        assert np.abs(d2 - fd2).max() < 1e-5 * np.abs(d2).max()

    def test_zero_weight_branches_add_nothing(self):
        table = amplitude_table(ModelConfig(7, 3))
        # at kt = 0 one branch weight is exactly 0.0 in floats
        assert (spectrum_curve(table, [0.0]) == 0.0).any()
        d1, d2 = _derivatives(table, [0.0])
        assert abs(d1[0]) < 1e-12
        assert math.isfinite(d2[0])

    @pytest.mark.parametrize(
        "kts, bad",
        [([math.nan, 0.3], math.nan), ([math.inf], math.inf)],
        ids=["nan-then-finite", "inf"],
    )
    def test_non_finite_time_is_refused(self, kts, bad):
        table = amplitude_table(ModelConfig(5, 2))
        with pytest.raises(ValueError, match=f"must be finite, got kt={bad}"):
            _derivatives(table, kts)

    def test_stacked_tables_match_one_at_a_time(self):
        # same rank m' = 3, each table with its own times
        tables = [amplitude_table(ModelConfig(n, 3)) for n in (7, 9, 12)]
        kts = np.array([[0.3, 1.1], [0.2, 2.9], [0.7, 0.01]])
        stacked = entropy_derivatives(
            np.stack([t.multipliers for t in tables]),
            np.stack([derivative_basis(t) for t in tables]),
            kts,
        )
        for g, table in enumerate(tables):
            for got, alone in zip(stacked, _derivatives(table, kts[g])):
                assert got.shape == kts.shape
                assert np.array_equal(got[g], alone)


class TestEntanglement:
    def test_even_split_is_one_bit(self):
        from dotent.closed_form import SchmidtSpectrum

        assert entanglement(SchmidtSpectrum(0.0, (0.5, 0.5))) == 1.0

    def test_pure_state_is_zero(self):
        from dotent.closed_form import SchmidtSpectrum

        assert entanglement(SchmidtSpectrum(0.0, (1.0, 0.0, 0.0))) == 0.0

    def test_five_two_at_pi(self):
        e = entanglement(schmidt_spectrum(amplitude_table(ModelConfig(5, 2)), math.pi))
        assert abs(e - ENTROPY_5_2_AT_PI) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(configs_upto(12), st.floats(0.0, 8.0))
    def test_bounded_by_mes_entropy(self, config, kt):
        e = entanglement(schmidt_spectrum(amplitude_table(config), kt))
        assert -1e-12 < e < mes_entropy(config) + 1e-12


class TestScalars:
    def test_mes_entropy_values(self):
        assert abs(mes_entropy(ModelConfig(10, 5)) - math.log2(6)) < 1e-15
        assert mes_entropy(ModelConfig(9, 1)) == 1.0
        assert mes_entropy(ModelConfig(9, 0)) == 0.0

    def test_p1_examples(self):
        assert abs(p1_single_excitation(2, math.pi / 4) - 0.5) < 1e-15
        assert abs(p1_single_excitation(4, math.pi / 4) - 0.75) < 1e-15
        assert p1_single_excitation(9, 0.0) == 0.0
        with pytest.raises(ValueError):
            p1_single_excitation(1, 0.3)

    @pytest.mark.parametrize("dots", range(2, 13))
    def test_p1_matches_spectrum(self, dots):
        table = amplitude_table(ModelConfig(dots, 1))
        for kt in np.linspace(0.0, 2 * math.pi / dots, 9):
            p1 = spectrum_curve(table, [kt])[0][1]
            assert abs(p1 - p1_single_excitation(dots, kt)) < 1e-12


# Every single-excitation formula takes N as an integer of at least 2; a
# fractional or NaN size is refused, not evaluated.
M1_FORMULAS = {
    "p1_single_excitation": lambda dots: p1_single_excitation(dots, 0.3),
    "entanglement_rate_m1": lambda dots: entanglement_rate_m1(dots, 0.3),
    "mes_time_m1": mes_time_m1,
    "peak_entropy_m1": peak_entropy_m1,
}


@pytest.mark.parametrize("formula", M1_FORMULAS)
@pytest.mark.parametrize(
    "dots, message",
    [(7.5, "dots must be an integer"), (5.5, "dots must be an integer"),
     (4.0, "dots must be an integer"), (math.nan, "dots must be an integer"),
     (True, "dots must be an integer"), (1, "at least two dots"),
     (0, "at least two dots"), (-2, "at least two dots")],
)
def test_single_excitation_formulas_refuse_a_bad_size(formula, dots, message):
    with pytest.raises(ValueError, match=message):
        M1_FORMULAS[formula](dots)


@pytest.mark.parametrize("formula", M1_FORMULAS)
def test_single_excitation_formulas_take_numpy_integers(formula):
    assert M1_FORMULAS[formula](np.int64(7)) == M1_FORMULAS[formula](7)


@pytest.mark.parametrize("formula", [p1_single_excitation, entanglement_rate_m1])
@pytest.mark.parametrize("kt", [math.nan, math.inf, -math.inf])
def test_single_excitation_formulas_refuse_a_non_finite_time(formula, kt):
    with pytest.raises(ValueError, match=f"time must be finite, got kt={kt}"):
        formula(5, kt)


# Only integers and floats are times: a numeric string is not converted, a
# bool array is not read as 0 or 1, and None is refused by its type, not as NaN.
NON_NUMBERS = {
    "str": "0.3",
    "str-list": ["0.3"],
    "None": None,
    "None-list": [0.3, None],
    "bool": True,
    "bool-list": [True, False],
    "complex": 0.3j,
    "object": object(),
}


@pytest.mark.parametrize("formula", [p1_single_excitation, entanglement_rate_m1])
@pytest.mark.parametrize(
    "kt, dtype", [("0.3", "<U3"), (None, "object"), (True, "bool")], ids=str
)
def test_single_excitation_formulas_refuse_a_non_number(formula, kt, dtype):
    with pytest.raises(ValueError, match=f"integer or float, got dtype {dtype}$"):
        formula(5, kt)


@pytest.mark.parametrize("kts", NON_NUMBERS.values(), ids=NON_NUMBERS)
def test_evaluations_refuse_a_non_number(kts):
    table = amplitude_table(ModelConfig(5, 2))
    for evaluate in (
        coefficients,
        spectrum_curve,
        entropy_curve,
        schmidt_spectrum,
        _derivatives,
    ):
        with pytest.raises(ValueError, match="time must be an integer or float") as e:
            evaluate(table, kts)
        assert "nan" not in str(e.value)


def test_integer_times_are_times():
    table = amplitude_table(ModelConfig(5, 2))
    for ints in ([0, 3], np.array([0, 3], dtype=np.uint8), np.int64(3)):
        floats = np.asarray(ints, dtype=float)
        assert np.array_equal(entropy_curve(table, ints), entropy_curve(table, floats))
    assert p1_single_excitation(5, 1) == p1_single_excitation(5, 1.0)


class TestRate:
    def test_zero_at_start(self):
        assert entanglement_rate_m1(5, 0.0) == 0.0

    def test_zero_at_recurrence(self):
        for dots in (2, 5, 8):
            assert abs(entanglement_rate_m1(dots, 2 * math.pi / dots)) < 1e-9

    def test_zero_at_even_split(self):
        for dots in range(2, 7):
            t_star = mes_time_m1(dots)
            assert abs(entanglement_rate_m1(dots, t_star)) < 1e-9

    def test_zero_at_half_period_peak(self):
        assert abs(entanglement_rate_m1(7, math.pi / 7)) < 1e-9

    @pytest.mark.parametrize("dots,kt", [(6, 0.1), (3, 0.4), (9, 0.2), (11, 0.05)])
    def test_matches_finite_difference(self, dots, kt):
        h = 1e-6

        def entropy(t):
            p1 = p1_single_excitation(dots, t)
            p0 = 1.0 - p1
            return -sum(p * math.log2(p) for p in (p0, p1) if p > 0)

        numeric = (entropy(kt + h) - entropy(kt - h)) / (2 * h)
        assert abs(entanglement_rate_m1(dots, kt) - numeric) < 1e-6


class TestSingleExcitationLandmarks:
    def test_earliest_even_split_two_dots(self):
        assert abs(mes_time_m1(2) - math.pi / 4) < 1e-15

    def test_earliest_even_split_six_dots(self):
        assert abs(mes_time_m1(6) - MES_TIME_6) < 1e-12

    def test_no_even_split_beyond_six(self):
        for dots in (7, 8, 20):
            assert mes_time_m1(dots) is None

    @pytest.mark.parametrize("dots", range(2, 7))
    def test_even_split_reaches_one_bit(self, dots):
        table = amplitude_table(ModelConfig(dots, 1))
        e = entropy_curve(table, [mes_time_m1(dots)])[0]
        assert abs(e - 1.0) < 1e-12

    def test_peak_entropy_values(self):
        assert abs(peak_entropy_m1(4) - PEAK_ENTROPY_4) < 1e-12
        assert abs(peak_entropy_m1(7) - PEAK_ENTROPY_7) < 1e-12
        assert abs(peak_entropy_m1(7) - 0.9997) < 5e-5
        assert abs(peak_entropy_m1(8) - PEAK_ENTROPY_8) < 1e-12
        assert peak_entropy_m1(2) == 0.0

    @pytest.mark.parametrize("dots", [4, 7, 8, 13])
    def test_peak_formula_matches_halfway_spectrum(self, dots):
        table = amplitude_table(ModelConfig(dots, 1))
        e = entropy_curve(table, [math.pi / dots])[0]
        assert abs(e - peak_entropy_m1(dots)) < 1e-12

    def test_peak_formula_matches_dense_scan(self):
        # independent location of the maximum by brute grid refinement
        table = amplitude_table(ModelConfig(8, 1))
        kts = np.linspace(0.0, 2 * math.pi / 8, 200001)
        assert abs(entropy_curve(table, kts).max() - peak_entropy_m1(8)) < 1e-9


class TestPiTimeMagnitudes:
    def test_five_two(self):
        assert pi_time_magnitudes_exact(ModelConfig(5, 2)) == (
            Fraction(1, 5),
            Fraction(2, 15),
            Fraction(8, 15),
        )

    def test_seven_three(self):
        assert pi_time_magnitudes_exact(ModelConfig(7, 3)) == (
            Fraction(1, 7),
            Fraction(2, 35),
            Fraction(8, 105),
            Fraction(16, 35),
        )

    def test_trivial_sector(self):
        assert pi_time_magnitudes_exact(ModelConfig(3, 0)) == (Fraction(1),)

    def test_even_dot_count_rejected(self):
        with pytest.raises(ValueError):
            pi_time_magnitudes(ModelConfig(6, 2))

    def test_majority_excitation_rejected(self):
        with pytest.raises(ValueError):
            pi_time_magnitudes(ModelConfig(7, 4))

    @pytest.mark.parametrize("dots", [3, 5, 7, 9, 11, 13])
    def test_matches_coefficient_evaluation(self, dots):
        for m_exc in range(0, (dots - 1) // 2 + 1):
            config = ModelConfig(dots, m_exc)
            c = coefficients(amplitude_table(config), math.pi)
            assert np.abs(np.abs(c) - pi_time_magnitudes(config)).max() < 1e-12

    @pytest.mark.parametrize("dots", [3, 5, 7, 9, 11, 13, 15])
    def test_weights_close_exactly(self, dots):
        for m_exc in range(0, (dots - 1) // 2 + 1):
            mags = pi_time_magnitudes_exact(ModelConfig(dots, m_exc))
            total = sum(
                binomial(m_exc, m) * binomial(dots - m_exc, m) * w * w
                for m, w in enumerate(mags)
            )
            assert total == 1


class TestPeriodicityOfSpectra:
    @pytest.mark.parametrize("dots", range(2, 41))
    def test_exact_recurrence(self, dots):
        for m_exc in range(1, dots):
            config = ModelConfig(dots, m_exc)
            if m_exc in (1, dots - 1):
                T = 2 * math.pi / dots
            elif dots % 2 == 0:
                T = math.pi
            else:
                T = 2 * math.pi
            assert period(config) == T
            table = amplitude_table(config)
            kts = np.linspace(0.0, T, 11)
            gap = np.abs(
                spectrum_curve(table, kts) - spectrum_curve(table, kts + T)
            ).max()
            assert gap < 1e-12


def test_trace_shares_one_table():
    config = ModelConfig(6, 2)
    rows = trace_entanglement(config, math.pi, 32)
    assert rows.shape == (33, config.m_prime + 3)
    kts, entropies, weights = rows[:, 0], rows[:, 1], rows[:, 2:]
    assert max(entropies) <= mes_entropy(config) + 1e-12
    assert min(entropies) >= 0.0
    for t, e, row in zip(kts, entropies, weights):
        spec = SchmidtSpectrum(float(t), tuple(row.tolist()))
        assert abs(sum(spec.weights) - 1.0) < 1e-12
        assert abs(entanglement(spec) - e) < 1e-12


def _phase_resolution_limit(config):
    """The first window that trace_entanglement's phase-resolution check refuses."""
    fastest = max(abs(m) for m in config.phase_multipliers)
    return 2.0 ** math.ceil(52 - math.log2(fastest))


class TestTraceGrid:
    """trace_entanglement's blockwise grid against the per-time evaluation."""

    # K = 1 at (1, 0); a window next to the phase-resolution check;
    # for every steps but 1 the last block of b times runs past the grid
    # (224 blocks of 224 times for 50 001 rows).
    @pytest.mark.parametrize(
        "dots, excited, kt_max, steps",
        [
            (1, 0, 1.0, 1),
            (1, 0, 1.0, 2),
            (1, 0, 1.0, 3),
            (5, 2, 2.0, 1),
            (5, 2, 2.0, 2),
            (5, 2, 2.0, 3),
            (7, 3, 2 * math.pi, 1024),
            (11, 3, 2 * math.pi, 2048),
            (40, 20, math.pi, 50000),
            (7, 3, "guard", 64),
        ],
    )
    def test_matches_spectrum_curve(self, dots, excited, kt_max, steps):
        # A time's phases come from two grid times whose sum is off by a few
        # ulp of kt_max, so each phase moves by that times its multiplier.
        # Measured: |dP| <= 0.27 and |dE| <= 0.9 of this scale.
        config = ModelConfig(dots, excited)
        if kt_max == "guard":
            kt_max = float(np.nextafter(_phase_resolution_limit(config), 0.0))
        scale = max(1, *map(abs, config.phase_multipliers)) * math.ulp(kt_max)
        rows = trace_entanglement(config, kt_max, steps)
        kts = np.linspace(0.0, kt_max, steps + 1)
        assert rows.shape == (steps + 1, config.m_prime + 3)
        assert rows[:, 0].tobytes() == kts.tobytes()
        table = amplitude_table(config)
        assert np.abs(rows[:, 2:] - spectrum_curve(table, kts)).max() <= scale
        assert np.abs(rows[:, 1] - entropy_curve(table, kts)).max() <= 4 * scale

    @pytest.mark.parametrize(
        "dots, excited, steps", [(7, 3, 1024), (11, 3, 2048), (40, 20, 50000)]
    )
    def test_weights_match_a_long_double_reference(self, dots, excited, steps):
        # The exact weights of the float table at the printed times.  l kt is
        # exact in 64 mantissa bits, so only cos, sin and the sums round.
        # Measured: within 4.7e-15, where the per-time path is within 1.6e-15
        # and the phase rounding of either path is max|l| kt_max 2**-52.
        config = ModelConfig(dots, excited)
        kt_max = period(config)
        rows = trace_entanglement(config, kt_max, steps)
        table = amplitude_table(config)
        angles = np.multiply.outer(
            rows[:, 0].astype(np.longdouble),
            np.array(config.phase_multipliers, dtype=np.longdouble),
        )
        mixing = table.mixing.astype(np.longdouble)
        re, im = np.cos(angles) @ mixing, np.sin(angles) @ mixing
        exact = re * re + im * im
        bound = max(map(abs, config.phase_multipliers)) * kt_max * 2.0**-52
        assert float(np.abs(rows[:, 2:] - exact).max()) <= bound

    def test_memory_peak_at_the_benchmark_trace(self):
        # The per-time path peaked at 32.5 MiB here, with two complex
        # temporaries per cell; the grid path holds one and read 26.2 MiB.
        config = ModelConfig(40, 20)
        kt_max = period(config)
        amplitude_table(config)
        tracemalloc.start()
        try:
            rows = trace_entanglement(config, kt_max, 50000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (50001, 23)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "kt_max, steps, message",
        [
            (math.nan, 4, "positive and finite"),
            (math.inf, 4, "positive and finite"),
            (0.0, 4, "positive and finite"),
            (-1.0, 4, "positive and finite"),
            (True, 4, "positive and finite"),
            (1.0, 0, "at least one step"),
            (1.0, -3, "at least one step"),
            (1.0, 2.5, "integer"),
            (1.0, 4.0, "integer"),
            (1.0, True, "integer"),
        ],
    )
    def test_bad_window_or_steps_refused_before_any_table(
        self, monkeypatch, kt_max, steps, message
    ):
        def no_table(config):
            raise AssertionError("built a table before checking arguments")

        monkeypatch.setattr(dotent.closed_form, "amplitude_table", no_table)
        with pytest.raises(ValueError, match=message):
            trace_entanglement(ModelConfig(5, 2), kt_max, steps)

    # Adjacent float times at the window's end differ by a radian of phase
    # or more: the first window's last time reads back as inf, the second
    # gave E = 2.35 at kt = 2.5e299.
    @pytest.mark.parametrize(
        "dots, excited, kt_max",
        [(1, 0, 1.7976931348623151e308), (12, 6, 1e300)],
        ids=["max-float", "1e300"],
    )
    def test_window_beyond_phase_resolution_refused_before_any_table(
        self, monkeypatch, dots, excited, kt_max
    ):
        def no_table(config):
            raise AssertionError("built a table before checking arguments")

        monkeypatch.setattr(dotent.closed_form, "amplitude_table", no_table)
        with pytest.raises(ValueError, match="rad of phase, beyond finite precision"):
            trace_entanglement(ModelConfig(dots, excited), kt_max, 4)
