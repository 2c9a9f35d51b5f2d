import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dotent.closed_form
from dotent.analysis import find_max
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


def _fractions(table):
    """The table's entries as exact Fractions numerator / denominator."""
    return tuple(
        tuple(Fraction(n, table.denominator) for n in row) for row in table.numerators
    )


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
        assert table.phase_multipliers == (-1, 1)

    def test_no_excitations_is_static(self):
        for n in (1, 3, 8):
            table = amplitude_table(ModelConfig(n, 0))
            assert (table.numerators, table.denominator) == (((1,),), 1)
            assert table.phase_multipliers == (0,)

    @pytest.mark.parametrize("dots", range(1, 11))
    def test_start_state_columns_exact(self, dots):
        # column m must sum to 1 for m=0 and 0 otherwise, as rationals
        for m_exc in range(dots + 1):
            table = amplitude_table(ModelConfig(dots, m_exc))
            top = table.config.m_prime
            for m in range(top + 1):
                total = sum(row[m] for row in table.numerators)
                assert total == (table.denominator if m == 0 else 0)

    @pytest.mark.parametrize("dots", range(1, 25))
    def test_matches_paper_formula(self, dots):
        for excited in range(dots + 1):
            table = amplitude_table(ModelConfig(dots, excited))
            paper = _paper_table(dots, excited)
            assert (_fractions(table), table.phase_multipliers) == paper
            assert table.mixing.tolist() == [[float(v) for v in r] for r in paper[0]]

    @pytest.mark.parametrize("dots,excited", LARGE_SECTORS)
    def test_matches_paper_formula_at_large_size(self, dots, excited):
        table = amplitude_table(ModelConfig(dots, excited))
        paper = _paper_table(dots, excited)
        assert (_fractions(table), table.phase_multipliers) == paper
        assert table.mixing.tolist() == [[float(v) for v in r] for r in paper[0]]

    def test_binomial_calls_grow_quadratically(self, monkeypatch):
        calls = []
        real = dotent.closed_form.binomial

        def counted(x, y):
            calls.append((x, y))
            return real(x, y)

        monkeypatch.setattr(dotent.closed_form, "binomial", counted)
        amplitude_table(ModelConfig(60, 30))
        assert len(calls) <= 3 * 31**2

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
        for n, mult in enumerate(table.phase_multipliers):
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
        c = coefficients(amplitude_table(ModelConfig(5, 2)), math.pi)
        expected = np.array([1 / 5, 2 / 15, 8 / 15])
        assert np.abs(np.abs(c) - expected).max() < 1e-12


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

    @pytest.mark.parametrize("kt", [math.nan, math.inf])
    def test_non_finite_time_is_flagged(self, kt):
        with pytest.raises(NormalizationError), np.errstate(invalid="ignore"):
            schmidt_spectrum(amplitude_table(ModelConfig(5, 2)), kt)

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
    return entropy_derivatives(
        table.multipliers, derivative_basis(table), table.weight_factors, kts
    )


class TestEntropyDerivatives:
    @pytest.mark.parametrize("dots,m_exc", [(7, 3), (12, 5), (40, 20)])
    def test_match_central_differences(self, dots, m_exc):
        table = amplitude_table(ModelConfig(dots, m_exc))
        kts = np.array([0.3, 1.1, 2.5])
        # step well inside the fastest harmonic's oscillation
        h = 1e-3 / np.ptp(table.multipliers)
        E, d1, d2 = _derivatives(table, kts)
        above, here, below = (entropy_curve(table, kts + s) for s in (h, 0.0, -h))
        assert np.abs(E - here).max() < 1e-14
        fd1 = (above - below) / (2.0 * h)
        fd2 = (above - 2.0 * here + below) / h**2
        assert np.abs(d1 - fd1).max() < 1e-5 * np.abs(d1).max()
        assert np.abs(d2 - fd2).max() < 1e-5 * np.abs(d2).max()

    def test_zero_weight_branches_add_nothing(self):
        table = amplitude_table(ModelConfig(7, 3))
        # at kt = 0 one branch weight is exactly 0.0 in floats
        assert (spectrum_curve(table, [0.0]) == 0.0).any()
        E, d1, d2 = _derivatives(table, [0.0])
        assert abs(E[0]) < 1e-15 and abs(d1[0]) < 1e-12
        assert math.isfinite(d2[0])

    def test_stacked_tables_match_one_at_a_time(self):
        # same rank m' = 3, each table with its own times
        tables = [amplitude_table(ModelConfig(n, 3)) for n in (7, 9, 12)]
        kts = np.array([[0.3, 1.1], [0.2, 2.9], [0.7, 0.01]])
        stacked = entropy_derivatives(
            np.stack([t.multipliers for t in tables]),
            np.stack([derivative_basis(t) for t in tables]),
            np.stack([t.weight_factors for t in tables]),
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
    @pytest.mark.parametrize("dots", range(2, 13))
    def test_exact_recurrence(self, dots):
        for m_exc in range(1, dots):
            config = ModelConfig(dots, m_exc)
            if m_exc in (1, dots - 1):
                T = 2 * math.pi / dots
            elif dots % 2 == 0:
                T = math.pi
            else:
                T = 2 * math.pi
            table = amplitude_table(config)
            kts = np.linspace(0.0, T, 11)
            gap = np.abs(
                spectrum_curve(table, kts) - spectrum_curve(table, kts + T)
            ).max()
            assert gap < 1e-12


def test_trace_shares_one_table():
    config = ModelConfig(6, 2)
    kts = np.linspace(0.0, math.pi, 33)
    times, entropies, weights = trace_entanglement(config, kts)
    assert times.tolist() == kts.tolist()
    assert weights.shape == (33, config.m_prime + 1)
    assert entropies.shape == (33,)
    assert max(entropies) <= mes_entropy(config) + 1e-12
    assert min(entropies) >= 0.0
    for t, e, row in zip(times, entropies, weights):
        spec = SchmidtSpectrum(float(t), tuple(row.tolist()))
        assert abs(sum(spec.weights) - 1.0) < 1e-12
        assert abs(entanglement(spec) - e) < 1e-12
