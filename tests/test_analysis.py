import importlib.util
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import dotent.analysis as analysis
from dotent.analysis import (
    check_fit_domain,
    critical_N,
    find_max,
    find_maxima,
    fit_inverse_linear,
    period,
    sweep_over_M,
    sweep_over_N,
)
from dotent.cli import _parse_dots_spec
from dotent.closed_form import (
    ModelConfig,
    _entropy,
    amplitude_table,
    entanglement,
    entropy_curve,
    mes_entropy,
    mes_time_m1,
    peak_entropy_m1,
)


# The configurations the acceptance criteria search, the widest spectrum
# (m' = 20) of the published sweeps, and (9, 4), whose peak an 8-interval
# grid misses.
SEARCH_CONFIGS = [
    (2, 1), (6, 1), (7, 1), (40, 1), (5, 2), (9, 2), (7, 3), (11, 3),
    (9, 4), (10, 5), (40, 20),
]


class TestPeriod:
    def test_single_excitation(self):
        assert period(ModelConfig(5, 1)) == 2 * math.pi / 5
        assert period(ModelConfig(5, 4)) == 2 * math.pi / 5

    def test_even_dot_count(self):
        assert period(ModelConfig(6, 2)) == math.pi
        assert period(ModelConfig(12, 6)) == math.pi

    def test_odd_dot_count(self):
        assert period(ModelConfig(11, 5)) == 2 * math.pi
        assert period(ModelConfig(7, 2)) == 2 * math.pi

    def test_static_sector_rejected(self):
        with pytest.raises(ValueError):
            period(ModelConfig(9, 0))
        with pytest.raises(ValueError):
            period(ModelConfig(9, 9))


class TestFindMax:
    @pytest.mark.parametrize("dots", range(2, 7))
    def test_small_single_excitation_reaches_one_bit(self, dots):
        record = find_max(ModelConfig(dots, 1))
        assert abs(record.E_max - 1.0) < 1e-9
        assert abs(record.kt_star - mes_time_m1(dots)) < 1e-8

    def test_ties_resolve_to_earliest_time(self):
        # two dots have two equal one-bit peaks per period; the first wins
        record = find_max(ModelConfig(2, 1))
        assert abs(record.kt_star - math.pi / 4) < 1e-8

    def test_seven_dots_single_excitation(self):
        record = find_max(ModelConfig(7, 1))
        assert abs(record.E_max - 0.9997) < 5e-5
        assert abs(record.kt_star - math.pi / 7) < 1e-6

    @pytest.mark.parametrize("dots", [8, 15, 27, 40])
    def test_matches_peak_formula_beyond_six(self, dots):
        record = find_max(ModelConfig(dots, 1))
        assert abs(record.E_max - peak_entropy_m1(dots)) < 1e-9
        assert abs(record.kt_star - math.pi / dots) < 1e-8

    def test_five_two_near_miss(self):
        record = find_max(ModelConfig(5, 2))
        assert 0.0 < 1.0 - record.e_max < 5e-5

    @pytest.mark.parametrize(
        "dots,m_exc", [(11, 2), (13, 2), (13, 3), (15, 3)]
    )
    def test_odd_sizes_beyond_critical_peak_at_pi(self, dots, m_exc):
        assert dots > critical_N(m_exc)
        record = find_max(ModelConfig(dots, m_exc))
        assert abs(record.kt_star - math.pi) < 1e-6

    @pytest.mark.parametrize("dots,m_exc", [(2, 1), (7, 3), (10, 4), (13, 2)])
    def test_record_is_selfconsistent(self, dots, m_exc):
        config = ModelConfig(dots, m_exc)
        record = find_max(config)
        assert 0.0 < record.kt_star < period(config)
        assert record.E_MES == mes_entropy(config)
        assert abs(record.e_max - record.E_max / record.E_MES) < 1e-15
        assert abs(entanglement(record.spectrum_at_max) - record.E_max) < 1e-12

    @pytest.mark.parametrize("dots,m_exc", [(5, 1), (9, 4), (12, 3)])
    def test_refined_peak_is_locally_certified(self, dots, m_exc):
        record = find_max(ModelConfig(dots, m_exc))
        table = amplitude_table(ModelConfig(dots, m_exc))
        nearby = entropy_curve(
            table, [record.kt_star - 1e-11, record.kt_star + 1e-11]
        )
        assert nearby.max() <= record.E_max + 1e-12

    @pytest.mark.parametrize(
        "dots,m_exc,size",
        [(40, 1, 32), (40, 2, 312), (40, 20, 1680), (60, 30, 3720), (100, 50, 10200)],
    )
    def test_grid_follows_the_bandwidth(self, dots, m_exc, size):
        lam = ModelConfig(dots, m_exc).phase_multipliers
        assert analysis._grid_size(lam, analysis._turns(lam)) == size

    @pytest.mark.parametrize("dots,m_exc", SEARCH_CONFIGS)
    def test_no_dense_grid_point_beats_the_peak(self, dots, m_exc):
        config = ModelConfig(dots, m_exc)
        record = find_max(config)
        dense = entropy_curve(
            amplitude_table(config), np.linspace(0.0, period(config), 32769)
        )
        assert record.E_max >= dense.max() - 1e-12

    @pytest.mark.parametrize("dots,m_exc", SEARCH_CONFIGS)
    def test_denser_coarse_grid_finds_the_same_peak(self, dots, m_exc, monkeypatch):
        config = ModelConfig(dots, m_exc)
        coarse = find_max(config)
        # The floor too, or the single-excitation grids would not change.
        for name in ("_SAMPLES_PER_CYCLE", "_MIN_GRID_POINTS"):
            monkeypatch.setattr(analysis, name, 4 * getattr(analysis, name))
        dense = find_max(config)
        assert abs(coarse.E_max - dense.E_max) <= 1e-12
        assert abs(coarse.kt_star - dense.kt_star) <= 1e-8

    def test_search_memory_is_bounded(self):
        # 29 MiB while the whole 10 402-row coarse grid was one phase product.
        tracemalloc.start()
        try:
            find_max(ModelConfig(101, 50))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _whole_grid(config):
    """The table, and E at every point of its half grid from one product.

    The reference for `_half_grid`'s blocks: the phases of all points times
    the mixing matrix in one product, and their entropy.
    """
    table, lam = amplitude_table(config), config.phase_multipliers
    turns = analysis._turns(lam)
    n = analysis._grid_size(lam, turns)
    steps = np.array([(x - lam[0]) // turns for x in lam])
    roots = np.exp(2j * math.pi / n * np.arange(n))
    phases = roots[np.multiply.outer(np.arange(n // 2 + 2), steps) % n]
    return table, _entropy(np.abs(phases @ table.mixing) ** 2)


class TestHalfGrid:
    """The coarse grid scans half the period on exact roots of unity.

    E(T - kt) = E(kt), so the grid stops at j = n/2 + 1; the test checks
    that against the exp grid over the whole period instead of assuming
    it, because a 1e-13 move could flip a peak index on a plateau.
    """

    @pytest.mark.parametrize("dots", range(2, 41))
    def test_agrees_with_the_exp_grid_over_the_whole_period(self, dots):
        for m_exc in range(1, dots // 2 + 1):
            config = ModelConfig(dots, m_exc)
            table, T = amplitude_table(config), period(config)
            lam = config.phase_multipliers
            n = analysis._grid_size(lam, analysis._turns(lam))
            assert n % 4 == 0
            full_kts = np.linspace(0.0, T, n + 1)
            full = entropy_curve(table, full_kts)
            head = n // 2 + 2
            kts, coarse = analysis._half_grid(table)
            assert kts.tolist() == full_kts[:head].tolist()
            assert np.abs(coarse - full[:head]).max() <= 1e-13
            assert np.abs(entropy_curve(table, T - kts) - full[:head]).max() <= 1e-13
            inner = full[1:-1]
            every = np.flatnonzero((inner >= full[:-2]) & (inner >= full[2:])) + 1
            _, _, peaks = analysis._grid_peaks(config)
            assert peaks.tolist() == every[every <= n // 2].tolist()

    def test_blocks_equal_one_whole_grid_product_up_to_forty(self):
        # Both grid constants are multiples of 4, so every row count n/2 + 2
        # is even, and an even block size leaves no block of one row, whose
        # matrix-vector product rounds differently.
        assert analysis._SAMPLES_PER_CYCLE % 4 == 0
        assert analysis._MIN_GRID_POINTS % 4 == 0
        assert analysis._GRID_BLOCK_ROWS % 2 == 0
        for dots in range(2, 41):
            for m_exc in range(1, dots // 2 + 1):
                config = ModelConfig(dots, m_exc)
                table, whole = _whole_grid(config)
                _, coarse = analysis._half_grid(table)
                assert np.array_equal(coarse, whole)

    @pytest.mark.parametrize("dots,m_exc", [(60, 30), (101, 50)])
    @pytest.mark.parametrize("rows", [2, 6, None])
    def test_blocks_equal_one_whole_grid_product(self, dots, m_exc, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(analysis, "_GRID_BLOCK_ROWS", rows)
        config = ModelConfig(dots, m_exc)
        table, whole = _whole_grid(config)
        assert len(whole) > 4 * analysis._GRID_BLOCK_ROWS
        _, coarse = analysis._half_grid(table)
        assert np.array_equal(coarse, whole)


class TestSweeps:
    def test_over_fillings_ten_dots(self):
        records = sweep_over_M(10)
        assert [r.config.excitations for r in records] == list(range(1, 10))
        emax = [r.E_max for r in records]
        for m in range(1, 10):
            assert abs(emax[m - 1] - emax[10 - m - 1]) < 1e-9
        assert int(np.argmax(emax)) == 4  # half filling wins
        for r in records:
            assert r.E_max <= r.E_MES + 1e-12

    def test_over_fillings_builds_one_table_per_mirror_pair(self, monkeypatch):
        built = []

        def counted(config):
            built.append(config)
            return amplitude_table(config)

        monkeypatch.setattr(analysis, "amplitude_table", counted)
        records = sweep_over_M(10)
        assert built == [ModelConfig(10, m) for m in range(1, 6)]
        assert [r.config for r in records] == [ModelConfig(10, m) for m in range(1, 10)]

    @pytest.mark.parametrize(
        "dots, message",
        [(7.5, "must be an integer"), (math.nan, "must be an integer"),
         (10.0, "must be an integer"), (1, "at least two dots"),
         (-3, "at least two dots")],
    )
    def test_over_fillings_refuses_a_bad_size(self, dots, message):
        with pytest.raises(ValueError, match=message):
            sweep_over_M(dots)

    def test_over_fillings_two_dots(self):
        records = sweep_over_M(2)
        assert len(records) == 1
        assert abs(records[0].E_max - 1.0) < 1e-9

    def test_over_sizes_single_excitation(self):
        records = sweep_over_N(1, range(2, 7))
        for r in records:
            assert abs(r.E_max - 1.0) < 1e-9

    def test_over_sizes_two_excited_ranking(self):
        records = sweep_over_N(2, range(4, 13))
        ranked = sorted(records, key=lambda r: r.e_max, reverse=True)
        assert ranked[0].config.dots == 5
        assert ranked[1].config.dots == 9
        assert 1.0 - ranked[0].e_max < 5e-5
        assert 1.0 - ranked[1].e_max < 5e-4

    def test_over_sizes_three_excited_ranking(self):
        records = sweep_over_N(3, range(6, 15))
        ranked = sorted(records, key=lambda r: r.e_max, reverse=True)
        assert ranked[0].config.dots == 7
        assert ranked[1].config.dots == 11

    def test_half_filling_growth(self):
        records = sweep_over_N("half", range(2, 14))
        emax = np.array([r.E_max for r in records])
        assert np.all(np.diff(emax) > -1e-12)
        assert emax[-1] > emax[0] + 1.5

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sweep_over_N(3, [3, 7])

    @pytest.mark.parametrize(
        "excited,sizes",
        [(2, [10.9, 11.2]), (2.7, [10]), (2, [10, 11.5]), ("half", [10, 12.0])],
    )
    def test_fractional_input_refused_before_any_search(
        self, monkeypatch, excited, sizes
    ):
        # every search starts by building its table
        def no_search(config):
            raise AssertionError(f"searched {config} before checking every size")

        monkeypatch.setattr(analysis, "amplitude_table", no_search)
        with pytest.raises(ValueError, match="must be an integer"):
            sweep_over_N(excited, sizes)

    def test_static_configuration_refused_before_any_table(self, monkeypatch):
        def no_table(config):
            raise AssertionError(f"built the table of {config} before every period")

        monkeypatch.setattr(analysis, "amplitude_table", no_table)
        with pytest.raises(ValueError, match="no dynamics"):
            find_maxima([ModelConfig(5, 2), ModelConfig(5, 0)])


def _figure_sweeps():
    """Each sweep and fit of scripts/make_figure_data.py, as the CLI runs it."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_figure_data", root / "scripts" / "make_figure_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sweeps = []
    for name, argv in module.RUNS:
        if argv[0] in ("sweep", "fit"):
            options = dict(zip(argv[1::2], argv[2::2]))
            sizes = _parse_dots_spec(options["--dots"])
            sweeps.append((name, options.get("--excited"), sizes))
    return sweeps


def _exact(record):
    """What a batched record must share with the batch of one, compared with ==."""
    return record.config, record.kt_star, record.E_max, record.spectrum_at_max.weights


class TestBatchedSearch:
    """Searches refined together give the batch of one's records, bit for bit.

    The figure sweeps stack up to 39 configurations of one rank with
    unequal peak counts; the filling sweeps search each mirror pair M,
    N - M once, and every record of M > N / 2 must equal a search of that
    very configuration alone; the search over every filling up to N = 16
    mixes ranks and lets members leave the batch at different steps.
    """

    @pytest.mark.parametrize("name,excited,sizes", _figure_sweeps())
    def test_figure_sweeps(self, name, excited, sizes):
        if excited is None:
            records = sweep_over_M(sizes[0])
        else:
            excited = excited if excited == "half" else int(excited)
            records = sweep_over_N(excited, sizes)
        assert len(records) >= 9
        for r in records:
            assert _exact(r) == _exact(find_max(r.config))

    @pytest.mark.parametrize("dots", range(2, 17))
    def test_sweep_over_fillings(self, dots):
        records = sweep_over_M(dots)
        assert [r.config for r in records] == [
            ModelConfig(dots, m) for m in range(1, dots)
        ]
        for r in records:
            assert _exact(r) == _exact(find_max(r.config))

    def test_every_filling_up_to_sixteen_in_one_batch(self):
        configs = [ModelConfig(n, m) for n in range(2, 17) for m in range(1, n)]
        for r, config in zip(find_maxima(configs), configs):
            assert _exact(r) == _exact(find_max(config))


class TestCriticalSize:
    def test_values(self):
        assert critical_N(1) == 6
        assert critical_N(2) == 9
        assert critical_N(3) == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_N(0)

    def test_rule_refused_where_it_is_not_exact(self):
        # 2M + 5 = 17 at M = 6, but E_max still rises from N = 18 to 19.
        peaks = [r.E_max for r in sweep_over_N(6, [18, 19])]
        assert peaks[1] > peaks[0]
        for excitations in (6, 7, 24):
            with pytest.raises(ValueError, match="critical size known for M in 1..5"):
                critical_N(excitations)

    def test_fractional_filling_refused(self):
        with pytest.raises(ValueError, match="must be an integer"):
            critical_N(2.5)

    # The refusal names the filling, not a dot count built from it.
    @pytest.mark.parametrize("excitations", [2.0, math.nan, True, "2"])
    def test_non_integer_filling_named_as_excitations(self, excitations):
        with pytest.raises(ValueError, match="^excitations must be an integer"):
            critical_N(excitations)


class TestInverseLinearFit:
    def test_single_excitation_to_forty(self):
        sizes = list(range(8, 41))
        records = sweep_over_N(1, sizes)
        fit = fit_inverse_linear(records)
        ordinates = [1.0 / r.E_max for r in records]
        assert fit.slope > 0.0
        assert fit.residual_rms < 0.01 * np.mean(ordinates)
        assert fit.domain == tuple(sizes)

    def test_three_excited_slope_positive(self):
        fit = fit_inverse_linear(sweep_over_N(3, range(12, 25)))
        assert fit.slope > 0.0
        assert fit.residual_rms < 0.01

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            fit_inverse_linear(sweep_over_N(2, [10, 11]))

    def test_requires_supercritical_domain(self):
        with pytest.raises(ValueError):
            fit_inverse_linear(sweep_over_N(2, [8, 9, 10, 11]))

    def test_mixed_fillings_refused(self):
        records = sweep_over_N(2, range(12, 16)) + sweep_over_N(3, range(16, 20))
        with pytest.raises(ValueError, match="one M"):
            fit_inverse_linear(records)

    def test_fractional_sizes_refused(self):
        with pytest.raises(ValueError, match="must be an integer"):
            check_fit_domain(2, [10.5, 11.5, 12.5])
