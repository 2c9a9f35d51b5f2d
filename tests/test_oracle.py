import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dotent.oracle as oracle
from dotent.analysis import period
from dotent.closed_form import ModelConfig, amplitude_table, spectrum_curve
from dotent.oracle import (
    build_basis,
    build_hamiltonian,
    evolve,
    initial_state_index,
    oracle_entanglement,
    reduced_eigenvalues,
    reduced_entropy,
)

ENTROPY_5_2_AT_PI = 0.7254201904670346


class TestBasis:
    def test_two_dots_one_excited(self):
        assert build_basis(2, 1).states.tolist() == [0b01, 0b10]

    def test_four_dots_two_excited(self):
        assert build_basis(4, 2).states.tolist() == [
            0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100,
        ]

    def test_empty_sector(self):
        assert build_basis(5, 0).states.tolist() == [0]

    def test_budget(self):
        with pytest.raises(ValueError):
            build_basis(17, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_count_and_order(self, nm):
        n, m = nm
        basis = build_basis(n, m)
        assert len(basis) == math.comb(n, m)
        states = basis.states
        assert all(a < b for a, b in zip(states, states[1:]))
        assert all(bin(s).count("1") == m for s in states)

    def test_states_are_read_only(self):
        with pytest.raises(ValueError):
            build_basis(4, 2).states[0] = 0

    def test_start_configuration_is_leading_block(self):
        basis = build_basis(5, 2)
        assert basis.states[initial_state_index(basis)] == 0b11000


class TestHamiltonian:
    def test_two_dots_one_excited(self):
        h = build_hamiltonian(build_basis(2, 1))
        assert np.array_equal(h.matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(np.sort(h.eigensystem[0]), [-1.0, 1.0])

    def test_three_dots_one_excited(self):
        h = build_hamiltonian(build_basis(3, 1))
        assert np.array_equal(h.matrix, np.ones((3, 3)) - np.eye(3))
        assert np.allclose(np.sort(h.eigensystem[0]), [-1.0, -1.0, 2.0])

    @pytest.mark.parametrize("dots", range(1, 10))
    def test_entries_are_single_moves(self, dots):
        # H[i, j] = 1 exactly when one excitation moves: the two
        # configurations differ in two bits, one set and one cleared.
        for m_exc in range(0, dots + 1):
            basis = build_basis(dots, m_exc)
            states = basis.states.tolist()
            expected = [
                [float(bin(a ^ b).count("1") == 2) for b in states] for a in states
            ]
            assert np.array_equal(build_hamiltonian(basis).matrix, expected)

    def test_frozen_sector_is_scalar_zero(self):
        assert np.array_equal(build_hamiltonian(build_basis(4, 0)).matrix, [[0.0]])

    @pytest.mark.parametrize("dots,m_exc", [(5, 2), (6, 3), (7, 1)])
    def test_symmetric_zero_diagonal(self, dots, m_exc):
        h = build_hamiltonian(build_basis(dots, m_exc)).matrix
        assert np.array_equal(h, h.T)
        assert np.abs(np.diag(h)).max() == 0.0

    @pytest.mark.parametrize("dots", range(2, 11))
    def test_contains_analytical_harmonics(self, dots):
        # every integer phase multiplier of the analytical solution must
        # appear (negated) in the sector spectrum
        for m_exc in range(0, dots + 1):
            table = amplitude_table(ModelConfig(dots, m_exc))
            values = build_hamiltonian(build_basis(dots, m_exc)).eigensystem[0]
            for mult in table.phase_multipliers:
                assert np.abs(values - (-mult)).min() < 1e-10


class TestEvolution:
    def test_identity_at_time_zero(self):
        h = build_hamiltonian(build_basis(6, 2))
        state = evolve(h, 0.0)
        expected = np.zeros(len(h.basis))
        expected[initial_state_index(h.basis)] = 1.0
        assert np.abs(state.amplitudes - expected).max() < 1e-12

    def test_two_dots_quarter_turn(self):
        h = build_hamiltonian(build_basis(2, 1))
        amps = evolve(h, math.pi / 4).amplitudes
        # basis order is (01, 10); the start state is 10
        assert abs(amps[1] - math.cos(math.pi / 4)) < 1e-12
        assert abs(amps[0] - (-1j) * math.sin(math.pi / 4)) < 1e-12

    def test_batch_rows_are_the_single_time_states(self):
        h = build_hamiltonian(build_basis(8, 3))
        kts = np.linspace(-4.0, 11.0, 13)
        batch = evolve(h, kts).amplitudes
        assert batch.shape == (len(kts), len(h.basis))
        for kt, row in zip(kts, batch):
            assert np.abs(row - evolve(h, kt).amplitudes).max() < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-12.0, 12.0))
    def test_norm_preserved(self, kt):
        h = build_hamiltonian(build_basis(7, 3))
        amps = evolve(h, kt).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-12.0, 12.0))
    def test_energy_conserved(self, kt):
        h = build_hamiltonian(build_basis(8, 3))
        amps = evolve(h, kt).amplitudes
        energy = np.vdot(amps, h.matrix @ amps).real
        start = initial_state_index(h.basis)
        assert abs(energy - h.matrix[start, start]) < 1e-10


class TestReducedEntropy:
    def test_product_state_has_no_entanglement(self):
        h = build_hamiltonian(build_basis(6, 2))
        state = evolve(h, 0.0)
        for cut in range(0, 7):
            assert abs(reduced_entropy(state, cut)) < 1e-12

    def test_bell_pair_is_one_bit(self):
        h = build_hamiltonian(build_basis(2, 1))
        assert abs(reduced_entropy(evolve(h, math.pi / 4), 1) - 1.0) < 1e-12

    def test_eigenvalues_sum_to_one_at_every_cut(self):
        for dots, m_exc in [(7, 3), (8, 1), (9, 4), (10, 5)]:
            state = evolve(build_hamiltonian(build_basis(dots, m_exc)), 1.3)
            for cut in range(0, dots + 1):
                assert abs(reduced_eigenvalues(state, cut).sum() - 1.0) < 1e-12

    def test_batch_matches_each_time_at_every_cut(self):
        kts = np.array([0.0, 0.4, 1.3, 2.9, 6.1])
        for dots, m_exc in [(7, 3), (8, 1), (9, 4), (10, 5)]:
            h = build_hamiltonian(build_basis(dots, m_exc))
            batch = evolve(h, kts)
            for cut in range(0, dots + 1):
                single = [reduced_entropy(evolve(h, kt), cut) for kt in kts]
                assert np.abs(reduced_entropy(batch, cut) - single).max() < 1e-12

    def test_smaller_gram_side_keeps_the_spectrum(self):
        # Reference: the full density B B† with rows and columns indexed by
        # a dict over the configurations of each side.  Cuts near either
        # end make rows < cols and rows > cols in turn.
        for dots, m_exc in [(7, 3), (8, 1), (9, 4), (10, 5)]:
            basis = build_basis(dots, m_exc)
            state = evolve(build_hamiltonian(basis), 1.3)
            for cut in range(0, dots + 1):
                shift, mask = dots - cut, (1 << (dots - cut)) - 1
                rows, cols = {}, {}
                for s in basis.states.tolist():
                    rows.setdefault(s >> shift, len(rows))
                    cols.setdefault(s & mask, len(cols))
                block = np.zeros((len(rows), len(cols)), dtype=complex)
                for s, amp in zip(basis.states.tolist(), state.amplitudes):
                    block[rows[s >> shift], cols[s & mask]] = amp
                full = np.linalg.eigvalsh(block @ block.conj().T)
                values = reduced_eigenvalues(state, cut)
                assert len(values) == min(len(rows), len(cols))
                assert np.abs(values - full[-len(values):]).max() < 1e-12
                assert np.abs(full[: -len(values)]).max(initial=0.0) < 1e-12

    def test_cut_validation(self):
        state = evolve(build_hamiltonian(build_basis(4, 2)), 0.5)
        with pytest.raises(ValueError):
            reduced_entropy(state, 5)

    @pytest.mark.parametrize("dots,m_exc,kt", [(8, 3, 0.3), (8, 3, 1.7), (9, 4, 2.9)])
    def test_density_eigenvalues_are_schmidt_weights(self, dots, m_exc, kt):
        state = evolve(build_hamiltonian(build_basis(dots, m_exc)), kt)
        values = np.sort(reduced_eigenvalues(state, m_exc))
        weights = np.sort(spectrum_curve(amplitude_table(ModelConfig(dots, m_exc)), [kt])[0])
        assert np.abs(values[-len(weights):] - weights).max() < 1e-10
        assert values[: -len(weights)].sum() < 1e-10


class TestComplementarySectors:
    """Sector (N, N - M) repeats sector (N, M); verify diagonalizes only one."""

    @pytest.mark.parametrize("dots", range(1, 11))
    def test_hopping_matrix_is_the_reversed_partner(self, dots):
        # The spin flip maps the ascending (N, M) basis onto the descending
        # (N, N - M) one and commutes with the hopping.
        for m_exc in range(dots + 1):
            matrix = build_hamiltonian(build_basis(dots, m_exc)).matrix
            partner = build_hamiltonian(build_basis(dots, dots - m_exc)).matrix
            assert np.array_equal(partner, matrix[::-1, ::-1])

    @pytest.mark.parametrize("dots", range(2, 11))
    def test_entropies_agree_at_the_verify_sample_times(self, dots):
        for m_exc in range(dots + 1):
            config = ModelConfig(dots, m_exc)
            window = period(config) if config.m_prime else 2.0 * math.pi
            kts = np.arange(25) * window / 25  # verify's default sample count
            entropy, partner = (
                reduced_entropy(evolve(build_hamiltonian(build_basis(dots, m)), kts), m)
                for m in (m_exc, dots - m_exc)
            )
            assert np.abs(entropy - partner).max() <= 1e-13


class TestPipeline:
    def test_half_period_peak_seven_dots(self):
        assert abs(oracle_entanglement(7, 1, math.pi / 7) - 0.9997) < 5e-5

    def test_start_time_vanishes(self):
        for dots, m_exc in [(4, 2), (9, 3), (10, 0), (10, 10)]:
            assert abs(oracle_entanglement(dots, m_exc, 0.0)) < 1e-12

    def test_returns_a_python_float(self):
        assert type(oracle_entanglement(5, 2, 1.0)) is float

    def test_five_two_at_pi(self):
        assert abs(oracle_entanglement(5, 2, math.pi) - ENTROPY_5_2_AT_PI) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
        st.floats(0.0, 7.0),
    )
    def test_agrees_with_analytical_entropy(self, nm, kt):
        from dotent.closed_form import entropy_curve

        n, m = nm
        analytical = float(entropy_curve(amplitude_table(ModelConfig(n, m)), [kt])[0])
        assert abs(oracle_entanglement(n, m, kt) - analytical) < 1e-9


def test_oracle_imports_only_combinatorics_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").startswith("dotent"):
                internal.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            internal.update(a.name for a in node.names if a.name.startswith("dotent"))
    assert internal <= {".combinatorics", "dotent.combinatorics"}
