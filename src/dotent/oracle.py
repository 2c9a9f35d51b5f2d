"""Brute-force cross-check in the fixed-excitation sector.

Deliberately independent of the analytical path: the state is evolved in
the eigenbasis of the hopping matrix restricted to the start state's
Krylov subspace, found by Lanczos iteration on the dense matrix with no
use of its collective-spin structure, and the entanglement comes from
eigenvalues of the reduced density matrix.  Nothing from the rest of the
package is imported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# One dense float matrix at C(16, 8) = 12870 states takes 12870^2 * 8 B
# = 1.3 GB; the Krylov vectors beside it are a few columns of that size.
DEFAULT_MAX_DOTS = 16


@dataclass(frozen=True)
class SectorBasis:
    """N-bit configurations with exactly M ones, ascending as integers.

    The states are one read-only int64 array, so a configuration's basis
    position is its `searchsorted` index.  Site 1 is the most significant
    bit, so the initial configuration (first M sites excited) is the last
    basis element.
    """

    dots: int
    excitations: int
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Hopping matrix in coupling units: 1 between single-move neighbors."""

    basis: SectorBasis
    matrix: np.ndarray

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of H that span the start state, computed once.

        Lanczos from the start configuration e_s builds an orthonormal
        basis Q of its Krylov subspace, reorthogonalizing each new vector
        twice against all earlier ones, until the residual vanishes
        against |H| (the largest row sum).  The subspace is invariant, so
        the eigenpairs (S, values) of the small matrix Q^T H Q give exact
        eigenpairs (Q S, values) of H, and e_s lies in their span; `evolve`
        needs no others.  Returns ascending values and the d x k matrix
        of orthonormal eigenvectors, and raises ArithmeticError unless
        every pair satisfies |H v - lambda v| <= 1e-10 |H|.
        """
        matrix = self.matrix
        scale = np.abs(matrix).sum(axis=1).max()
        start = np.zeros(len(matrix))
        start[initial_state_index(self.basis)] = 1.0
        columns = [start]
        while len(columns) < len(matrix):
            earlier = np.array(columns)
            residual = matrix @ columns[-1]
            for _ in range(2):
                residual -= (earlier @ residual) @ earlier
            norm = np.linalg.norm(residual)
            # For every sector with N <= 14 the closing residual is at most
            # 2.3e-16 |H| and every earlier one at least 1.
            if norm <= 1e-8 * scale:
                break
            columns.append(residual / norm)
        krylov = np.array(columns).T
        values, small = np.linalg.eigh(krylov.T @ matrix @ krylov)
        vectors = krylov @ small
        error = np.abs(matrix @ vectors - vectors * values).max()
        if not error <= 1e-10 * scale:
            raise ArithmeticError(
                f"Krylov eigenpairs miss H v = lambda v by {error:.3g}"
            )
        return values, vectors


@dataclass(frozen=True)
class SectorState:
    """Amplitudes over the basis, one row per time for an array of times."""

    basis: SectorBasis
    amplitudes: np.ndarray


def build_basis(dots: int, excitations: int) -> SectorBasis:
    if dots < 1:
        raise ValueError(f"need at least one dot, got {dots}")
    if not 0 <= excitations <= dots:
        raise ValueError(
            f"excitations must lie in 0..{dots}, got {excitations}"
        )
    if dots > DEFAULT_MAX_DOTS:
        raise ValueError(
            f"sector budget exceeded: {dots} dots > limit {DEFAULT_MAX_DOTS}"
        )
    values = np.arange(1 << dots, dtype=np.int64)
    ones = sum((values >> p) & 1 for p in range(dots))
    states = values[ones == excitations]
    states.setflags(write=False)
    return SectorBasis(dots, excitations, states)


def build_hamiltonian(basis: SectorBasis) -> SectorHamiltonian:
    states = basis.states
    occupied = ((states[:, None] >> np.arange(basis.dots)) & 1).astype(bool)
    matrix = np.zeros((len(states), len(states)))
    for src, dst in itertools.permutations(range(basis.dots), 2):
        hop = np.flatnonzero(occupied[:, src] & ~occupied[:, dst])
        moved = states[hop] ^ (1 << src | 1 << dst)
        matrix[hop, np.searchsorted(states, moved)] = 1.0
    matrix.setflags(write=False)
    return SectorHamiltonian(basis, matrix)


def initial_state_index(basis: SectorBasis) -> int:
    """Basis position of the configuration with the first M sites excited."""
    return len(basis) - 1


def evolve(hamiltonian: SectorHamiltonian, kt: float | np.ndarray) -> SectorState:
    """State at time kt starting from the first-M-sites-excited configuration.

    For a 1-D array of times the amplitudes gain a leading time axis, one
    row per time.  The eigenvectors of the real symmetric hopping matrix
    are real, so the basis change is two real matrix products.
    """
    values, vectors = hamiltonian.eigensystem
    start = initial_state_index(hamiltonian.basis)
    phases = np.exp(-1j * np.multiply.outer(kt, values)) * vectors[start, :]
    amplitudes = phases.real @ vectors.T + 1j * (phases.imag @ vectors.T)
    return SectorState(hamiltonian.basis, amplitudes)


def reduced_eigenvalues(state: SectorState, cut: int) -> np.ndarray:
    """Ascending nonzero spectrum, plus zeros, of the reduced density matrix.

    The density of sites 1..cut is B B† for the amplitude block B, with one
    row per configuration of those sites and one column per configuration
    of the rest; only configurations compatible with the sector appear.
    B† B has the same nonzero eigenvalues, so the smaller of the two Gram
    matrices is diagonalized and min(rows, cols) values are returned, one
    such row per time for a time-batched state.
    """
    basis = state.basis
    if not 0 <= cut <= basis.dots:
        raise ValueError(f"cut must lie in 0..{basis.dots}, got {cut}")
    shift = basis.dots - cut
    mask = (1 << shift) - 1
    rows, row_of = np.unique(basis.states >> shift, return_inverse=True)
    cols, col_of = np.unique(basis.states & mask, return_inverse=True)
    shape = state.amplitudes.shape[:-1] + (len(rows), len(cols))
    block = np.zeros(shape, dtype=complex)
    block[..., row_of, col_of] = state.amplitudes
    if len(rows) > len(cols):
        block = block.conj().swapaxes(-1, -2)
    values = np.linalg.eigvalsh(block @ block.conj().swapaxes(-1, -2))
    if values.min() < -1e-12:
        raise ArithmeticError(
            f"reduced density matrix has eigenvalue {values.min()}"
        )
    return np.clip(values, 0.0, None)


def reduced_entropy(state: SectorState, cut: int) -> float | np.ndarray:
    """Von Neumann entropy (base 2) of the first `cut` sites, one per time."""
    values = reduced_eigenvalues(state, cut)
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return -(values * logs).sum(axis=-1) + 0.0


def oracle_entanglement(dots: int, excitations: int, kt: float) -> float:
    """Full pipeline: basis, hopping matrix, evolution, reduced entropy."""
    basis = build_basis(dots, excitations)
    hamiltonian = build_hamiltonian(basis)
    return float(reduced_entropy(evolve(hamiltonian, kt), excitations))
