"""Brute-force cross-check in the fixed-excitation sector.

Deliberately independent of the analytical path: no Dicke basis and
nothing of the closed form.  `evolve` returns the amplitudes over every
N-bit configuration with M excitations, found in the eigenbasis of the
hopping operator restricted to the start state's Krylov subspace, by
Lanczos iteration with H applied through the identity H = S+ S- - M.
`reduced_entropy(basis, amplitudes, cut)` takes them to the entropy of
the first `cut` sites, from eigenvalues of the reduced density matrix,
one block per excitation count of the kept sites.  Nothing from the
rest of the package is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The (20, 10) sector, 184 756 configurations, takes about 1.4 s and 330 MB
# peak RSS, and a whole `verify --max-dots 20 --samples 25` about 5.7 s and
# 370 MB, on one 2-core Xeon VM with OpenBLAS on one thread.
DEFAULT_MAX_DOTS = 20


@dataclass(frozen=True)
class SectorBasis:
    """N-bit configurations with exactly M ones, ascending as integers.

    The states are one read-only int64 array, so a configuration's basis
    position is its `searchsorted` index.  Site 1 is the most significant
    bit, so the start configuration (first M sites excited) is the last
    basis element, index -1.
    """

    dots: int
    excitations: int
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Hopping operator in coupling units: 1 between single-move neighbors.

    On sector M it is S+ S- - M.  Row i of the read-only int array `down`
    lists the sector M - 1 positions (ascending likewise) of configuration
    i with each excitation removed, and row j of `up` the N - M + 1 rows of
    `down` that hold j: H x is two gathers minus M x, with no d x d matrix.
    """

    basis: SectorBasis
    down: np.ndarray
    up: np.ndarray

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """H times a vector, or times each column of a d x k matrix."""
        lowered = vectors[self.up].sum(axis=1)
        return lowered[self.down].sum(axis=1) - self.basis.excitations * vectors

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of H that span the start state, computed once.

        Lanczos from the start configuration e_s builds an orthonormal
        basis Q of its Krylov subspace, reorthogonalizing each new vector
        twice against all earlier ones, until the residual vanishes
        against |H| = M(N - M).  In that basis H is the tridiagonal T of
        the diagonal entries q_j . H q_j and the residual norms.  The
        subspace is invariant, so the eigenpairs (S, values) of T give
        exact eigenpairs (Q S, values) of H, and e_s lies in their span;
        `evolve` needs no others.  Returns ascending values and the d x k
        matrix of orthonormal eigenvectors, and raises ArithmeticError
        unless every pair satisfies |H v - lambda v| <= 1e-10 |H|.
        """
        scale = self.basis.excitations * (self.basis.dots - self.basis.excitations)
        start = np.zeros(len(self.basis))
        start[-1] = 1.0
        columns, diagonal, norms = [start], [], []
        while True:
            residual = self.apply(columns[-1])
            diagonal.append(columns[-1] @ residual)
            if len(columns) == len(start):
                break
            earlier = np.array(columns)
            for _ in range(2):
                residual -= (earlier @ residual) @ earlier
            norm = np.linalg.norm(residual)
            # For every sector with N <= 20 the closing residual is at most
            # 1.4e-28 |H| and every earlier one at least 1.
            if norm <= 1e-8 * scale:
                break
            norms.append(norm)
            columns.append(residual / norm)
        tridiagonal = np.diag(diagonal) + np.diag(norms, 1) + np.diag(norms, -1)
        values, small = np.linalg.eigh(tridiagonal)
        vectors = np.array(columns).T @ small
        error = np.abs(self.apply(vectors) - vectors * values).max()
        if not error <= 1e-10 * scale:
            raise ArithmeticError(
                f"Krylov eigenpairs miss H v = lambda v by {error:.3g}"
            )
        return values, vectors


def _ones(values: np.ndarray, width: int) -> np.ndarray:
    """Number of set bits among the low `width` bits of each value."""
    return sum(((values >> p) & 1 for p in range(width)), np.zeros_like(values))


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
    states = values[_ones(values, dots) == excitations]
    states.setflags(write=False)
    return SectorBasis(dots, excitations, states)


def build_hamiltonian(basis: SectorBasis) -> SectorHamiltonian:
    states, excitations = basis.states, basis.excitations
    bits = np.int64(1) << np.arange(basis.dots, dtype=np.int64)
    # Each configuration with one excitation removed, row-major.
    removed = (states[:, None] ^ bits)[(states[:, None] & bits) != 0]
    down = np.unique(removed, return_inverse=True)[1].reshape(len(states), -1)
    order = np.argsort(down, axis=None, kind="stable")  # grouped by entry
    up = (order // excitations).reshape(-1, basis.dots - excitations + 1)
    for table in (down, up):
        table.setflags(write=False)
    return SectorHamiltonian(basis, down, up)


def evolve(hamiltonian: SectorHamiltonian, kt: float | np.ndarray) -> np.ndarray:
    """Amplitudes over the basis at time kt, from the start configuration.

    For a 1-D array of times they gain a leading time axis, one row per
    time.  The eigenvectors of the real symmetric hopping operator are
    real, so the basis change is two real matrix products.
    """
    values, vectors = hamiltonian.eigensystem
    phases = np.exp(-1j * np.multiply.outer(kt, values)) * vectors[-1, :]
    return phases.real @ vectors.T + 1j * (phases.imag @ vectors.T)


def reduced_eigenvalues(
    basis: SectorBasis, amplitudes: np.ndarray, cut: int
) -> np.ndarray:
    """Ascending nonzero spectrum, plus zeros, of the reduced density matrix.

    The density of sites 1..cut is B B† for the amplitude block B, with one
    row per configuration of those sites and one column per configuration
    of the rest.  A configuration with j excitations among sites 1..cut
    pairs only with columns holding the other M - j, so the density is
    block-diagonal in j.  Block j is full, C(cut, j) x C(N - cut, M - j),
    and the ascending basis lists its entries in row-major order.  Each
    block's smaller Gram matrix, B_j B_j† or B_j† B_j, has its nonzero
    eigenvalues.  Zeros pad them to min(rows, cols) values.  The last axis
    of `amplitudes` runs over the basis, as `evolve` returns it, and each
    leading index (a time) gets its own row of values.
    """
    if not 0 <= cut <= basis.dots:
        raise ValueError(f"cut must lie in 0..{basis.dots}, got {cut}")
    shift, total = basis.dots - cut, basis.excitations
    count = _ones(basis.states >> shift, cut)
    lead = amplitudes.shape[:-1]
    spectra, rows, cols = [], 0, 0
    for j in range(max(0, total - shift), min(cut, total) + 1):
        shape = (math.comb(cut, j), math.comb(shift, total - j))
        block = amplitudes[..., count == j].reshape(lead + shape)
        if shape[0] > shape[1]:
            block = block.conj().swapaxes(-1, -2)
        spectra.append(np.linalg.eigvalsh(block @ block.conj().swapaxes(-1, -2)))
        rows, cols = rows + shape[0], cols + shape[1]
    padding = np.zeros(lead + (min(rows, cols) - sum(v.shape[-1] for v in spectra),))
    values = np.sort(np.concatenate(spectra + [padding], axis=-1), axis=-1)
    if values.min() < -1e-12:
        raise ArithmeticError(
            f"reduced density matrix has eigenvalue {values.min()}"
        )
    return np.clip(values, 0.0, None)


def reduced_entropy(
    basis: SectorBasis, amplitudes: np.ndarray, cut: int
) -> float | np.ndarray:
    """Von Neumann entropy (base 2) of the first `cut` sites, one per time."""
    values = reduced_eigenvalues(basis, amplitudes, cut)
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return -(values * logs).sum(axis=-1) + 0.0


def oracle_entanglement(dots: int, excitations: int, kt: float) -> float:
    """Full pipeline: basis, hopping tables, evolution, reduced entropy."""
    basis = build_basis(dots, excitations)
    amplitudes = evolve(build_hamiltonian(basis), kt)
    return float(reduced_entropy(basis, amplitudes, excitations))
