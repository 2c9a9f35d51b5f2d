"""Analytical Schmidt spectra for the equivalent-neighbor spin model.

N dots interact through a uniform exchange coupling; the initial state has
the first M dots excited.  Time is the dimensionless product kt of that
coupling and physical time.  The superposition amplitudes are carried as
exact integers over one common denominator (the mixing matrix suffers
heavy cancellation in floats); each is rounded to double precision once,
and floating point enters only in the trigonometric evaluation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .combinatorics import binomial, double_factorial

# Schmidt weights of a valid table sum to 1 up to rounding; a larger drift
# means the table itself is broken, not the caller's input.
SPECTRUM_SUM_TOL = 1e-9


class NormalizationError(ArithmeticError):
    """Schmidt weights failed to sum to 1: the amplitude data is corrupt."""


def as_integer(name: str, value) -> int:
    """value as a plain int, if operator.index accepts it and it is no bool.

    A float, NaN included, is refused rather than truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _at_least_two_dots(dots) -> int:
    """dots as a plain int, refused unless it is an integer of at least 2."""
    dots = as_integer("dots", dots)
    if dots < 2:
        raise ValueError(f"need at least two dots, got {dots}")
    return dots


@dataclass(frozen=True)
class ModelConfig:
    """System size and excitation count: N dots, the first M excited."""

    dots: int
    excitations: int

    def __post_init__(self):
        for name in ("dots", "excitations"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.dots < 1:
            raise ValueError(f"need at least one dot, got {self.dots}")
        if not 0 <= self.excitations <= self.dots:
            raise ValueError(
                f"excitations must lie in 0..{self.dots}, got {self.excitations}"
            )

    @property
    def m_prime(self) -> int:
        """Largest Schmidt index: min(M, N - M)."""
        return min(self.excitations, self.dots - self.excitations)


@dataclass(frozen=True)
class AmplitudeTable:
    """Exact time-independent data for one (N, M).

    The coefficient of Schmidt branch m is a superposition of harmonics:
    sum over n of (numerators[n][m] / denominator) * exp(i * phase_multipliers[n]
    * kt).  Both indices run over 0..m_prime.  The float views below are
    built on first use and shared by every later evaluation of this table.
    """

    config: ModelConfig
    numerators: tuple[tuple[int, ...], ...]
    denominator: int
    phase_multipliers: tuple[int, ...]

    @cached_property
    def mixing(self) -> np.ndarray:
        """The amplitudes n / L, each correctly rounded to double precision."""
        L = self.denominator
        return np.array([[n / L for n in row] for row in self.numerators], dtype=float)

    @cached_property
    def multipliers(self) -> np.ndarray:
        return np.array(self.phase_multipliers, dtype=float)

    @cached_property
    def weight_factors(self) -> np.ndarray:
        """Degeneracy prefactors C(M, m) * C(N - M, m) of the Schmidt branches."""
        N, M, top = self.config.dots, self.config.excitations, self.config.m_prime
        return np.array(
            [binomial(M, m) * binomial(N - M, m) for m in range(top + 1)], dtype=float
        )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt weights of the excited block at one instant."""

    time: float
    weights: tuple[float, ...]


def amplitude_table(config: ModelConfig) -> AmplitudeTable:
    """Build the exact mixing matrix and integer phase multipliers.

    Entry (n, m) is the paper's sum over k of
    (-1)^k C(m, k) [C(N+1-2k, n-k) - 2 C(N-2k, n-k-1)] / C(N-2k, M-k).
    The denominators depend only on k, so every term is scaled to their
    least common multiple L and summed as an integer; the table keeps those
    sums over L.  Construction is validated against the t = 0 product
    state on the integer sums: column m must sum to L for m = 0 and to 0
    otherwise, exactly.
    """
    N, M = config.dots, config.excitations
    top = config.m_prime
    denominators = [binomial(N - 2 * k, M - k) for k in range(top + 1)]
    common = math.lcm(*denominators)
    # k-th term coefficient of column m; terms with k > m vanish
    weights = [
        [
            (-1) ** k * (common // denominators[k]) * binomial(m, k)
            for k in range(m + 1)
        ]
        for m in range(top + 1)
    ]
    # bracket of row n; terms with k > n vanish
    brackets = [
        [
            binomial(N + 1 - 2 * k, n - k) - 2 * binomial(N - 2 * k, n - k - 1)
            for k in range(n + 1)
        ]
        for n in range(top + 1)
    ]
    sums = tuple(
        tuple(sum(w * b for w, b in zip(column, row)) for column in weights)
        for row in brackets
    )
    for m in range(top + 1):
        column_sum = sum(row[m] for row in sums)
        if column_sum != (common if m == 0 else 0):
            raise NormalizationError(
                f"initial condition violated in column {m}: "
                f"sum {Fraction(column_sum, common)}"
            )
    multipliers = tuple(n * (N + 1 - n) - M * (N - M) for n in range(top + 1))
    return AmplitudeTable(config, sums, common, multipliers)


def coefficients(table: AmplitudeTable, kts) -> np.ndarray:
    """Complex branch coefficients in double precision, one row per time in kts.

    A scalar time gives the single row of its coefficients.
    """
    return np.exp(1j * np.multiply.outer(kts, table.multipliers)) @ table.mixing


def _entropy(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) along the last axis, with 0 log 0 = 0."""
    safe = np.where(weights > 0.0, weights, 1.0)
    return -np.sum(weights * np.log2(safe), axis=-1) + 0.0


def spectrum_curve(table: AmplitudeTable, kts) -> np.ndarray:
    """Schmidt weights for every time in kts; row i belongs to kts[i]."""
    kts = np.atleast_1d(np.asarray(kts, dtype=float))
    coeff = coefficients(table, kts)
    return table.weight_factors * np.abs(coeff) ** 2


def entropy_curve(table: AmplitudeTable, kts) -> np.ndarray:
    """Entanglement entropy (base 2) for every time in kts."""
    return _entropy(spectrum_curve(table, kts))


def derivative_basis(table: AmplitudeTable) -> np.ndarray:
    """The K x 3K matrix [mix | i mult mix | -mult**2 mix] of one table.

    Each branch coefficient c is a trigonometric polynomial, so one product
    of the phase matrix with this basis gives c, c' and c'' side by side.
    """
    mult, mix = table.multipliers[:, None], table.mixing
    return np.concatenate([h * mix for h in (1.0, 1j * mult, -mult * mult)], axis=1)


def entropy_derivatives(
    multipliers: np.ndarray, basis: np.ndarray, weight_factors: np.ndarray, kts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy E and its first two kt-derivatives, for stacks of same-rank tables.

    multipliers and weight_factors are (..., K), basis is the (..., K, 3K)
    `derivative_basis` and kts is (..., P); each result is (..., P), and
    every leading index is one table with its own times.  Branches of zero
    weight add nothing, as in the entropy itself.
    """
    kts = np.asarray(kts, dtype=float)
    phases = np.exp(1j * (kts[..., :, None] * multipliers[..., None, :]))
    K = multipliers.shape[-1]
    both = phases @ basis
    c, c1, c2 = both[..., :K], both[..., K : 2 * K], both[..., 2 * K :]
    f = weight_factors[..., None, :]
    w = f * np.abs(c) ** 2
    w1 = 2.0 * f * (c.conj() * c1).real
    w2 = 2.0 * f * (np.abs(c1) ** 2 + (c.conj() * c2).real)
    # d(w ln w)/dw = ln w + 1, masked to 0 on empty branches (there w' = 0 too)
    safe = np.where(w > 0.0, w, 1.0)
    slope = np.where(w > 0.0, np.log(safe) + 1.0, 0.0)
    d1 = -np.sum(w1 * slope, axis=-1) / math.log(2.0)
    d2 = -np.sum(w2 * slope + w1 * w1 / safe, axis=-1) / math.log(2.0)
    return _entropy(w), d1, d2


def schmidt_spectrum(table: AmplitudeTable, kt: float) -> SchmidtSpectrum:
    weights = spectrum_curve(table, [kt])[0]
    total = float(weights.sum())
    if not abs(total - 1.0) <= SPECTRUM_SUM_TOL:
        raise NormalizationError(
            f"Schmidt weights sum to {total!r} at kt={kt!r}"
        )
    return SchmidtSpectrum(time=float(kt), weights=tuple(float(w) for w in weights))


def entanglement(spectrum: SchmidtSpectrum) -> float:
    """Shannon entropy (base 2) of the Schmidt weights, with 0 log 0 = 0."""
    return float(_entropy(np.asarray(spectrum.weights, dtype=float)))


def trace_entanglement(
    config: ModelConfig, kts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, entropies and Schmidt weights along a time grid, from one table.

    Row i of the 2-D weights belongs to times[i].
    """
    times = np.atleast_1d(np.asarray(kts, dtype=float))
    weights = spectrum_curve(amplitude_table(config), times)
    return times, _entropy(weights), weights


def mes_entropy(config: ModelConfig) -> float:
    """Entropy of the maximally entangled state reachable from this start."""
    return math.log2(config.m_prime + 1)


def p1_single_excitation(dots: int, kt: float) -> float:
    """Weight of the transferred branch for a single initial excitation."""
    dots = _at_least_two_dots(dots)
    return 4.0 * (dots - 1) / dots**2 * math.sin(0.5 * dots * kt) ** 2


def entanglement_rate_m1(dots: int, kt: float) -> float:
    """d(entropy)/d(kt) for a single initial excitation.

    The analytical form is an indeterminate 0 * inf product wherever the
    branch weight vanishes (kt a multiple of 2 pi / N) and wherever it
    reaches 1; the true limit is 0 at all of those points.
    """
    dots = _at_least_two_dots(dots)
    s2 = math.sin(0.5 * dots * kt) ** 2
    if s2 == 0.0:
        return 0.0
    odds = dots * dots / (4.0 * (dots - 1.0) * s2) - 1.0
    if odds <= 0.0:
        return 0.0
    return 2.0 * (dots - 1.0) / dots * math.sin(dots * kt) * math.log2(odds)


def mes_time_m1(dots: int) -> float | None:
    """Earliest time a single excitation reaches the two-branch MES.

    None when no real solution exists (dot counts above six never split
    the weight evenly).
    """
    dots = _at_least_two_dots(dots)
    x = 2.0 * math.sqrt(2.0 * (dots - 1.0)) / dots
    if x < 1.0:
        return None
    return 2.0 / dots * math.asin(1.0 / x)


def peak_entropy_m1(dots: int) -> float:
    """Entropy of a single excitation at the half-period time pi / N.

    For two dots the (N - 2)^2 log(N - 2) term is read as 0 log 0 = 0.
    """
    dots = _at_least_two_dots(dots)
    total = dots * dots * math.log2(dots) - 2.0 * (dots - 1.0) * math.log2(
        4.0 * (dots - 1.0)
    )
    if dots > 2:
        total -= (dots - 2.0) ** 2 * math.log2(dots - 2.0)
    return 2.0 / dots**2 * total


def pi_time_magnitudes_exact(config: ModelConfig) -> tuple[Fraction, ...]:
    """Exact branch magnitudes at kt = pi for odd N, M <= (N - 1) / 2.

    |coefficient of branch m| collapses to the rational
    2^m m! (N - 2M) (N - 2m - 2)!! / N!! at that instant.
    """
    N, M = config.dots, config.excitations
    if N % 2 == 0:
        raise ValueError(f"defined for odd dot counts only, got {N}")
    if M > (N - 1) // 2:
        raise ValueError(
            f"excitations must not exceed (N - 1) / 2 = {(N - 1) // 2}, got {M}"
        )
    denom = double_factorial(N)
    return tuple(
        Fraction(
            2**m * math.factorial(m) * (N - 2 * M) * double_factorial(N - 2 * m - 2),
            denom,
        )
        for m in range(config.m_prime + 1)
    )


def pi_time_magnitudes(config: ModelConfig) -> np.ndarray:
    return np.array([float(v) for v in pi_time_magnitudes_exact(config)])
