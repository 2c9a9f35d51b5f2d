"""Analytical Schmidt spectra for the equivalent-neighbor spin model.

N dots interact through a uniform exchange coupling; the initial state has
the first M dots excited.  Time is the dimensionless product kt of that
coupling and physical time.  The superposition amplitudes are carried as
exact integers over one common denominator (the mixing matrix suffers
heavy cancellation in floats); a float entry is n / L times the root of its
branch's degeneracy, so floating point enters only there and in the trigonometry.
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

    @property
    def phase_multipliers(self) -> tuple[int, ...]:
        """Integer harmonic frequencies n (N + 1 - n) - M (N - M), n = 0..m'."""
        N, M = self.dots, self.excitations
        return tuple(n * (N + 1 - n) - M * (N - M) for n in range(self.m_prime + 1))


def _branch_roots(config: ModelConfig) -> tuple[float, ...]:
    """sqrt(f_m), f_m = C(M, m) C(N - M, m): isqrt(f_m 2^128) / 2^64, rounded once."""
    N, M = config.dots, config.excitations
    f = (binomial(M, m) * binomial(N - M, m) for m in range(config.m_prime + 1))
    try:
        return tuple(math.isqrt(x << 128) / (1 << 64) for x in f)
    except OverflowError:
        raise ValueError(
            f"N={N}, M={M}: a branch root sqrt(C(M, m) C(N - M, m)) exceeds "
            f"the float maximum {np.finfo(float).max:.3g}"
        ) from None


@dataclass(frozen=True)
class AmplitudeTable:
    """Exact time-independent data for one (N, M).

    Branch m's Schmidt weight is f_m |c_m|^2, f_m = C(M, m) C(N - M, m), where
    c_m sums over n the harmonics numerators[n][m] / denominator * exp(i
    config.phase_multipliers[n] kt), both indices in 0..m_prime; `_roots` holds
    sqrt(f_m).  The float views below are built on first use and shared.
    """

    config: ModelConfig
    numerators: tuple[tuple[int, ...], ...]
    denominator: int
    _roots: tuple[float, ...]

    @cached_property
    def mixing(self) -> np.ndarray:
        """The normalized table a_nm = (n / L) sqrt(f_m), with |a_nm| <= 1.

        n / L, the root and their product each round once: an entry is within
        3 * 2^-53 relative, plus sqrt(f_m) 2^-1075 < 2^-51 where n / L is
        subnormal.
        """
        rows = [[n / self.denominator for n in row] for row in self.numerators]
        return np.array(rows) * self._roots

    @cached_property
    def multipliers(self) -> np.ndarray:
        return np.array(self.config.phase_multipliers, dtype=float)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt weights of the excited block at one instant."""

    time: float
    weights: tuple[float, ...]


def amplitude_table(config: ModelConfig) -> AmplitudeTable:
    """Build the exact mixing matrix of one configuration.

    Entry (n, m) is the paper's sum over k of
    (-1)^k C(m, k) [C(N+1-2k, n-k) - 2 C(N-2k, n-k-1)] / C(N-2k, M-k), kept as
    the integer w_nm over the least common multiple L of its denominators.
    M and N - M share one table; take M' = m'.  On the Dicke states m = 0..M'
    of the polarized blocks the hopping is tridiagonal: diagonal m(N - 2m),
    squared off-diagonal m^2 c_m / c_(m-1), c_m = (m!)^2 C(M', m) C(N-M', m).
    Row n, times c_m, is its eigenvector of eigenvalue -lambda_n, so from the
    k = 0 term w_0 = (L / C(N, M)) (C(N+1, n) - 2 C(N, n-1)) the row follows
      w_(m+1) (M' - m)(N - M' - m) = -((lambda_n + m(N - 2m)) w_m + m^2 w_(m-1)).
    Each w_m is an integer, so each of the O(m'^2) steps divides exactly by a
    small integer; a remainder is refused as corrupt data, and so is a column
    m not summing to L for m = 0 and to 0 otherwise (the t = 0 product state).
    A root past the float maximum (N >= 2059 at half filling) is refused first.
    """
    N, M = config.dots, config.excitations
    top, roots = config.m_prime, _branch_roots(config)
    denominators = [binomial(N - 2 * k, M - k) for k in range(top + 1)]
    common = math.lcm(*denominators)
    steps = [(m * (N - 2 * m), m * m, (top - m) * (N - top - m)) for m in range(top)]
    rows = []
    for n, lam in enumerate(config.phase_multipliers):
        w = common // denominators[0] * (binomial(N + 1, n) - 2 * binomial(N, n - 1))
        previous, row = 0, [w]
        for m, (diagonal, square, divisor) in enumerate(steps):
            w, previous = -(lam + diagonal) * w - square * previous, w
            w, rest = divmod(w, divisor)
            if rest:
                raise NormalizationError(f"N={N}, M={M}: inexact step at n={n}, m={m}")
            row.append(w)
        rows.append(tuple(row))
    for m, column_sum in enumerate(map(sum, zip(*rows))):
        if column_sum != (common if m == 0 else 0):
            raise NormalizationError(
                f"initial condition violated in column {m}: "
                f"sum {Fraction(column_sum, common)}"
            )
    return AmplitudeTable(config, tuple(rows), common, roots)


def _finite_times(kts) -> np.ndarray:
    """kts as a float array of any shape; each must be a finite int or float."""
    times = np.asarray(kts)
    if times.dtype.kind not in "iuf":
        raise ValueError(f"time must be an integer or float, got dtype {times.dtype}")
    kts = times.astype(float, copy=False)
    bad = kts[~np.isfinite(kts)]
    if bad.size:
        raise ValueError(f"time must be finite, got kt={bad.flat[0]}")
    return kts


def coefficients(table: AmplitudeTable, kts) -> np.ndarray:
    """Complex branch amplitudes, whose |.|^2 are the Schmidt weights, per time.

    A scalar time gives the single row of its amplitudes.  The curve and
    spectrum evaluations pass here, and refuse a NaN or infinite time.
    """
    kts = _finite_times(kts)
    return np.exp(1j * np.multiply.outer(kts, table.multipliers)) @ table.mixing


def _entropy(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) along the last axis, with 0 log 0 = 0."""
    safe = np.where(weights > 0.0, weights, 1.0)
    return -np.sum(weights * np.log2(safe), axis=-1) + 0.0


def spectrum_curve(table: AmplitudeTable, kts) -> np.ndarray:
    """Schmidt weights for every time in kts; row i belongs to kts[i]."""
    return np.abs(coefficients(table, np.atleast_1d(kts))) ** 2


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


def entropy_derivatives(multipliers, basis, kts) -> tuple[np.ndarray, np.ndarray]:
    """First two kt-derivatives of the entropy, for stacks of same-rank tables.

    multipliers is (..., K), basis the (..., K, 3K) `derivative_basis` and
    kts (..., P); each result is (..., P), and every leading index is one
    table with its own times.  Zero-weight branches add nothing, as in the
    entropy, and a NaN or infinite time is refused, as in `coefficients`.
    """
    kts = _finite_times(kts)
    phases = np.exp(1j * (kts[..., :, None] * multipliers[..., None, :]))
    K = multipliers.shape[-1]
    both = phases @ basis
    c, c1, c2 = both[..., :K], both[..., K : 2 * K], both[..., 2 * K :]
    w = np.abs(c) ** 2
    w1 = 2.0 * (c.conj() * c1).real
    w2 = 2.0 * (np.abs(c1) ** 2 + (c.conj() * c2).real)
    # d(w ln w)/dw = ln w + 1, masked to 0 on empty branches (there w' = 0 too)
    safe = np.where(w > 0.0, w, 1.0)
    slope = np.where(w > 0.0, np.log(safe) + 1.0, 0.0)
    d1 = -np.sum(w1 * slope, axis=-1) / math.log(2.0)
    d2 = -np.sum(w2 * slope + w1 * w1 / safe, axis=-1) / math.log(2.0)
    return d1, d2


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


def _grid_magnitudes(table: AmplitudeTable, kts: np.ndarray) -> np.ndarray:
    """|coefficients| on a uniform grid kts from 0: a row per time, and a few more.

    With blocks of b = isqrt(len(kts)) + 1 times, time j = a b + r has the
    phases exp(i l kts[a b]) exp(i l kts[r]) of exp(i l kt_j).  The offset
    phases are folded into the mixing matrix, a K x b K basis, so one product
    with the block-start phases gives every coefficient from about 2 b exps
    per harmonic instead of one per time.  kts[a b] + kts[r] differs from
    kts[a b + r] by a few ulp of the last time, so each phase moves by as
    many ulp times its multiplier l, as exp(i l kt) rounds l kt.
    """
    K = len(table.multipliers)
    block = math.isqrt(len(kts)) + 1
    starts, offsets = (
        np.exp(1j * np.multiply.outer(t, table.multipliers))
        for t in (kts[::block], kts[:block])
    )
    basis = (offsets.T[:, :, None] * table.mixing[:, None, :]).reshape(K, block * K)
    # Only |c| leaves: the complex product is freed here, before the caller
    # allocates its output rows.  Live memory then peaks at the product and
    # |c| (26 MiB for 50 001 rows at N = 40; 35 MiB with the rows allocated
    # first).  The order also sets peak RSS.  glibc serves the product by
    # mmap, and freeing it raises the mmap threshold to its size and the
    # trim threshold to twice that, so the rows and the entropy's
    # temporaries come from the heap.  About 26 MB of it stays free and
    # resident below the trim threshold, and a later 24 MB buffer (the CSV
    # read back) is served from it.  With the rows allocated first they were
    # mmapped, and the 18 MB left free (mallinfo2) was too small for that
    # buffer, which took fresh pages: a fresh-process trace job then peaked
    # at 98 MB instead of 84 MB.
    return np.abs(starts @ basis).reshape(-1, K)


def trace_entanglement(config: ModelConfig, kt_max: float, steps: int) -> np.ndarray:
    """The trace table on kt_j = j kt_max / steps, j = 0..steps, from one table.

    Row j holds kt_j (exactly np.linspace(0, kt_max, steps + 1)), the
    entropy and the Schmidt weights P_0..P_m'.  The phases are evaluated
    blockwise (`_grid_magnitudes`); `spectrum_curve` is the path for
    arbitrary times.  Before the table is built, steps must be an integer
    of at least 1, kt_max positive and finite, and its float spacing less
    than a radian of phase in the fastest harmonic.
    """
    steps = as_integer("steps", steps)
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if isinstance(kt_max, bool) or not (math.isfinite(kt_max) and kt_max > 0):
        raise ValueError(
            f"time window must be positive and finite, got kt_max={kt_max}"
        )
    step = math.ulp(kt_max) * max(1, *map(abs, config.phase_multipliers))
    if step >= 1:
        raise ValueError(
            f"time window {kt_max} too long: adjacent times at its end differ by "
            f"{step:.3g} rad of phase, beyond finite precision"
        )
    table = amplitude_table(config)
    kts = np.linspace(0.0, kt_max, steps + 1)
    magnitudes = _grid_magnitudes(table, kts)[: steps + 1]
    rows = np.empty((steps + 1, len(table.multipliers) + 2))
    rows[:, 0] = kts
    weights = rows[:, 2:]
    np.multiply(magnitudes, magnitudes, out=weights)
    del magnitudes  # before the entropy's temporaries
    rows[:, 1] = _entropy(weights)
    return rows


def mes_entropy(config: ModelConfig) -> float:
    """Entropy of the maximally entangled state reachable from this start."""
    return math.log2(config.m_prime + 1)


def p1_single_excitation(dots: int, kt: float) -> float:
    """Weight of the transferred branch for a single initial excitation."""
    dots, kt = _at_least_two_dots(dots), float(_finite_times(kt))
    return 4.0 * (dots - 1) / dots**2 * math.sin(0.5 * dots * kt) ** 2


def entanglement_rate_m1(dots: int, kt: float) -> float:
    """d(entropy)/d(kt) for a single initial excitation.

    The analytical form is an indeterminate 0 * inf product wherever the
    branch weight vanishes (kt a multiple of 2 pi / N) and wherever it
    reaches 1; the true limit is 0 at all of those points.
    """
    dots, kt = _at_least_two_dots(dots), float(_finite_times(kt))
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

    |coefficient of branch m| / sqrt(C(M, m) C(N - M, m)) collapses to the
    rational 2^m m! (N - 2M) (N - 2m - 2)!! / N!! at that instant.
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
    """|coefficients| at kt = pi: the exact magnitudes times the branch roots."""
    return np.array(pi_time_magnitudes_exact(config), float) * _branch_roots(config)
