"""Peak entanglement searches, size sweeps, and the large-N decay fit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    AmplitudeTable,
    ModelConfig,
    SchmidtSpectrum,
    _at_least_two_dots,
    amplitude_table,
    as_integer,
    derivative_basis,
    entropy_curve,
    entropy_derivatives,
    mes_entropy,
    schmidt_spectrum,
)

# The Schmidt weights are trigonometric polynomials whose fastest harmonic
# turns (max - min multiplier) times per 2 pi of kt.  Sampling each of its
# cycles this many times puts a grid point on both flanks of every peak.
_SAMPLES_PER_CYCLE = 8
# Floor for spectra with under four cycles per period, e.g. one excitation.
_MIN_GRID_POINTS = 32
# Refinement stops once every peak's step is below this kt.
_REFINE_TOL = 1e-12
# Refined peaks closer in entropy than this are treated as equal and the
# earliest time wins.
_TIE_TOL = 1e-12
# Bisection alone shrinks a grid-cell bracket below 1e-12 within 40 steps;
# Newton steps, taken wherever they are safe, converge in far fewer.
_MAX_REFINE_STEPS = 60


@dataclass(frozen=True)
class MaxEntanglementRecord:
    config: ModelConfig
    kt_star: float
    E_max: float
    e_max: float
    E_MES: float
    spectrum_at_max: SchmidtSpectrum


@dataclass(frozen=True)
class InverseLinearFit:
    slope: float
    intercept: float
    residual_rms: float
    domain: tuple[int, ...]


def period(config: ModelConfig) -> float:
    """Exact recurrence time of the Schmidt spectrum.

    A lone excitation (or lone hole) recurs after 2 pi / N; every other
    nontrivial filling recurs after pi for even N and 2 pi for odd N.
    """
    N, M = config.dots, config.excitations
    if config.m_prime == 0:
        raise ValueError(f"no dynamics for N={N}, M={M}")
    if M == 1 or M == N - 1:
        return 2.0 * math.pi / N
    return math.pi if N % 2 == 0 else 2.0 * math.pi


def _grid_size(table: AmplitudeTable, T: float) -> int:
    """Coarse grid intervals over one period T, from the spectrum's bandwidth."""
    bandwidth = max(table.phase_multipliers) - min(table.phase_multipliers)
    # Divide T by 2 pi first, so the cycle count is exact when T is pi or 2 pi.
    cycles = bandwidth * (T / (2.0 * math.pi))
    return max(_MIN_GRID_POINTS, math.ceil(_SAMPLES_PER_CYCLE * cycles))


def _grid_peaks(config: ModelConfig, T: float):
    """Table, coarse grid and interior grid peaks of one configuration."""
    table = amplitude_table(config)
    kts = np.linspace(0.0, T, _grid_size(table, T) + 1)
    coarse = entropy_curve(table, kts)
    peaks = np.flatnonzero(
        (coarse[1:-1] >= coarse[:-2]) & (coarse[1:-1] >= coarse[2:])
    ) + 1
    return table, kts, peaks


def _refine_rank(starts) -> list[np.ndarray]:
    """Maximize E near every grid peak of same-rank searches, all at once.

    starts holds one (table, kts, peaks) per search.  The tables share their
    rank, so their arrays stack without padding along the harmonics; a
    search with fewer peaks repeats its first peak, which moves in step
    with it.  Peak kts[i] is bracketed by [kts[i - 1], kts[i + 1]] and moves
    by a safeguarded Newton iteration on E': the sign of E' narrows the
    bracket, and the peak takes its Newton step when E'' < 0 and the step
    stays inside its bracket, else it bisects.  A search leaves the batch
    once every one of its own peaks has stepped by at most _REFINE_TOL.
    """
    tables = [table for table, _, _ in starts]
    mult = np.stack([t.multipliers for t in tables])
    basis = np.stack([derivative_basis(t) for t in tables])
    factors = np.stack([t.weight_factors for t in tables])
    count, width = len(starts), max(len(peaks) for _, _, peaks in starts)
    x, lo, hi = (np.empty((count, width)) for _ in range(3))
    for g, (_, kts, peaks) in enumerate(starts):
        at = np.full(width, peaks[0])
        at[: len(peaks)] = peaks
        x[g], lo[g], hi[g] = kts[at], kts[at - 1], kts[at + 1]
    refined = np.empty((count, width))
    live = np.arange(count)
    for _ in range(_MAX_REFINE_STEPS):
        _, d1, d2 = entropy_derivatives(mult, basis, factors, x)
        lo = np.where(d1 > 0.0, x, lo)
        hi = np.where(d1 < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - d1 / d2
        safe = (d2 < 0.0) & (newton >= lo) & (newton <= hi)
        moved = np.where(safe, newton, 0.5 * (lo + hi))
        keep = ~np.all(np.abs(moved - x) <= _REFINE_TOL, axis=1)
        x = refined[live] = moved
        if not keep.all():
            live, x, lo, hi, mult, basis, factors = (
                a[keep] for a in (live, x, lo, hi, mult, basis, factors)
            )
            if not live.size:
                break
    return [xs[: len(peaks)] for xs, (_, _, peaks) in zip(refined, starts)]


def _record(config, table, refined) -> MaxEntanglementRecord:
    """The record of the best refined peak, the earliest among near-ties."""
    values = entropy_curve(table, refined)
    best = values.max()
    kt_star, E_max = min(
        (float(x), float(e)) for x, e in zip(refined, values) if e >= best - _TIE_TOL
    )
    E_MES = mes_entropy(config)
    return MaxEntanglementRecord(
        config=config,
        kt_star=kt_star,
        E_max=E_max,
        e_max=E_max / E_MES,
        E_MES=E_MES,
        spectrum_at_max=schmidt_spectrum(table, kt_star),
    )


def find_maxima(configs) -> list[MaxEntanglementRecord]:
    """Locate the entanglement maximum of each configuration over one exact period.

    Every interior peak of a grid sized by the spectrum's bandwidth is
    refined, all searches of one rank m' together, then the best refined
    value wins; among peaks equal within tolerance the earliest time is
    returned.  Every configuration's period is taken, and a static one
    refused, before the first table is built.
    """
    configs = list(configs)
    periods = [period(c) for c in configs]
    starts = [_grid_peaks(c, T) for c, T in zip(configs, periods)]
    refined: list = [None] * len(configs)
    for rank in {c.m_prime for c in configs}:
        members = [i for i, c in enumerate(configs) if c.m_prime == rank]
        for i, xs in zip(members, _refine_rank([starts[i] for i in members])):
            refined[i] = xs
    return [
        _record(c, table, xs) for c, (table, _, _), xs in zip(configs, starts, refined)
    ]


def find_max(config: ModelConfig) -> MaxEntanglementRecord:
    """Locate the entanglement maximum of one configuration over one exact period."""
    return find_maxima([config])[0]


def sweep_over_M(dots: int) -> list[MaxEntanglementRecord]:
    """Peak records for every nontrivial filling M = 1..N-1 of N dots."""
    dots = _at_least_two_dots(dots)
    return find_maxima(ModelConfig(dots, m) for m in range(1, dots))


def sweep_over_N(excitations: int | str, dots_values) -> list[MaxEntanglementRecord]:
    """Peak records across system sizes at fixed M, or at M = N // 2.

    Pass excitations="half" for the half-filling mode.  Every configuration
    is built, and so checked, before the first search.
    """
    if excitations == "half":
        configs = [ModelConfig(n, n // 2) for n in dots_values]
    else:
        configs = [ModelConfig(n, excitations) for n in dots_values]
    return find_maxima(configs)


def critical_N(excitations: int) -> int:
    """Smallest N beyond which the peak entanglement decays monotonically."""
    excitations = as_integer("excitations", excitations)
    if excitations < 1:
        raise ValueError(f"need at least one excitation, got {excitations}")
    return 6 if excitations == 1 else 2 * excitations + 5


def check_fit_domain(excitations: int, dots_values) -> list[int]:
    """The sizes, once they are enough, integers and all past the critical size."""
    dots_values = list(dots_values)
    if len(dots_values) < 3:
        raise ValueError("need at least three sizes to fit")
    floor = critical_N(excitations)
    bad = [n for n in dots_values if n <= floor]
    if bad:
        raise ValueError(
            f"fit domain must exceed the critical size {floor}, got {bad}"
        )
    return [ModelConfig(n, excitations).dots for n in dots_values]


def fit_inverse_linear(records: list[MaxEntanglementRecord]) -> InverseLinearFit:
    """Least-squares line through (N, 1 / E_max) of a size sweep at one M.

    The records' sizes must all lie beyond the critical size of their M.
    """
    fillings = {r.config.excitations for r in records}
    if len(fillings) != 1:
        raise ValueError(f"need records at one M, got M in {sorted(fillings)}")
    dots_values = check_fit_domain(fillings.pop(), [r.config.dots for r in records])
    sizes = np.array(dots_values, dtype=float)
    ordinates = np.array([1.0 / r.E_max for r in records])
    design = np.vstack([sizes, np.ones_like(sizes)]).T
    coef, *_ = np.linalg.lstsq(design, ordinates, rcond=None)
    residuals = ordinates - design @ coef
    return InverseLinearFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        domain=tuple(dots_values),
    )
