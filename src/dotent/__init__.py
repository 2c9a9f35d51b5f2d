"""Entanglement dynamics of N spin-1/2 dots with uniform all-to-all exchange.

The initial product state has the first M dots excited; its evolution stays
inside the fixed-excitation sector, so the Schmidt spectrum of the excited
block is available in closed form.  `closed_form` carries the exact rational
solution, `oracle` the independent brute-force check, `analysis` the peak
searches and size sweeps, `cli` the dataset-emitting command line.
"""

__version__ = "0.1.0"

from .closed_form import (
    AmplitudeTable,
    ModelConfig,
    NormalizationError,
    SchmidtSpectrum,
    amplitude_table,
    coefficients,
    entanglement,
    entanglement_rate_m1,
    entropy_curve,
    mes_entropy,
    mes_time_m1,
    p1_single_excitation,
    peak_entropy_m1,
    pi_time_magnitudes,
    pi_time_magnitudes_exact,
    relative_entanglement,
    schmidt_spectrum,
    spectrum_curve,
    trace_entanglement,
)
from .oracle import (
    SectorBasis,
    SectorHamiltonian,
    SectorState,
    build_basis,
    build_hamiltonian,
    evolve,
    oracle_entanglement,
    reduced_eigenvalues,
    reduced_entropy,
)
from .analysis import (
    InverseLinearFit,
    MaxEntanglementRecord,
    critical_N,
    find_max,
    fit_inverse_linear,
    period,
    sweep_over_M,
    sweep_over_N,
)
