"""Entanglement dynamics of N spin-1/2 dots with uniform all-to-all exchange.

The initial product state has the first M dots excited; its evolution stays
inside the fixed-excitation sector, so the Schmidt spectrum of the excited
block is available in closed form.  `closed_form` carries the exact rational
solution, `oracle` the independent brute-force check, `analysis` the peak
searches and size sweeps, `cli` the dataset-emitting command line.
"""

__version__ = "0.1.0"

from .closed_form import ModelConfig, amplitude_table, entanglement, schmidt_spectrum
from .analysis import find_max
