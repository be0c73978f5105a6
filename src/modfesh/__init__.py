"""Modulation-induced Feshbach resonance toolkit.

Submodules: specfun (Bessel/Wigner), atomdata (constants, cesium table,
molecular states), lightshift (AC-Stark calculators), floquet (driven
two-level quasi-energies), scattering (effective scattering lengths),
spectra (loss-spectroscopy pipeline), cli (command-line front end).
"""

from .atomdata import AtomSpecies, MolecularState, Transition, cesium, cesium_states, molecular_energy
from .errors import ConfigError, ConvergenceError, DomainError, PoleError
from .floquet import (DrivenTwoLevel, FloquetSolution, avoided_crossing_gap,
                      effective_coupling, floquet_spectrum, resonance_frequencies)
from .lightshift import (LightField, Polarization, fictitious_field, heating_rate,
                         scattering_rate, vector_polarizability)
from .scattering import (DressedChannelModel, ResonanceModel, dressed_alpha_beta,
                         inelastic_channel_scaling, loss_rate_proxy, scattering_length,
                         width_from_coupling)
from .specfun import bessel_j, wigner_3j, wigner_6j
from .spectra import (FanoFit, Spectrum, assemble_energy_map, fano_profile, find_peaks,
                      fit_fano, fit_landau_zener, synthesize_field_scan, synthesize_spectrum)

__version__ = "0.1.0"
