"""AC-Stark physics of the modulation beam.

Vector polarizability and fictitious magnetic field of the ground hyperfine
manifold, photon scattering rate, recoil heating rate, and the conversion of
intensity modulation into a level-modulation amplitude.

Only the D1 and D2 transitions of the species table enter the sums, with no
saturation or linewidth terms in the denominators; a guard therefore rejects
light within 10 natural linewidths of any included transition.

Spherical polarization components follow u = sum_q (-1)^q u_q e_{-q} with
u_{+-1} = -+(u_x +- i u_y)/sqrt(2), so sigma-minus light (driving dm = -1 via
the d_{-1} dipole component) populates u_{+1} and carries circularity
|u_{-1}|^2 - |u_{+1}|^2 = -1.

Note on normalization: the hyperfine dipole matrix elements used in the
scattering-rate sum carry (2F'+1)(2F+1)(2J+1); this is fixed by requiring that
the decay rate of any excited sublevel reproduces the tabulated line Gamma
(checked in the tests), and it reproduces the published cesium benchmark of
~167 Hz/(W/cm^2) at 24 GHz red detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomdata import AtomSpecies, C_LIGHT, HBAR, KB, MU0, MU_BOHR, Transition
from .errors import DomainError
from .specfun import wigner_3j, wigner_6j

__all__ = [
    "Polarization", "LightField", "ModulationDrive",
    "vector_polarizability", "fictitious_field",
    "scattering_rate", "heating_rate", "level_modulation_amplitude",
]

NEAR_RESONANCE_LINEWIDTHS = 10.0
W_PER_CM2_TO_SI = 1.0e4
TESLA_TO_GAUSS = 1.0e4

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Polarization:
    """Unit complex polarization vector in spherical components (u_+1, u_0, u_-1)."""

    u_plus: complex
    u_zero: complex
    u_minus: complex

    def __post_init__(self):
        norm = abs(self.u_plus) ** 2 + abs(self.u_zero) ** 2 + abs(self.u_minus) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"polarization vector not normalized: |u|^2 = {norm}")

    @classmethod
    def sigma_minus(cls) -> "Polarization":
        """Circular polarization driving dm_F = -1 transitions."""
        return cls(-1.0 + 0.0j, 0.0j, 0.0j)

    @classmethod
    def sigma_plus(cls) -> "Polarization":
        """Circular polarization driving dm_F = +1 transitions."""
        return cls(0.0j, 0.0j, -1.0 + 0.0j)

    @classmethod
    def linear(cls, angle: float = 0.0) -> "Polarization":
        """Linear polarization in the x-y plane at the given angle from x."""
        ux = math.cos(angle)
        uy = math.sin(angle)
        return cls(-(ux + 1j * uy) / _SQRT2, 0.0j, (ux - 1j * uy) / _SQRT2)

    @classmethod
    def pi(cls) -> "Polarization":
        """Linear polarization along the quantization axis."""
        return cls(0.0j, 1.0 + 0.0j, 0.0j)

    @property
    def circularity(self) -> float:
        """|u_-1|^2 - |u_+1|^2 (the polarization factor of the fictitious field)."""
        return abs(self.u_minus) ** 2 - abs(self.u_plus) ** 2

    def swapped(self) -> "Polarization":
        """sigma+ <-> sigma- swap (u_+1 <-> u_-1)."""
        return Polarization(self.u_minus, self.u_zero, self.u_plus)

    def component_weight(self, q: int) -> float:
        """|u_q|^2 for q in (-1, 0, +1)."""
        return abs({+1: self.u_plus, 0: self.u_zero, -1: self.u_minus}[q]) ** 2


@dataclass(frozen=True)
class LightField:
    """The experimental knob set of the modulation beam.

    intensity is the average peak intensity in W/cm^2, a scalar or an array
    (one result per intensity); detuning is in Hz, signed relative to the D2
    F -> F'=F+1 reference line (red = negative).
    """

    intensity: float                   # W/cm^2, scalar or array
    detuning: float                    # Hz
    polarization: Polarization
    modulation_depth: float = 0.0      # fraction in [0, 1]

    def __post_init__(self):
        intensity = np.asarray(self.intensity, dtype=float)
        if not np.all(np.isfinite(intensity) & (intensity >= 0)):
            raise DomainError("intensity must be finite and non-negative")
        if intensity.ndim:
            object.__setattr__(self, "intensity", intensity)
        if not math.isfinite(self.detuning):
            raise DomainError("detuning must be finite")
        if not 0.0 <= self.modulation_depth <= 1.0:
            raise DomainError("modulation depth must lie in [0, 1]")

    def angular_frequency(self, species: AtomSpecies) -> float:
        """Absolute optical angular frequency in rad/s."""
        ref = species.reference_transition()
        return 2.0 * math.pi * (ref.frequency + self.detuning)


def _lines_from(species: AtomSpecies, F: int, omega: float) -> list:
    """The transitions from manifold F, after the near-resonance guard."""
    if omega <= 0:
        raise DomainError("optical angular frequency must be positive")
    for tr in species.transitions:
        if abs(omega - tr.angular_frequency) < NEAR_RESONANCE_LINEWIDTHS * tr.decay_rate:
            raise DomainError(
                f"light within {NEAR_RESONANCE_LINEWIDTHS:g} linewidths of the "
                f"{tr.line} F={tr.F}->F'={tr.F_prime} transition; the far-detuned "
                "model is invalid there")
    lines = [tr for tr in species.transitions if tr.F == F]
    if not lines:
        raise DomainError(f"species table has no transitions from F = {F}")
    return lines


def vector_polarizability(species: AtomSpecies, F: int, omega: float) -> float:
    """Vector polarizability alpha_v(F; omega) in SI units (C^2 m^2 / J).

    Sum over the D1 and D2 hyperfine components F -> F':

        (-1)^(F+F'+1) sqrt(6F(2F+1)/(F+1)) {1 1 1; F F F'}
        * omega |<J||d||J'>|^2 / (hbar (w_F'F^2 - omega^2))
        * (2F'+1)(2J+1) {J J' 1; F' F I}^2
    """
    lines = _lines_from(species, F, omega)
    i_nuc = species.nuclear_spin
    pref = math.sqrt(6.0 * F * (2 * F + 1) / (F + 1.0))
    total = 0.0
    for tr in lines:
        w_line = tr.angular_frequency
        sj_vec = wigner_6j(1, 1, 1, F, F, tr.F_prime)
        sj_hf = wigner_6j(tr.J, tr.J_prime, 1, tr.F_prime, F, i_nuc)
        sign = -1.0 if (F + tr.F_prime + 1) % 2 else 1.0
        total += (sign * pref * sj_vec
                  * omega * tr.reduced_dipole ** 2
                  / (HBAR * (w_line ** 2 - omega ** 2))
                  * (2 * tr.F_prime + 1) * (tr.J.twice + 1) * sj_hf ** 2)
    return total


def fictitious_field(field: LightField, species: AtomSpecies, F: int):
    """Fictitious magnetic field B_z^f in Gauss (one per field intensity).

    B_z^f = -(I mu0 c)/(2 mu_B g_F F) (|u_-1|^2 - |u_+1|^2) alpha_v(F; omega)
    """
    if F != species.ground_F:
        raise DomainError("g_F is tabulated only for the ground manifold")
    omega = field.angular_frequency(species)
    alpha_v = vector_polarizability(species, F, omega)
    intensity_si = field.intensity * W_PER_CM2_TO_SI
    b_tesla = (-(intensity_si * MU0 * C_LIGHT)
               / (2.0 * MU_BOHR * species.ground_gF * F)
               * field.polarization.circularity * alpha_v)
    return b_tesla * TESLA_TO_GAUSS


def _hyperfine_me_sq(tr: Transition, i_nuc, F: int, mF: int, p: int) -> float:
    """|<F', mF+p | d_p | F, mF>|^2 in (C m)^2.

    Normalization (2F'+1)(2F+1)(2J+1) x (3j)^2 x (6j)^2: fixed by the
    requirement that summing over decay channels of any excited sublevel
    reproduces the tabulated line decay rate.
    """
    m_prime = mF + p
    if abs(m_prime) > tr.F_prime:
        return 0.0
    tj = wigner_3j(F, 1, tr.F_prime, mF, p, -m_prime)
    if tj == 0.0:
        return 0.0
    sj = wigner_6j(tr.J_prime, tr.J, 1, F, tr.F_prime, i_nuc)
    return ((2 * tr.F_prime + 1) * (2 * F + 1) * (tr.J.twice + 1)
            * tj ** 2 * sj ** 2 * tr.reduced_dipole ** 2)


def scattering_rate(field: LightField, species: AtomSpecies, F: int, mF: int):
    """Photon scattering rate of |F, mF> in Hz (one per field intensity).

    R_s = (I mu0 c)/(2 hbar^2) sum_{F', q} |u_q|^2
          |<F', mF - q| d_{-q} |F, mF>|^2 Gamma_line / (omega - w_F'F)^2

    The u_q component of the polarization drives the d_{-q} dipole component.
    """
    if abs(mF) > F:
        raise DomainError(f"|mF| = {abs(mF)} exceeds F = {F}")
    omega = field.angular_frequency(species)
    lines = _lines_from(species, F, omega)
    i_nuc = species.nuclear_spin
    total = 0.0
    for tr in lines:
        denom = (omega - tr.angular_frequency) ** 2
        for q in (-1, 0, +1):
            weight = field.polarization.component_weight(q)
            if weight == 0.0:
                continue
            total += weight * _hyperfine_me_sq(tr, i_nuc, F, mF, -q) * tr.decay_rate / denom
    intensity_si = field.intensity * W_PER_CM2_TO_SI
    return intensity_si * MU0 * C_LIGHT / (2.0 * HBAR ** 2) * total


def heating_rate(field: LightField, species: AtomSpecies, F: int, mF: int):
    """Recoil heating rate dT/dt in nK/ms (one per field intensity).

    dT/dt = (2 / 3 k_B) R_s (hbar k)^2 / (2 m), with the photon wavevector
    taken at the driving light frequency.
    """
    rs = scattering_rate(field, species, F, mF)
    k_photon = field.angular_frequency(species) / C_LIGHT
    dT_dt = (2.0 / (3.0 * KB)) * rs * (HBAR * k_photon) ** 2 / (2.0 * species.mass)  # K/s
    return dT_dt * 1.0e6   # K/s -> nK/ms


class ModulationDrive(NamedTuple):
    """Level-modulation drive in rad/s: cosine amplitude and DC offset."""

    amplitude: float
    dc: float


def level_modulation_amplitude(field: LightField, shift_slope: float) -> ModulationDrive:
    """Convert intensity modulation into a level-modulation amplitude.

    The interference of the two beams produces a raised-cosine intensity
    I(t) = I_pk [(1 - d) + d (1 + cos wt)/2] with d = modulation_depth, so a
    differential-shift slope (Hz per W/cm^2, calibrated per state) gives

        amplitude = 2 pi * slope * I_pk * d/2        (the A of the two-level model)
        dc        = 2 pi * slope * I_pk * (1 - d/2)  (static shift of the level)
    """
    if not math.isfinite(shift_slope):
        raise DomainError("shift slope must be finite")
    base = 2.0 * math.pi * shift_slope * field.intensity
    return ModulationDrive(amplitude=base * field.modulation_depth / 2.0,
                           dc=base * (1.0 - field.modulation_depth / 2.0))
