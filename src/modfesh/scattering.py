"""Scattering observables of the modulation-induced resonance.

Effective scattering length a_s = a_BK (1 - Delta_m / (-m w - w0)), the
resonance width built from a calibrated bare coupling, and the dressed-atom
three-channel complex scattering length a = alpha - i beta with its
inelastic-loss scalings.

Scattering lengths are in Bohr radii at every interface; rates and widths in
rad/s.  Internally lengths convert to meters only where a wavenumber enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomdata import A_BOHR, CS_MASS, HBAR
from .errors import DomainError, PoleError
from .specfun import bessel_j

__all__ = [
    "ResonanceModel", "DressedChannelModel", "ScalingResult",
    "scattering_length", "pole_frequency",
    "width_from_coupling", "dressed_alpha_beta", "equivalent_resonance_model",
    "inelastic_channel_scaling", "loss_rate_proxy",
    "K2_COEFF", "K3_COEFF", "UNITARITY_WAVENUMBER",
]

# two-body loss per Bohr radius of beta: 8 pi hbar a0 / mu for cesium pairs
K2_COEFF = 8.0 * math.pi * HBAR * A_BOHR / (CS_MASS / 2.0) * 1e6   # cm^3/s per a0
# three-body loss per a0^4, magnitude typical of cesium condensates
# (~30% loss in 5 ms at 1e13 cm^-3 for a ~ 1000 a0)
K3_COEFF = 8.4e-37                                                         # cm^6/s per a0^4
# thermal-deBroglie-scale collisional wavenumber of a ~100 nK cesium cloud
UNITARITY_WAVENUMBER = 7.0e6                                               # 1/m


@dataclass(frozen=True)
class ResonanceModel:
    """Parameters of the effective scattering-length resonance.

    a_bk: background scattering length (Bohr radii, non-zero)
    delta_m: resonance width (rad/s)
    omega0: resonance position (rad/s), close to the free-to-bound gap omega_b
    m: drive order (negative for bound states, positive for continuum states)
    """

    a_bk: float
    delta_m: float
    omega0: float
    m: int

    def __post_init__(self):
        if self.m == 0:
            raise DomainError("drive order m must be non-zero")
        if self.a_bk == 0:
            raise DomainError("background scattering length must be non-zero")
        if not (math.isfinite(self.a_bk) and math.isfinite(self.delta_m)
                and np.isfinite(self.omega0).all()):
            raise DomainError("a_bk, delta_m and omega0 must be finite")


def scattering_length(model: ResonanceModel, omega):
    """a_s(omega) = a_bk (1 - Delta_m / (-m omega - omega0)) in Bohr radii.

    omega may be a scalar or array (rad/s).  Evaluation exactly on the pole
    raises PoleError carrying the pole frequency.
    """
    omega = np.asarray(omega, dtype=float)
    denom = -model.m * omega - model.omega0
    if np.any(denom == 0.0):
        raise PoleError("scattering length evaluated exactly on the resonance pole",
                        location=pole_frequency(model))
    out = model.a_bk * (1.0 - model.delta_m / denom)
    return float(out) if out.ndim == 0 else out


def pole_frequency(model: ResonanceModel) -> float:
    """Modulation frequency (rad/s) of the divergence: -m w = omega0."""
    return model.omega0 / (-model.m)


def width_from_coupling(matrix_element_sq: float, A: float, omega: float, m: int,
                        a_bk: float, reduced_mass: float) -> float:
    """Resonance width Delta_m in rad/s from the calibrated bare coupling.

    Delta_m = (2 pi)^3 mu / (2 pi hbar^3 a_bk) * |<res|W|in>|^2 * J_m(A/w)^2.

    matrix_element_sq is the squared bare coupling |<phi_res|W|phi_0^(+)>|^2,
    a calibrated scalar (J^2 m^3 with the plane-wave normalization implied
    above); it is a model input, not computed from molecular wavefunctions.
    a_bk in Bohr radii; guarantees Delta_m(A=0, m != 0) = 0.
    """
    if a_bk == 0:
        raise DomainError("background scattering length must be non-zero")
    if omega <= 0:
        raise DomainError("modulation frequency must be positive")
    if matrix_element_sq < 0:
        raise DomainError("squared matrix element must be non-negative")
    prefactor = (2.0 * math.pi) ** 3 * reduced_mass / (2.0 * math.pi * HBAR ** 3 * a_bk * A_BOHR)
    return prefactor * matrix_element_sq * bessel_j(m, A / omega) ** 2


@dataclass(frozen=True)
class DressedChannelModel:
    """Three-channel dressed-atom model of the m-th resonance.

    delta_m parametrizes the elastic coupling through the vanishing-k relation
    Gamma(k)/2 = k a_bk hbar Delta_m (Gamma itself vanishes with k, so the
    k-independent width scale is what the model stores; it carries the
    |J_m(A/w)|^2 drive dependence).  gamma_in is the inelastic coupling as an
    angular rate gamma/hbar.  delta_shift is the drive-induced resonance shift
    delta-omega_m (~ A^(2|m|), prefactor calibrated).
    """

    a_bk: float          # Bohr radii
    delta_m: float       # rad/s, elastic width scale
    gamma_in: float      # rad/s, inelastic coupling gamma/hbar
    omega_b: float       # rad/s, binding energy of the bound state
    delta_shift: float   # rad/s, resonance shift
    m: int

    def __post_init__(self):
        if self.m == 0:
            raise DomainError("drive order m must be non-zero")
        if self.delta_m < 0:
            raise DomainError("elastic width scale must be non-negative")
        if self.gamma_in < 0:
            raise DomainError("inelastic coupling must be non-negative")


def dressed_alpha_beta(model: DressedChannelModel, omega, k: float = 0.0):
    """Real and imaginary parts (alpha, beta) of a = alpha - i beta, in Bohr radii.

    Detuning Delta = omega_b - m omega - delta_shift.  At k = 0 the exact
    vanishing-k limit is returned:

        alpha = a_bk (1 + Delta_m Delta / (Delta^2 + gamma^2/4))
        beta  = a_bk Delta_m (gamma/2) / (Delta^2 + gamma^2/4)

    For k > 0 (k in 1/m) the finite-k expressions are evaluated with Gamma(k)
    from the vanishing-k relation, and the resonance denominator gains the
    collision energy hbar k^2 / (2 mu) in rad/s, mu = CS_MASS / 2 the reduced
    mass of a cesium pair (the pair K2_COEFF and UNITARITY_WAVENUMBER assume).
    """
    omega = np.asarray(omega, dtype=float)
    delta = model.omega_b - model.m * omega - model.delta_shift
    gam = model.gamma_in
    if k < 0:
        raise DomainError("collisional wavenumber must be non-negative")
    if k == 0.0:
        denom = delta ** 2 + 0.25 * gam ** 2
        if np.any(denom == 0.0):
            raise PoleError("dressed scattering length evaluated on the bare pole",
                            location=(model.omega_b - model.delta_shift) / model.m)
        alpha = model.a_bk * (1.0 + model.delta_m * delta / denom)
        if model.delta_m * gam == 0.0:
            beta = np.zeros_like(delta)
        else:
            beta = model.a_bk * model.delta_m * (0.5 * gam) / denom
    else:
        kappa = HBAR * k ** 2 / CS_MASS   # hbar k^2 / (2 mu) with 2 mu = CS_MASS
        gam_el = 2.0 * k * (model.a_bk * A_BOHR) * model.delta_m   # Gamma(k)/hbar, rad/s
        bracket = kappa + delta
        denom_a = bracket ** 2 + 0.25 * gam ** 2 - 0.25 * gam_el ** 2
        denom_b = bracket ** 2 + 0.25 * (gam + gam_el) ** 2
        if np.any(denom_a == 0.0) or np.any(denom_b == 0.0):
            raise PoleError("dressed scattering length denominator vanished",
                            location=None)
        alpha_m = model.a_bk * A_BOHR + (0.5 * gam_el * bracket) / (k * denom_a)
        beta_m = (0.25 * gam_el * gam) / (k * denom_b)
        alpha = alpha_m / A_BOHR
        beta = beta_m / A_BOHR
    if alpha.ndim == 0:
        return float(alpha), float(beta)
    return alpha, beta


def equivalent_resonance_model(model: DressedChannelModel) -> ResonanceModel:
    """The gamma_in -> 0 reduction of the dressed model as a two-channel resonance.

    With m' = -m and omega0 = omega_b - delta_shift the two-channel denominator
    -m' w - omega0 equals minus the dressed detuning Delta, so
    a_bk (1 - Delta_m / (-m' w - omega0)) = a_bk (1 + Delta_m / Delta), the
    gamma_in -> 0 limit of the dressed alpha.  (The m-sign conventions of the
    two pictures are opposite: a bound state is m' < 0 here, m > 0 there.)
    """
    return ResonanceModel(a_bk=model.a_bk, delta_m=model.delta_m,
                          omega0=model.omega_b - model.delta_shift, m=-model.m)


class ScalingResult(NamedTuple):
    exponent: float      # fitted log-log slope of the coupling vs A
    bessel_order: int    # order of the dominant inelastic-channel Bessel factor


def inelastic_channel_scaling(a_grid, m: int, omega_mod: float) -> ScalingResult:
    """Small-drive power law of the lowest-order inelastic channel coupling.

    The inelastic coupling goes as |J_{m+n}(A/w)|^2 with the lowest-order open
    channel n = 1 for m > 0 (absorbing one more quantum) and n = -m for m < 0
    (returning to the incoming sector), hence gamma ~ A^{2(m+1)} for m > 0 and
    ~ A^0 for m < 0.  Returns the fitted exponent over the supplied A grid.
    """
    if m == 0:
        raise DomainError("m must be non-zero")
    if omega_mod <= 0:
        raise DomainError("omega_mod must be positive")
    a = np.asarray(a_grid, dtype=float)
    if a.size < 4:
        raise DomainError("need at least 4 grid points for a stable fit")
    if np.any(a <= 0):
        raise DomainError("A grid must be positive")
    if a.max() / a.min() < 10.0:
        raise DomainError("A grid spans less than a decade; fit would be unstable")
    if a.max() / omega_mod > 0.2:
        raise DomainError("grid leaves the small-drive regime (A/w must stay <= 0.2)")
    n_low = m + 1 if m > 0 else 0
    coupling = np.array([bessel_j(n_low, x / omega_mod) ** 2 for x in a])
    slope, _ = np.polyfit(np.log(a), np.log(coupling), 1)
    return ScalingResult(exponent=float(slope), bessel_order=n_low)


def loss_rate_proxy(alpha, beta, density: float):
    """Per-atom loss rate (1/s) from a two-body and a three-body channel.

    rate = K2_COEFF * beta * n + K3_COEFF * alpha^4 * n^2, with alpha, beta in
    Bohr radii and n in cm^-3, and |alpha| capped at 1/UNITARITY_WAVENUMBER
    (unitarity).  The coefficients are cesium-scale magnitudes, not fitted values.
    """
    if not 0.0 < density < math.inf:
        raise DomainError("density must be positive and finite")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0):
        raise DomainError("beta must be non-negative (inelastic rate positivity)")
    a_max = 1.0 / (UNITARITY_WAVENUMBER * A_BOHR)   # Bohr radii
    alpha = np.clip(alpha, -a_max, a_max)
    rate = K2_COEFF * beta * density + K3_COEFF * alpha ** 4 * density ** 2
    return float(rate) if rate.ndim == 0 else rate
