"""Scattering observables of the modulation-induced resonance.

Effective scattering length a_s = a_BK (1 - Delta_m / (-m w - w0)), the
resonance width built from a calibrated bare coupling, the dressed-atom
three-channel complex scattering length a = alpha - i beta with its
inelastic-loss scalings, and the three-body loss rate of the synthetic spectra.

Scattering lengths are in Bohr radii at every interface; rates and widths in
rad/s.  Internally lengths convert to meters only where a wavenumber enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomdata import A_BOHR, CS_MASS, HBAR
from .errors import DomainError, PoleError
from .specfun import bessel_j

__all__ = [
    "ResonanceModel", "DressedChannelModel",
    "scattering_length", "pole_frequency",
    "width_from_coupling", "dressed_alpha_beta",
    "inelastic_channel_scaling", "loss_rate_proxy",
    "K3_COEFF", "UNITARITY_WAVENUMBER",
]

# three-body loss per a0^4, magnitude typical of cesium condensates
# (~30% loss in 5 ms at 1e13 cm^-3 for a ~ 1000 a0)
K3_COEFF = 8.4e-37                                                         # cm^6/s per a0^4
# thermal-deBroglie-scale collisional wavenumber of a ~100 nK cesium cloud
UNITARITY_WAVENUMBER = 7.0e6                                               # 1/m


def _check_model(model, finite_fields: tuple) -> None:
    """The checks both resonance models make: DomainError for a drive order
    m = 0, a_bk = 0, or a field named in finite_fields that is not finite."""
    if model.m == 0:
        raise DomainError("drive order m must be non-zero")
    if model.a_bk == 0:
        raise DomainError("background scattering length must be non-zero")
    if not all(np.isfinite(getattr(model, name)).all() for name in finite_fields):
        raise DomainError(f"{', '.join(finite_fields[:-1])} and {finite_fields[-1]} "
                          "must be finite")


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
        _check_model(self, ("a_bk", "delta_m", "omega0"))


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
                        a_bk: float) -> float:
    """Resonance width Delta_m in rad/s from the calibrated bare coupling.

    Delta_m = (2 pi)^3 mu / (2 pi hbar^3 a_bk) * |<res|W|in>|^2 * J_m(A/w)^2.

    matrix_element_sq is the squared bare coupling |<phi_res|W|phi_0^(+)>|^2,
    a calibrated scalar (J^2 m^3 with the plane-wave normalization implied
    above); it is a model input, not computed from molecular wavefunctions.
    mu = CS_MASS / 2 (a cesium pair), a_bk in Bohr radii; Delta_m(A=0, m != 0) = 0.
    """
    if a_bk == 0:
        raise DomainError("background scattering length must be non-zero")
    if omega <= 0:
        raise DomainError("modulation frequency must be positive")
    if matrix_element_sq < 0:
        raise DomainError("squared matrix element must be non-negative")
    prefactor = (2.0 * math.pi) ** 3 * (CS_MASS / 2) / (2.0 * math.pi * HBAR ** 3 * a_bk * A_BOHR)
    return prefactor * matrix_element_sq * bessel_j(m, A / omega) ** 2


@dataclass(frozen=True)
class DressedChannelModel:
    """Three-channel dressed-atom model of the m-th resonance.

    delta_m parametrizes the elastic coupling through the vanishing-k relation
    Gamma(k)/2 = k a_bk hbar Delta_m.  Gamma itself vanishes with k, so the
    model stores the k-independent width scale, and dressed_alpha_beta needs
    only Gamma/k, which stays finite at k = 0; delta_m carries the
    |J_m(A/w)|^2 drive dependence.  gamma_in is the inelastic coupling as an
    angular rate gamma/hbar.  delta_shift is the drive-induced resonance shift
    delta-omega_m (~ A^(2|m|), prefactor calibrated).

    At gamma_in = 0 alpha is the scattering length of ResonanceModel(a_bk,
    delta_m, omega_b - delta_shift, -m): a bound state has m > 0 here, m < 0 there.
    """

    a_bk: float          # Bohr radii
    delta_m: float       # rad/s, elastic width scale
    gamma_in: float      # rad/s, inelastic coupling gamma/hbar
    omega_b: float       # rad/s, binding energy of the bound state
    delta_shift: float   # rad/s, resonance shift
    m: int

    def __post_init__(self):
        _check_model(self, ("a_bk", "delta_m", "gamma_in", "omega_b", "delta_shift"))
        if self.delta_m < 0:
            raise DomainError("elastic width scale must be non-negative")
        if self.gamma_in < 0:
            raise DomainError("inelastic coupling must be non-negative")


def dressed_alpha_beta(model: DressedChannelModel, omega, k: float = 0.0):
    """Real and imaginary parts (alpha, beta) of a = alpha - i beta, in Bohr radii.

    With Delta = omega_b - m omega - delta_shift, the collision energy
    kappa = hbar k^2 / (2 mu) in rad/s (k in 1/m; mu = CS_MASS / 2, the reduced
    mass of the cesium pair UNITARITY_WAVENUMBER assumes), B = kappa + Delta
    and the elastic width Gamma(k)/hbar = 2 k a_bk Delta_m (a_bk in meters):

        alpha = a_bk (1 + Delta_m B / (B^2 + gamma^2/4 - Gamma^2/4))
        beta  = a_bk Delta_m (gamma/2) / (B^2 + (gamma + Gamma)^2/4)

    One expression for every k >= 0: at k = 0 it is the exact vanishing-k
    limit, both denominators Delta^2 + gamma^2/4.  A zero beta is +0.0.
    """
    if k < 0:
        raise DomainError("collisional wavenumber must be non-negative")
    omega = np.asarray(omega, dtype=float)
    delta = model.omega_b - model.m * omega - model.delta_shift
    gam = model.gamma_in
    bracket = HBAR * k ** 2 / CS_MASS + delta   # kappa + Delta, 2 mu = CS_MASS
    gam_el = 2.0 * k * (model.a_bk * A_BOHR) * model.delta_m   # Gamma(k)/hbar, rad/s
    # a product, not ** 2: a numpy scalar's ** rounds apart from an array's
    denom_a = bracket * bracket + 0.25 * gam ** 2 - 0.25 * gam_el ** 2
    denom_b = bracket * bracket + 0.25 * (gam + gam_el) ** 2
    if np.any(denom_a == 0.0) or np.any(denom_b == 0.0):
        raise PoleError("dressed scattering length denominator vanished")
    alpha = model.a_bk * (1.0 + model.delta_m * bracket / denom_a)
    beta = model.a_bk * model.delta_m * (0.5 * gam) / denom_b + 0.0   # + 0.0: no -0.0
    return (float(alpha), float(beta)) if alpha.ndim == 0 else (alpha, beta)


def inelastic_channel_scaling(a_grid, m: int, omega_mod: float) -> float:
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
    return float(slope)


def loss_rate_proxy(alpha, density: float):
    """Per-atom three-body loss rate (1/s), K3_COEFF alpha^4 n^2, with alpha in
    Bohr radii capped at 1/UNITARITY_WAVENUMBER (unitarity) and n in cm^-3.
    K3_COEFF is a cesium-scale magnitude, not a fitted value."""
    if not 0.0 < density < math.inf:
        raise DomainError("density must be positive and finite")
    alpha = np.asarray(alpha, dtype=float)
    a_max = 1.0 / (UNITARITY_WAVENUMBER * A_BOHR)   # Bohr radii
    alpha = np.clip(alpha, -a_max, a_max)
    rate = K3_COEFF * np.power(alpha, 4) * density ** 2   # the ufunc: scalars round as arrays
    return float(rate) if rate.ndim == 0 else rate
