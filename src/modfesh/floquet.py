"""Driven two-level collisional model: rotating-frame coupling, truncated
Floquet quasi-energy solver, and avoided-crossing gap extraction.

The model is H(t)/hbar = [[omega_alpha, Omega/2], [Omega/2, omega_beta + A cos(w t)]].
The rotating-wave reduction predicts an avoided crossing of gap |Omega J_m(A/w)|
whenever m w approaches -omega_b (omega_b = omega_alpha - omega_beta); the
truncated Floquet matrix is the numerical oracle for that prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import bessel_j

__all__ = [
    "DrivenTwoLevel", "FloquetSolution", "GapResult",
    "effective_coupling", "resonance_frequencies",
    "floquet_spectrum", "avoided_crossing_gap", "minimum_truncation_order",
]

DRIFT_TOLERANCE_FACTOR = 1e-9    # quasi-energy drift per unit omega_mod
MAX_TRUNCATION_ORDER = 220       # keeps the dense matrix below ~900 x 900


@dataclass(frozen=True)
class DrivenTwoLevel:
    """Two levels with a cosine-modulated diagonal. All rates in rad/s."""

    omega_alpha: float
    omega_beta: float
    Omega: float          # bare off-diagonal coupling (hbar Omega / 2 each side)
    A: float              # modulation amplitude on the beta diagonal
    omega_mod: float      # modulation frequency

    def __post_init__(self):
        if self.Omega < 0:
            raise DomainError("Omega must be non-negative")

    @property
    def omega_b(self) -> float:
        return self.omega_alpha - self.omega_beta


def effective_coupling(model: DrivenTwoLevel, m: int) -> float:
    """Signed RWA coupling of the m-th resonance.

    Returns (-1)^m Omega J_m(A/omega_mod); the avoided-crossing gap at the
    m-th resonance is its absolute value.
    """
    if model.omega_mod <= 0:
        raise DomainError("omega_mod must be positive")
    jm = bessel_j(m, model.A / model.omega_mod)
    sign = -1.0 if m % 2 else 1.0
    return sign * model.Omega * jm


def resonance_frequencies(omega_b: float, m_max: int) -> list:
    """Positions of the modulation resonances: (m, omega_res) with m w = -omega_b.

    Bound states (omega_b > 0, level beta below alpha) resonate at negative m,
    continuum states (omega_b < 0) at positive m; magnitudes are the
    fundamental |omega_b| and its integer subharmonics |omega_b|/|m|.
    """
    if omega_b == 0:
        raise DomainError("omega_b must be non-zero")
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    sign = -1 if omega_b > 0 else 1
    return [(sign * k, abs(omega_b) / k) for k in range(1, m_max + 1)]


@dataclass(frozen=True)
class FloquetSolution:
    """Quasi-energy pair of the driven two-level problem.

    quasi_energies: the two physically distinct quasi-energies folded to the
    first Brillouin zone (-w/2, w/2]; pair_energies: the same pair unfolded
    (alpha-like state first), convenient for gap extraction and gauge checks;
    mode_weights[s, l, i]: complex Fourier amplitude of Floquet state s on
    level l (0 = alpha, 1 = beta) and photon number photon_numbers[i].
    """

    quasi_energies: np.ndarray
    pair_energies: np.ndarray
    mode_weights: np.ndarray
    photon_numbers: np.ndarray
    truncation_order: int
    omega_mod: float

    @property
    def gap(self) -> float:
        return abs(float(self.pair_energies[1] - self.pair_energies[0]))


def minimum_truncation_order(model: DrivenTwoLevel) -> int:
    """Truncation rule N >= 3 ceil(|A|/w) + 5 (Bessel weights die past n ~ A/w)."""
    return 3 * int(math.ceil(abs(model.A) / model.omega_mod)) + 5


def _fold_first_zone(energies, omega):
    """Map rad/s values into (-w/2, w/2]."""
    e = np.asarray(energies, dtype=float)
    return e - omega * np.ceil(e / omega - 0.5)


def _solve_pair(model: DrivenTwoLevel, n_order: int):
    """Eigen-solve the truncated Floquet matrix and pick the central pair.

    Basis |level, n> with diagonal omega_level + n w; the drive couples
    |beta, n> <-> |beta, n +- 1> with A/2 and Omega/2 couples the levels at
    equal n.  State 1 is the eigenvector with the largest |<alpha, 0|.>|^2;
    state 2 is the eigenvalue closest to it (its avoided-crossing partner for
    any scan window narrower than the zone width).
    """
    n_ph = np.arange(-n_order, n_order + 1)
    size = 2 * (2 * n_order + 1)
    h = np.zeros((size, size))
    idx_a = 2 * np.arange(2 * n_order + 1)
    idx_b = idx_a + 1
    h[idx_a, idx_a] = model.omega_alpha + n_ph * model.omega_mod
    h[idx_b, idx_b] = model.omega_beta + n_ph * model.omega_mod
    h[idx_a, idx_b] = model.Omega / 2.0
    h[idx_b, idx_a] = model.Omega / 2.0
    h[idx_b[:-1], idx_b[1:]] = model.A / 2.0
    h[idx_b[1:], idx_b[:-1]] = model.A / 2.0
    evals, evecs = np.linalg.eigh(h)

    i_zero = n_order   # photon sector n = 0
    weight_a0 = np.abs(evecs[2 * i_zero, :]) ** 2
    j1 = int(np.argmax(weight_a0))
    dist = np.abs(evals - evals[j1])
    dist[j1] = np.inf
    j2 = int(np.argmin(dist))
    return evals, evecs, n_ph, (j1, j2)


def floquet_spectrum(model: DrivenTwoLevel, truncation_order: int | None = None) -> FloquetSolution:
    """Quasi-energies of the driven two-level system from the truncated
    Floquet matrix, refining the truncation until the central pair drifts by
    less than 1e-9 * omega_mod between N and N + 5.
    """
    if model.omega_mod <= 0:
        raise DomainError("omega_mod must be positive")
    n_min = minimum_truncation_order(model)
    if truncation_order is None:
        n_order = n_min
    else:
        if truncation_order < n_min:
            raise DomainError(
                f"truncation_order {truncation_order} below the required minimum {n_min}")
        n_order = int(truncation_order)
    if n_order > MAX_TRUNCATION_ORDER:   # checked before any matrix is built
        raise DomainError(f"truncation order {n_order} exceeds {MAX_TRUNCATION_ORDER} "
                          f"(|A|/omega_mod = {abs(model.A) / model.omega_mod:.3g} is too large)")

    drift_tol = DRIFT_TOLERANCE_FACTOR * model.omega_mod
    drifts = []
    while True:
        evals, evecs, n_ph, (j1, j2) = _solve_pair(model, n_order)
        pair = np.array([evals[j1], evals[j2]])
        evals5, _, _, (k1, k2) = _solve_pair(model, n_order + 5)
        pair5 = np.array([evals5[k1], evals5[k2]])
        drift = float(np.max(np.abs(pair - pair5)))
        drifts.append((n_order, drift))
        if drift < drift_tol:
            break
        n_order *= 2
        if n_order > MAX_TRUNCATION_ORDER:
            raise ConvergenceError(
                "Floquet truncation did not converge "
                f"(last drift {drift:.3e} rad/s at N = {drifts[-1][0]})",
                last=drifts[-1][0],
                diagnostics={"drifts": drifts, "tolerance": drift_tol})

    n_states = 2 * n_ph.size
    weights = np.empty((2, 2, n_ph.size), dtype=complex)
    for s, j in enumerate((j1, j2)):
        vec = evecs[:, j]
        weights[s, 0, :] = vec[0:n_states:2]   # alpha amplitudes vs photon number
        weights[s, 1, :] = vec[1:n_states:2]   # beta amplitudes
    return FloquetSolution(
        quasi_energies=_fold_first_zone(pair, model.omega_mod),
        pair_energies=pair,
        mode_weights=weights,
        photon_numbers=n_ph,
        truncation_order=n_order,
        omega_mod=model.omega_mod,
    )


class GapResult(NamedTuple):
    gap: float       # rad/s
    center: float    # rad/s, modulation frequency of minimum splitting


# Relative x-tolerance of the gap search.  Near the minimum gap^2 is flat and
# its rounding noise lets Brent's parabolic steps wander once the bracket is
# much narrower than this; a few 1e-9 is the finest position gap^2 resolves.
GAP_XTOL_REL = 3e-9
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


def _brent_minimize(f, a: float, b: float, x: float):
    """Minimize f on [a, b] from the start point x (Forsythe-Malcolm-Moler fmin).

    Parabolic interpolation through the three best points, safeguarded by
    golden-section steps (Brent 1973, ch. 5).  Stops once every point of the
    bracket lies within 2 GAP_XTOL_REL |x| of x; returns (x, f(x)).
    """
    v = w = x
    fv = fw = fx = f(x)
    d = e = 0.0    # the last step and the one before it
    while True:
        xm = 0.5 * (a + b)
        tol1 = GAP_XTOL_REL * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def avoided_crossing_gap(model: DrivenTwoLevel, m: int, scan_window) -> GapResult:
    """Minimum quasi-energy splitting of the m-th resonance over a frequency window.

    scan_window = (w_lo, w_hi) in rad/s must bracket the expected resonance
    w_expect = -omega_b / m.  Near an isolated avoided crossing the two-level
    form gives gap^2 ~ g^2 + m^2 (w - w_c)^2, a parabola in w, so a Brent
    minimization of gap^2 started at w_expect lands on the center w_c in a
    handful of eigensolves.  The truncation order is fixed once, at the window
    center.  The center is located to a relative tolerance of GAP_XTOL_REL.

    Raises DomainError for an invalid window or m = 0, for a window that does
    not bracket w_expect, and when the minimizer ends within its tolerance of
    a window edge (no interior minimum in the window).
    """
    w_lo, w_hi = scan_window
    if not (w_lo > 0 and w_hi > w_lo):
        raise DomainError("scan window must satisfy 0 < w_lo < w_hi")
    if m == 0:
        raise DomainError("m must be non-zero")
    w_expect = -model.omega_b / m
    if not (w_lo <= w_expect <= w_hi):
        raise DomainError(
            f"window [{w_lo}, {w_hi}] does not bracket the expected resonance {w_expect}")

    # fix the truncation once, at the window center, with the +5 margin the
    # drift check already validated
    center_model = replace(model, omega_mod=0.5 * (w_lo + w_hi))
    n_order = floquet_spectrum(center_model).truncation_order + 5

    def gap_squared(w: float) -> float:
        evals, _, _, (j1, j2) = _solve_pair(replace(model, omega_mod=w), n_order)
        return float(evals[j2] - evals[j1]) ** 2

    w_min, gap2 = _brent_minimize(gap_squared, w_lo, w_hi, w_expect)
    edge_tol = 2.0 * GAP_XTOL_REL * w_min
    if w_min - w_lo <= edge_tol or w_hi - w_min <= edge_tol:
        raise DomainError("no interior minimum bracketed by the scan window")
    return GapResult(gap=math.sqrt(gap2), center=w_min)
