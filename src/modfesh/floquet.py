"""Driven two-level collisional model: rotating-frame coupling, Floquet
quasi-energies from the one-period propagator, and avoided-crossing gap
extraction.

The model is H(t)/hbar = [[omega_alpha, Omega/2], [Omega/2, omega_beta + A cos(w t)]].
The rotating-wave reduction predicts an avoided crossing of gap |Omega J_m(A/w)|
whenever m w approaches -omega_b (omega_b = omega_alpha - omega_beta); the
eigenphases of the exact propagator over one drive period are the numerical
oracle for that prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .specfun import bessel_j

__all__ = [
    "DrivenTwoLevel", "FloquetSolution", "GapResult",
    "effective_coupling", "resonance_frequencies",
    "floquet_spectrum", "avoided_crossing_gap",
]

STEP_BLOCK = 32                  # Magnus steps per turn of the coupling phase
MAX_PROPAGATOR_STEPS = 1 << 16   # keeps each step array below ~1 MB
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)


@dataclass(frozen=True)
class DrivenTwoLevel:
    """Two levels with a cosine-modulated diagonal. All rates in rad/s."""

    omega_alpha: float
    omega_beta: float
    Omega: float          # bare off-diagonal coupling (hbar Omega / 2 each side)
    A: float              # modulation amplitude on the beta diagonal
    omega_mod: float      # modulation frequency

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega_alpha, self.omega_beta, self.Omega,
                                       self.A, self.omega_mod))):
            raise DomainError("model parameters must be finite")
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
    """Quasi-energy pair of the driven two-level problem: quasi_energies folded
    to the first Brillouin zone (-w/2, w/2] and sorted; gap, their shorter
    distance around the zone (the avoided-crossing splitting)."""

    quasi_energies: np.ndarray
    omega_mod: float
    gap: float


def _step_count(model: DrivenTwoLevel) -> int:
    """STEP_BLOCK ceil(max(2, r) sqrt(max(1, Omega/(0.02 w))) max(1, Omega/w)^(1/4))
    Magnus steps per period; r = (|omega_b| + |A|)/w counts the phase's turns.

    The Magnus-4 error grows as Omega^2 h^4, and as Omega^3 h^4 once Omega > w;
    the two Omega factors hold it near 1e-10 w.  Raises DomainError above
    MAX_PROPAGATOR_STEPS, before any array is built.
    """
    w = model.omega_mod
    if w <= 0:
        raise DomainError("omega_mod must be positive")
    rate = (abs(model.omega_b) + abs(model.A)) / w
    blocks = (max(2.0, rate) * math.sqrt(max(1.0, model.Omega / (0.02 * w)))
              * max(1.0, model.Omega / w) ** 0.25)
    if not blocks <= MAX_PROPAGATOR_STEPS // STEP_BLOCK:
        raise DomainError(f"the drive needs more than {MAX_PROPAGATOR_STEPS} propagator steps "
                          f"((|omega_b| + |A|)/w = {rate:.3g}, Omega/w = {model.Omega / w:.3g})")
    return STEP_BLOCK * math.ceil(blocks)


def _interaction_propagator(model: DrivenTwoLevel, steps: int):
    """U_I(T) = [[a, b], [-b*, a*]] in the interaction picture of the diagonal,
    where H_I = (Omega/2)(cos theta sx - sin theta sy), theta = omega_b t - (A/w) sin wt.

    Each step is one two-point Gauss-Legendre Magnus-4 exponential exp(-i v.sigma)
    in closed form (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)); the
    steps are multiplied by pairwise reduction, later steps on the left.
    """
    w = model.omega_mod
    h = 2.0 * math.pi / w / steps
    theta = h * (np.arange(steps)[:, None] + _GAUSS_NODES)
    theta = model.omega_b * theta - (model.A / w) * np.sin(w * theta)
    hg = 0.5 * h * model.Omega
    vx = 0.5 * hg * np.cos(theta).sum(axis=1)
    vy = -0.5 * hg * np.sin(theta).sum(axis=1)
    vz = (-math.sqrt(3.0) / 6.0 * hg * hg) * np.sin(theta[:, 0] - theta[:, 1])
    norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    sinc = np.sinc(norm / math.pi)
    a, b = np.cos(norm) - 1j * vz * sinc, -(vy + 1j * vx) * sinc
    while a.size > 1:
        n = a.size - a.size % 2          # an odd last step waits for the next round
        a0, b0, a1, b1 = a[0:n:2], b[0:n:2], a[1:n:2], b[1:n:2]
        a, b = (np.concatenate((a1 * a0 - b1 * b0.conj(), a[n:])),
                np.concatenate((a1 * b0 + b1 * a0.conj(), b[n:])))
    return complex(a[0]), complex(b[0])


def _spectrum(model: DrivenTwoLevel, steps: int) -> FloquetSolution:
    """U(T) = diag(exp(-i omega_alpha T), exp(-i omega_beta T)) U_I(T) has the
    eigenvalues lambda = exp(-i s T -+ i phi), s the mean level, so the
    quasi-energies -arg(lambda)/T are s +- phi/T.  atan2 keeps phi and the gap
    precise when the gap is small.
    """
    w = model.omega_mod
    period = 2.0 * math.pi / w
    a, b = _interaction_propagator(model, steps)
    p = complex(np.exp(-0.5j * model.omega_b * period) * a)
    sin_phi = math.hypot(p.imag, abs(b))
    e = (0.5 * (model.omega_alpha + model.omega_beta)
         + np.array([-1.0, 1.0]) * math.atan2(sin_phi, p.real) / period)
    return FloquetSolution(quasi_energies=np.sort(e - w * np.ceil(e / w - 0.5)), omega_mod=w,
                           gap=2.0 * math.atan2(sin_phi, abs(p.real)) / period)


def floquet_spectrum(model: DrivenTwoLevel) -> FloquetSolution:
    """Quasi-energies of the driven two-level system: the eigenphases of its
    one-period propagator (Shirley, Phys. Rev. 138, B979 (1965))."""
    return _spectrum(model, _step_count(model))


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
    handful of propagator builds.  The step count is fixed once, at the window's
    low edge where the phase turns fastest, so gap^2(w) is smooth.  The center
    is located to a relative tolerance of GAP_XTOL_REL.

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

    steps = _step_count(replace(model, omega_mod=w_lo))

    def gap_squared(w: float) -> float:
        return _spectrum(replace(model, omega_mod=w), steps).gap ** 2

    w_min, gap2 = _brent_minimize(gap_squared, w_lo, w_hi, w_expect)
    edge_tol = 2.0 * GAP_XTOL_REL * w_min
    if w_min - w_lo <= edge_tol or w_hi - w_min <= edge_tol:
        raise DomainError("no interior minimum bracketed by the scan window")
    return GapResult(gap=math.sqrt(gap2), center=w_min)
