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

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import bessel_j

__all__ = [
    "DrivenTwoLevel", "FloquetSolution", "GapResult",
    "effective_coupling", "resonance_frequencies",
    "floquet_spectrum", "avoided_crossing_gap",
]

STEP_BLOCK = 32                  # Magnus steps per turn of the coupling phase
MAX_PROPAGATOR_STEPS = 1 << 16   # keeps a frequency's step arrays below ~1 MB
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
    if omega_b == 0 or math.isnan(omega_b):
        raise DomainError("omega_b must be non-zero and not NaN")
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
    gap: float


def _step_count(model: DrivenTwoLevel, w: float) -> int:
    """STEP_BLOCK ceil(max(2, r) sqrt(max(1, Omega/(0.02 w))) max(1, Omega/w)^(1/4))
    Magnus steps per period of the modulation frequency w; r = (|omega_b| + |A|)/w
    counts the phase's turns.

    The Magnus-4 error grows as Omega^2 h^4, and as Omega^3 h^4 once Omega > w;
    the two Omega factors hold it near 1e-10 w.  Raises DomainError above
    MAX_PROPAGATOR_STEPS, before any array is built.
    """
    if w <= 0:
        raise DomainError("omega_mod must be positive")
    rate = (abs(model.omega_b) + abs(model.A)) / w
    blocks = (max(2.0, rate) * math.sqrt(max(1.0, model.Omega / (0.02 * w)))
              * max(1.0, model.Omega / w) ** 0.25)
    if not blocks <= MAX_PROPAGATOR_STEPS // STEP_BLOCK:
        raise DomainError(f"the drive needs more than {MAX_PROPAGATOR_STEPS} propagator steps "
                          f"((|omega_b| + |A|)/w = {rate:.3g}, Omega/w = {model.Omega / w:.3g})")
    return STEP_BLOCK * math.ceil(blocks)


@functools.lru_cache(maxsize=1)
def _drive_phase(steps: int):
    """Read-only (tau, sin tau), (steps/2, 2) each: the drive phase tau = w t at the
    Gauss nodes of the first half period's steps k, 2 pi (k + node)/steps, so a gap
    search tabulates it once."""
    tau = (2.0 * math.pi / steps) * (np.arange(steps // 2)[:, None] + _GAUSS_NODES)
    sin_tau = np.sin(tau)
    tau.flags.writeable = sin_tau.flags.writeable = False
    return tau, sin_tau


def _interaction_propagators(model: DrivenTwoLevel, steps: int, ws):
    """Yield (a, b) for each modulation frequency w in ws: U_I(T) = [[a, b], [-b*, a*]]
    in the interaction picture of the diagonal, where H_I = (Omega/2)(cos theta sx -
    sin theta sy), theta = omega_b t - (A/w) sin wt.

    Each step is one two-point Gauss-Legendre Magnus-4 exponential exp(-i v.sigma) in
    closed form (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), from theta =
    (omega_b/w) tau - (A/w) sin tau at its nodes (phase table _drive_phase(steps)) and
    z = exp(i theta): vx - i vy = (hg/2)(z0 + z1), sin(theta0 - theta1) = Im z0 z1*.
    The first half period's steps/2 steps, for every w at once, are multiplied pairwise
    along the step axis, later on the left, over rows padded with identity steps to a
    power of two (exact: an odd last step waits a round as unpadded), and each row's
    last 16 in order as Python complex numbers: there numpy's call cost dominates.
    theta(T - t) = omega_b T - theta(t), and the Gauss nodes are symmetric, so for even
    steps U_I(T) = R U_I(T/2)^T R† U_I(T/2) with R = exp(i omega_b T sz/2).
    """
    w = np.asarray(ws, float)[:, None, None]
    tau, sin_tau = _drive_phase(steps)
    z0, z1 = np.exp(1j * ((model.omega_b / w) * tau - (model.A / w) * sin_tau)).transpose(2, 0, 1)
    hg = math.pi / w[..., 0] / steps * model.Omega    # h Omega / 2, h = T / steps
    ib = (-0.5j * hg) * (z0 + z1)                                   # -i (vx - i vy)
    minus_vz = (math.sqrt(3.0) / 6.0 * hg * hg) * (z0 * z1.conj()).imag
    norm = np.sqrt(ib.real ** 2 + ib.imag ** 2 + minus_vz ** 2)
    sinc = np.divide(np.sin(norm), norm, out=np.ones_like(norm), where=norm > 0)
    half = steps // 2
    size = 1 << (half - 1).bit_length()
    a, b = np.ones((len(ws), size), complex), np.zeros((len(ws), size), complex)
    np.cos(norm, out=a.real[:, :half])              # a = cos|v| - i vz sinc|v|
    np.multiply(minus_vz, sinc, out=a.imag[:, :half])
    np.multiply(ib, sinc, out=b[:, :half])          # b = -i (vx - i vy) sinc|v|
    while a.shape[1] > 16:
        a0, b0, a1, b1 = a[:, 0::2], b[:, 0::2], a[:, 1::2], b[:, 1::2]
        a, b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
    for w, row_a, row_b in zip(ws, a.tolist(), b.tolist()):
        u_a, u_b = 1.0, 0.0
        for a1, b1 in zip(row_a, row_b):
            u_a, u_b = a1 * u_a - b1 * u_b.conjugate(), a1 * u_b + b1 * u_a.conjugate()
        phase = cmath.exp(2j * math.pi * model.omega_b / w)          # exp(i omega_b T)
        yield u_a * u_a + phase * u_b.conjugate() ** 2, u_a * u_b - phase * (u_b * u_a).conjugate()


def _phases(model: DrivenTwoLevel, steps: int, ws):
    """Yield (phi, gap) at each modulation frequency w in ws.

    U(T) = diag(exp(-i omega_alpha T), exp(-i omega_beta T)) U_I(T) has the
    eigenvalues lambda = exp(-i s T -+ i phi T), s the mean level, so the
    quasi-energies -arg(lambda)/T are s +- phi; gap is their shorter distance
    around the zone.  atan2 keeps phi and the gap precise when the gap is small."""
    for w, (a, b) in zip(ws, _interaction_propagators(model, steps, ws)):
        period = 2.0 * math.pi / w
        p = cmath.exp(-0.5j * model.omega_b * period) * a
        sin_phi = math.hypot(p.imag, abs(b))
        yield (math.atan2(sin_phi, p.real) / period,
               2.0 * math.atan2(sin_phi, abs(p.real)) / period)


def floquet_spectrum(model: DrivenTwoLevel) -> FloquetSolution:
    """Quasi-energies of the driven two-level system: the eigenphases of its
    one-period propagator (Shirley, Phys. Rev. 138, B979 (1965))."""
    w = model.omega_mod
    (phi, gap), = _phases(model, _step_count(model, w), [w])
    s = 0.5 * (model.omega_alpha + model.omega_beta)
    e = sorted(x - w * np.ceil(x / w - 0.5) for x in (s - phi, s + phi))
    return FloquetSolution(quasi_energies=np.array(e), gap=gap)


class GapResult(NamedTuple):
    gap: float       # rad/s
    center: float    # rad/s, modulation frequency of minimum splitting


# Relative x-tolerance of the gap search: it stops once two successive parabola
# vertices agree to GAP_XTOL_REL, or to 4 sqrt(eps gap^2/curv) if wider.  gap^2 is flat
# near its minimum: its rounding noise, ~eps gap^2, moves the vertex of a parabola of
# curvature curv by ~sqrt(eps gap^2/curv), a few 1e-9 relative or more.
GAP_XTOL_REL = 3e-9
GAP_STEP_REL = 1e-4      # the starting points w_expect +- GAP_STEP_REL w_expect
GAP_MAX_BUILDS = 64      # propagator builds before a gap search gives up


def avoided_crossing_gap(model: DrivenTwoLevel, m: int, scan_window) -> GapResult:
    """Minimum quasi-energy splitting of the m-th resonance over a frequency window.

    scan_window = (w_lo, w_hi) in rad/s must bracket the expected resonance
    w_expect = -omega_b / m.  Near an isolated avoided crossing the two-level
    form gives gap^2 ~ g^2 + m^2 (w - w_c)^2, a parabola in w, so successive
    parabolic interpolation of gap^2 lands on the center w_c in about four
    propagator builds: three at w_expect and w_expect +- GAP_STEP_REL w_expect
    (moved into the window), made in one builder call, then one at each vertex,
    keeping the three points nearest it.  Where the parabola is not convex or its
    vertex leaves the window, the next point is the window edge past the lower end
    point.  The vertex is checked after every build: two successive vertices that
    agree to max(GAP_XTOL_REL w, 4 sqrt(eps gap^2/curv)) end the search, which
    reports the last one and the parabola's value there.  The step count is fixed
    once, at the window's low edge where the phase turns fastest, so gap^2(w) is
    smooth and every build reads one half-period drive-phase table.

    Raises DomainError for an invalid window or m = 0, for a window that does
    not bracket w_expect, and when the minimum lies within 2 GAP_XTOL_REL of a
    window edge (no interior minimum in the window); ConvergenceError when the
    vertex has not settled after GAP_MAX_BUILDS builds.
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

    steps = _step_count(model, w_lo)

    def gap_squared(ws) -> dict:
        return {w: gap ** 2 for w, (_, gap) in zip(ws, _phases(model, steps, ws))}

    def at_edge(w: float, edge: float) -> bool:
        return abs(w - edge) <= 2.0 * GAP_XTOL_REL * w

    h = min(GAP_STEP_REL * w_expect, 0.5 * (w_hi - w_lo))
    mid = min(max(w_expect, w_lo + h), w_hi - h)
    seen = gap_squared([mid - h, mid, mid + h])
    vertex, u = math.nan, mid
    for _ in range(GAP_MAX_BUILDS - len(seen) + 1):   # at most one build a pass
        if u not in seen:
            seen.update(gap_squared([u]))
        x0, x1, x2 = sorted(sorted(seen, key=lambda w: abs(w - u))[:3])
        f0, f1, f2 = seen[x0], seen[x1], seen[x2]
        s01, s12 = (f1 - f0) / (x1 - x0), (f2 - f1) / (x2 - x1)
        curv = (s12 - s01) / (x2 - x0)
        u = 0.5 * (x0 + x1 - s01 / curv) if curv > 0 else math.nan
        if w_lo < u < w_hi:
            gap2 = max(f0 + s01 * (u - x0) + curv * (u - x0) * (u - x1), 0.0)
            if abs(u - vertex) <= max(GAP_XTOL_REL * u,
                                      4.0 * math.sqrt(math.ulp(1.0) * gap2 / curv)):
                if at_edge(u, w_lo) or at_edge(u, w_hi):
                    break
                return GapResult(gap=math.sqrt(gap2), center=u)
            vertex = u
        else:
            best, edge = (x0, w_lo) if f0 < f2 else (x2, w_hi)
            if at_edge(best, edge):
                break
            u, vertex = edge, math.nan
    else:
        raise ConvergenceError(
            f"gap search did not converge in {len(seen)} propagator builds")
    raise DomainError("no interior minimum bracketed by the scan window")
