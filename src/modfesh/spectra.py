"""Loss-spectroscopy pipeline: synthetic spectra, peak finding, line-shape
fits, DC-shift compensation, and assembly of the binding-energy map.

Synthetic spectra use the forward model N_m/N_0 = exp(-(rate - rate_bg) t)
with the loss rate from ``scattering.loss_rate_proxy`` evaluated on the
composite scattering length a_bk - sum a_bk Delta_m / (-m w - omega0) of the
supplied ``ResonanceModel``s; the background rate at a_s = a_bk normalizes
the far-off-resonance baseline to 1.  Noise is
Gaussian, seedable through numpy's PCG64 ``default_rng`` (documented here for
cross-run reproducibility; identical seeds give bit-identical spectra).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomdata import MolecularState, molecular_energy
from .errors import ConfigError, ConvergenceError, DomainError
from .fitting import LeastSquaresFit, _covariance, levenberg_marquardt, weighted_linear_fit
from .keyvalue import finite, parse_fields, read_text, write_text
from .scattering import ResonanceModel, loss_rate_proxy

__all__ = [
    "AXIS_FREQ", "AXIS_FIELD", "SCHEMA_VERSION",
    "Spectrum", "FanoFit", "LandauZenerFit", "EnergyMapPoint",
    "fano_profile", "synthesize_spectrum", "synthesize_field_scan",
    "find_peaks", "fit_fano", "fit_landau_zener",
    "assemble_energy_map",
    "write_spectrum", "read_spectrum_csv", "read_csv_rows",
    "render", "render_json",
    "read_spectrum_json",
]

AXIS_FREQ = "modulation_freq_Hz"
AXIS_FIELD = "field_Gauss"
SCHEMA_VERSION = 1

RELATIVE_ATOMS_MAX = 1.2
M_ORDER_RATIO_TOLERANCE = 0.03   # peak-ratio tolerance for m-order assignment
M_ORDER_MAX = 3                  # highest drive order |m| tried in the assignment
Q_SYMMETRIC = 2.0 / np.finfo(float).eps   # Fano q of a symmetric dip (see FanoFit)


@dataclass
class Spectrum:
    """Sampled relative-atom-number curve N_m/N_0 versus one axis."""

    axis: str
    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.axis not in (AXIS_FREQ, AXIS_FIELD):
            raise DomainError(f"unknown axis {self.axis!r}")
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if not (self.x.size == self.y.size == self.sigma.size):
            raise DomainError("x, y, sigma must have equal length")
        if not all(np.isfinite(v).all() for v in (self.x, self.y, self.sigma)):
            raise DomainError("x, y and sigma must be finite")
        if np.any(self.sigma < 0):
            raise DomainError("sigma must be non-negative")
        if np.any(self.y < 0) or np.any(self.y > RELATIVE_ATOMS_MAX):
            raise DomainError(f"relative atom numbers must lie in [0, {RELATIVE_ATOMS_MAX}]")
        order = np.argsort(self.x, kind="stable")
        self.x = self.x[order]
        self.y = self.y[order]
        self.sigma = self.sigma[order]

    def __len__(self) -> int:
        return self.x.size


# ---------------------------------------------------------------------------
# Forward model
# ---------------------------------------------------------------------------

def _loss_spectrum(axis, x, resonances, omega, *, hold_time, density, noise_sigma, seed,
                   metadata) -> Spectrum:
    """N_m/N_0 on the increasing grid x, drive omega (rad/s) per point: each
    resonance's deviation adds on the first one's a_bk (an exact pole's +-inf is
    clipped by loss_rate_proxy's unitarity cap); then seeded noise and clipping."""
    if x.size < 2 or np.any(np.diff(x) <= 0):
        raise DomainError("scan grid must have at least 2 increasing points")
    if hold_time <= 0:
        raise DomainError("hold time must be positive")
    if not resonances:
        raise DomainError("need at least one resonance model")
    a_bk = resonances[0].a_bk
    alpha = np.full_like(omega, a_bk, dtype=float)
    for model in resonances:
        if model.delta_m != 0.0:
            with np.errstate(divide="ignore"):
                alpha -= model.a_bk * model.delta_m / (-model.m * omega - model.omega0)
    rate = loss_rate_proxy(alpha, density) - loss_rate_proxy(a_bk, density)
    y = np.exp(-rate * hold_time)
    if noise_sigma > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_sigma, size=y.size)
    meta = {"hold_time_ms": hold_time * 1e3, "density_cm3": density,
            "noise_sigma": noise_sigma, "seed": seed, **(metadata or {})}
    return Spectrum(axis, x, np.clip(y, 0.0, RELATIVE_ATOMS_MAX),
                    np.full_like(y, float(noise_sigma)), meta)


def synthesize_spectrum(resonances, grid_hz, *, hold_time: float = 5e-3,
                        density: float = 1e13, noise_sigma: float = 0.0, seed=None,
                        metadata: dict | None = None) -> Spectrum:
    """Loss spectrum versus modulation frequency (grid in Hz, increasing) of
    ResonanceModels that share the background scattering length of the first."""
    grid_hz = np.asarray(grid_hz, dtype=float)
    return _loss_spectrum(AXIS_FREQ, grid_hz, list(resonances), 2.0 * math.pi * grid_hz,
                          hold_time=hold_time, density=density,
                          noise_sigma=noise_sigma, seed=seed, metadata=metadata)


def synthesize_field_scan(state: MolecularState, registry, f_mod_hz: float,
                          b_grid, widths_hz, *, a_bk: float = 200.0,
                          dc_shift_hz: float = 0.0, hold_time: float = 5e-3,
                          density: float = 1e13, noise_sigma: float = 0.0, seed=None,
                          metadata: dict | None = None) -> Spectrum:
    """Loss versus magnetic field at fixed modulation frequency.

    widths_hz maps |m| -> resonance width Delta_m/2pi in Hz (calibration
    inputs).  dc_shift_hz displaces the free-to-bound gap uniformly (the DC
    light-shift of the level difference).  Resonances land where the shifted
    |E(B)| equals |m| f_mod on either side of the threshold crossing.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    omega_b = -2.0 * math.pi * (molecular_energy(state, b_grid, registry) + dc_shift_hz)
    # a state below threshold (omega_b > 0) resonates at order -|m|: the
    # denominator -m w - omega0 is the same with the sign moved onto w
    omega = np.where(omega_b > 0, -2.0 * math.pi * f_mod_hz, 2.0 * math.pi * f_mod_hz)
    models = [ResonanceModel(a_bk=a_bk, delta_m=2.0 * math.pi * widths_hz[k],
                             omega0=omega_b, m=k) for k in sorted(widths_hz)]
    return _loss_spectrum(AXIS_FIELD, b_grid, models, omega,
                          hold_time=hold_time, density=density,
                          noise_sigma=noise_sigma, seed=seed,
                          metadata={"modulation_freq_Hz": f_mod_hz, "state": state.label,
                                    **(metadata or {})})


# ---------------------------------------------------------------------------
# Peak finding
# ---------------------------------------------------------------------------

def find_peaks(spec: Spectrum, min_depth: float, min_separation: float) -> list:
    """Loss-dip candidates: local minima below 1 - min_depth, at least
    min_separation apart (axis units).  Returned as x positions ordered by
    depth (deepest first; ties broken toward smaller x)."""
    if len(spec) == 0:
        raise DomainError("empty spectrum")
    x, y = spec.x, spec.y
    inner = y[1:-1]
    dip = np.flatnonzero((inner < y[:-2]) & (inner <= y[2:]) & (inner <= 1.0 - min_depth)) + 1
    candidates = sorted(zip(y[dip].tolist(), x[dip].tolist()))
    kept = []
    for depth_y, xc in candidates:
        if all(abs(xc - xk) >= min_separation for xk in kept):
            kept.append(xc)
    return kept


# ---------------------------------------------------------------------------
# Fano profile fitting
# ---------------------------------------------------------------------------

def fano_profile(x, center, width, q, amplitude, offset):
    """Transmission-dip Fano profile on a flat baseline.

    offset - amplitude (q w/2 + (x-c))^2 / [(1+q^2) ((w/2)^2 + (x-c)^2)]

    The (1+q^2) normalization makes the dip depth exactly ``amplitude``
    (minimum value offset - amplitude, reached at x = c + w/(2q)); the
    baseline far from resonance is offset - amplitude/(1+q^2).
    """
    dx = np.asarray(x, dtype=float) - center
    u = q * width / 2.0 + dx
    # products, not ** 2: a numpy scalar's ** rounds apart from an array's
    return offset - amplitude * (u * u) / ((1.0 + q ** 2) * ((width / 2.0) ** 2 + dx * dx))


@dataclass
class FanoFit(LeastSquaresFit):
    """Fano fit; covariance is 5 x 5 in (center, width, q, amplitude, offset)
    order.  A symmetric (Lorentzian) dip, q = +-inf, is reported with the
    finite q = Q_SYMMETRIC (~9.0e15), which gives the same curve to rounding."""

    center: float
    width: float
    q: float
    amplitude: float
    offset: float
    iterations: int
    stop: str


def _fano_jacobian(x, p):
    """d fano_profile / d(center, width, q, amplitude, offset), n x 5."""
    c, w, q, a, off = p
    h, dx = w / 2.0, x - c
    u, k, d = q * h + dx, 1.0 + q ** 2, h ** 2 + dx ** 2
    g = a * u * (h - q * dx) / (k * d)
    return np.column_stack([2.0 * h * g / d, dx * g / d, -2.0 * g / k, -u ** 2 / (k * d),
                            np.ones_like(dx)])


def _fano_from_linear(b0, b1, b2):
    """(amplitude, q, offset) of fano_profile written as b0 + b1 h^2/d + b2 h dx/d
    (h = w/2, dx = x - c, d = h^2 + dx^2): b0 = offset - a/(1+q^2),
    b1 = -a (q^2-1)/(1+q^2), b2 = -2 a q/(1+q^2)."""
    a = math.hypot(b1, b2)
    if a == 0.0:
        raise DomainError("no dip in the fit window (amplitude 0)")
    if b1 >= 0.0:
        q = -b2 / (b1 + a)
    else:
        q = (b1 - a) / b2 if abs(b2) * Q_SYMMETRIC > a - b1 else Q_SYMMETRIC
    return a, q, b0 + a / (1.0 + q ** 2)


def _fano_initial_guess(x, y):
    """(center, width) from the deepest point and the half-depth crossings."""
    i_min = int(np.argmin(y))
    n_edge = max(2, x.size // 6)
    baseline = float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))
    below = np.nonzero(y < (baseline + float(y[i_min])) / 2.0)[0]
    width = max(x[below[-1]] - x[below[0]], x[1] - x[0]) if below.size >= 2 else (x[-1] - x[0]) / 6
    return np.array([x[i_min], width])


def fit_fano(spec: Spectrum, window=None) -> FanoFit:
    """Fano fit over an axis window (the whole spectrum when None) by variable
    projection (Golub & Pereyra 1973): LM over (center, width) from one start,
    solving for the linear (b0, b1, b2) of _fano_from_linear by weighted QR, with
    Kaufman's (1975) Jacobian.  Needs >= 8 points, not all at one x; weighted
    by per-point sigma when all are positive.  Non-convergence raises
    ConvergenceError."""
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise DomainError("window must satisfy lo < hi")
        mask = (spec.x >= lo) & (spec.x <= hi)
    else:
        mask = np.ones(len(spec), dtype=bool)
    x = spec.x[mask]
    y = spec.y[mask]
    sig = spec.sigma[mask]
    if x.size < 8:
        raise DomainError(f"only {x.size} points in the fit window (need >= 8)")
    if x.min() == x.max():
        raise DomainError(f"all {x.size} points in the fit window sit at x = {x[0]}: no spread")
    weights = 1.0 / sig if np.all(sig > 0) else np.ones_like(x)

    def project(c, w):
        h, dx = w / 2.0, x - c
        d = h ** 2 + dx ** 2
        basis = np.column_stack([weights, weights * h ** 2 / d, weights * h * dx / d])
        q_mat, r_mat = np.linalg.qr(basis)
        try:
            beta = np.linalg.solve(r_mat, q_mat.T @ (weights * y))
        except np.linalg.LinAlgError:   # zero width: an infinite cost rejects the step
            return h, dx, d, q_mat, np.full(3, np.inf), np.full(x.size, np.inf)
        return h, dx, d, q_mat, beta, basis @ beta - weights * y

    def model(p):
        h, dx, d, q_mat, beta, r = project(*p)
        if not np.isfinite(beta).all():   # failed projection: no J from an infinite beta
            return r, np.full((x.size, 2), np.nan)
        # Kaufman: P_perp (d basis / d(c, w)) beta
        _, b1, b2 = beta
        t = dx ** 2 - h ** 2
        dphi = np.column_stack([2.0 * b1 * h ** 2 * dx + b2 * h * t,
                                b1 * h * dx ** 2 + 0.5 * b2 * dx * t])
        dphi *= (weights / d ** 2)[:, None]
        return r, dphi - q_mat @ (q_mat.T @ dphi)

    result = levenberg_marquardt(model, _fano_initial_guess(x, y))
    c, w = float(result.params[0]), abs(float(result.params[1]))
    a, q, off = _fano_from_linear(*project(c, w)[4].tolist())
    jac = _fano_jacobian(x, (c, w, q, a, off)) * weights[:, None]
    jtj = jac.T @ jac
    if not np.isfinite(jtj).all():
        raise DomainError("J^T J of the fit overflows double precision for these inputs")
    cov, cond = _covariance(jtj, result.residual_norm ** 2, x.size)
    return FanoFit(center=c, width=w, q=q, amplitude=a, offset=off, covariance=cov,
                   residual_norm=result.residual_norm, iterations=result.iterations,
                   stop=result.stop, dof=x.size - 5, condition=cond)


# ---------------------------------------------------------------------------
# Landau-Zener crossing fit
# ---------------------------------------------------------------------------

@dataclass
class LandauZenerFit(LeastSquaresFit):
    """Avoided-crossing fit E+- = [Ei + Ej +- sqrt((Ei-Ej)^2 + V^2)]/2 with
    Ei, Ej linear in B around b_center; covariance in (e_i0, slope_i, e_j0,
    slope_j, V) order."""

    v_ij: float            # Hz, coupling (gap = v_ij at the crossing)
    e_i0: float            # Hz, line i at b_center
    slope_i: float         # Hz/G
    e_j0: float            # Hz, line j at b_center
    slope_j: float         # Hz/G
    b_center: float        # G
    iterations: int
    stop: str


def _lz_model_and_jacobian(params, b, branch_sign):
    e_i0, s_i, e_j0, s_j, v = params
    e_i = e_i0 + s_i * b
    e_j = e_j0 + s_j * b
    diff = e_i - e_j
    root = np.sqrt(diff ** 2 + v ** 2)
    model = 0.5 * (e_i + e_j + branch_sign * root)
    safe = np.where(root > 0, root, 1.0)
    t = branch_sign * diff / safe
    jac = np.empty((b.size, 5))
    jac[:, 0] = 0.5 * (1.0 + t)
    jac[:, 1] = 0.5 * (1.0 + t) * b
    jac[:, 2] = 0.5 * (1.0 - t)
    jac[:, 3] = 0.5 * (1.0 - t) * b
    jac[:, 4] = 0.5 * branch_sign * v / safe
    return model, jac


def _lz_initial_guess(b, e):
    """Closed-form start (e_i0, slope_i, e_j0, slope_j, V) from the conic
    (E - M)^2 - D^2/4 = V^2/4, M and D linear in B, through both branches: it
    is linear in the c of [E, E B, 1, B, B^2] c = -E^2, so one solve needs no
    branch labels (Bookstein 1979; Fitzgibbon, Pilu & Fisher 1999).  B and E
    are scaled before squaring, and E is centered so that coinciding branches
    (a rank-deficient solve) get a minimum-norm start where LM does not stall.
    Line i takes the larger slope; V is from |V^2|, as V = 0 is stationary."""
    b_scale = float(np.max(np.abs(b))) or 1.0
    e_scale = float(np.max(np.abs(e))) or 1.0
    e_mid = float(np.mean(e / e_scale))
    x, y = b / b_scale, e / e_scale - e_mid
    design = np.column_stack([y, y * x, np.ones_like(x), x, x * x])
    c1, c2, c3, c4, c5 = np.linalg.lstsq(design, -y * y, rcond=None)[0]
    m0, m1 = -0.5 * c1, -0.5 * c2
    d1 = 2.0 * math.sqrt(max(m1 * m1 - c5, 0.0))
    d0 = (4.0 * m0 * m1 - 2.0 * c4) / d1 if d1 > 0 else 0.0
    v = math.sqrt(abs(4.0 * (m0 * m0 - c3) - d0 * d0))
    m0, slope = m0 + e_mid, e_scale / b_scale
    return np.array([(m0 + 0.5 * d0) * e_scale, (m1 + 0.5 * d1) * slope,
                     (m0 - 0.5 * d0) * e_scale, (m1 - 0.5 * d1) * slope, v * e_scale])


def fit_landau_zener(branch_data) -> LandauZenerFit:
    """Fit an avoided crossing to (B, E, branch) samples; branch is +1 for the
    upper and -1 for the lower branch.  Returns |V_ij| with the two bare lines
    (referenced to the mean field for conditioning).  Non-finite samples raise
    DomainError and non-convergence ConvergenceError; single-branch data that
    does not span the crossing converges with a condition above 1e10."""
    data = list(branch_data)
    if len(data) < 5:
        raise DomainError("need at least 5 samples to constrain 5 parameters")
    b_raw = np.array([d[0] for d in data], dtype=float)
    e = np.array([d[1] for d in data], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(b_raw) & np.isfinite(e)))
    if bad.size:
        raise DomainError(f"sample {bad[0]} is not finite: B = {b_raw[bad[0]]}, E = {e[bad[0]]}")
    sgn = np.array([1 if d[2] > 0 else -1 for d in data], dtype=float)
    # which group is called '+' is a naming convention; canonicalize so the
    # higher-energy group carries +1 (makes the fit label-swap invariant)
    if (sgn > 0).any() and (sgn < 0).any() and e[sgn > 0].mean() < e[sgn < 0].mean():
        sgn = -sgn
    b_center = float(np.mean(b_raw))
    b = b_raw - b_center
    if not np.isfinite(b).all():
        raise DomainError("the fields span more than the float range")

    def model(p):
        fitted, jac = _lz_model_and_jacobian(p, b, sgn)
        return fitted - e, jac

    result = levenberg_marquardt(model, _lz_initial_guess(b, e))
    e_i0, s_i, e_j0, s_j, v = result.params
    cov, cond = _covariance(result.jtj, result.residual_norm ** 2, b.size)
    return LandauZenerFit(v_ij=abs(float(v)), e_i0=float(e_i0), slope_i=float(s_i),
                          e_j0=float(e_j0), slope_j=float(s_j), b_center=b_center,
                          covariance=cov, residual_norm=result.residual_norm,
                          dof=b.size - 5, condition=cond,
                          iterations=result.iterations, stop=result.stop)


# ---------------------------------------------------------------------------
# Energy-map assembly
# ---------------------------------------------------------------------------

@dataclass
class EnergyMapPoint:
    B: float               # G
    omega_res: float       # Hz, signed: negative for bound states (inverted axis)
    order_m: int           # signed drive order
    state_label: str
    bound: bool
    sigma: float           # Hz, 1-sigma uncertainty of the compensated center
    flagged: bool
    note: str


def _line_fits(spec, min_depth, min_separation_hz):
    """Yield (center, sigma) of the Fano fit of each find_peaks dip of one scan,
    fitted over +-2.5 min_separation_hz, unless one of four decisions drops the
    dip: both neighbouring samples are shallower than min_depth (one noisy
    sample, not a line: it is not fitted), or the fit raises DomainError or
    ConvergenceError, ends more than min_separation_hz/2 from its dip or is
    shallower than min_depth (it measures noise rather than a line).  sigma is the
    center stderr, or without one the grid spacing at the dip over sqrt(12)."""
    for xc in find_peaks(spec, min_depth, min_separation_hz):
        i = int(np.searchsorted(spec.x, xc))
        if min(spec.y[i - 1], spec.y[i + 1]) > 1.0 - min_depth:
            continue
        window = (xc - 2.5 * min_separation_hz, xc + 2.5 * min_separation_hz)
        try:
            fit = fit_fano(spec, window=window)
        except (DomainError, ConvergenceError):
            continue
        if abs(fit.center - xc) > min_separation_hz / 2 or fit.amplitude < min_depth:
            continue
        yield fit.center, float(fit.stderr[0] if fit.covariance is not None
                                else (spec.x[i + 1] - spec.x[i - 1]) / 2.0 / math.sqrt(12.0))


def _compensated(line, n_present):
    """(center, sigma, note) of a line given as (intensity, center, sigma)
    triples in center order, at a field where n_present intensities kept a fit.
    At one intensity: the first center and sigma.  At more: the zero-intensity
    intercept of a line through the centers weighted by their sigmas, and its
    stderr; without one (two points), sqrt((X^T W X)^-1_00) by Lagrange's identity."""
    xs, ys, errs = zip(*line)
    n_int = len(set(xs))
    if n_int < 2:
        return ys[0], errs[0], ("peak seen at a single intensity; left uncompensated"
                                if n_present > 1 else "single intensity; uncompensated center")
    lin = weighted_linear_fit(xs, ys, errs)
    x, w = np.array(xs), np.array(errs) ** -2.0
    sigma = (lin.stderr[0] if lin.covariance is not None else
             np.sqrt(2.0 * (w @ x ** 2) / np.sum(np.outer(w, w) * np.subtract.outer(x, x) ** 2)))
    return (lin.intercept, float(sigma),
            "shift compensation from only two intensities" if n_int == 2 else "")


def assemble_energy_map(scans, registry, *, min_depth: float = 0.05,
                        min_separation_hz: float = 8e3) -> list:
    """Peaks -> Fano centers -> linear shift compensation -> state association.

    scans: iterable of (B_gauss, Spectrum, intensity_W_cm2) with frequency-axis
    spectra; several intensities per field enable the DC-shift compensation.
    A field's _line_fits, in center order, split into lines (one resonance
    seen at several intensities, compensated by _compensated) wherever
    neighbouring centers lie more than 0.6 min_separation_hz apart.  A line is
    associated with the registry state and drive order whose predicted
    |E(B)|/|m|, |m| <= M_ORDER_MAX, lies within M_ORDER_RATIO_TOLERANCE; two
    states within tolerance flag the point instead of guessing.
    """
    by_field = {}
    for b_field, spec, intensity in scans:
        if spec.axis != AXIS_FREQ:
            raise DomainError("energy-map scans must be frequency-axis spectra")
        by_field.setdefault(round(float(b_field), 6), []).append((float(intensity), spec))

    points = []
    for b_field in sorted(by_field):
        fits = sorted(((intensity, center, sigma)
                       for intensity, spec in sorted(by_field[b_field], key=lambda g: g[0])
                       for center, sigma in _line_fits(spec, min_depth, min_separation_hz)),
                      key=lambda f: (f[1], f[0]))
        lines = []
        for item in fits:
            if not lines or item[1] - lines[-1][-1][1] > 0.6 * min_separation_hz:
                lines.append([])
            lines[-1].append(item)
        n_present = len({intensity for intensity, _, _ in fits})
        points += [_associate_peak(b_field, registry, *_compensated(line, n_present))
                   for line in lines]
    return points


def _associate_peak(b_field, registry, f0, f0_err, note) -> EnergyMapPoint:
    candidates = []
    for state in registry:
        try:
            e_state = molecular_energy(state, b_field, registry)
        except DomainError:
            continue
        fb = abs(e_state)
        if fb == 0.0:
            continue
        for k in range(1, M_ORDER_MAX + 1):
            predicted = fb / k
            rel = abs(f0 - predicted) / predicted
            if rel <= M_ORDER_RATIO_TOLERANCE:
                candidates.append((rel, state.label, k, e_state < 0))
    if not candidates:
        return EnergyMapPoint(B=b_field, omega_res=f0, order_m=0, state_label="",
                              bound=False, sigma=f0_err, flagged=True,
                              note=(note + "; " if note else "") + "no registry state within tolerance")
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    _, label, k, bound = candidates[0]
    rivals = {c[1] for c in candidates[1:] if c[1] != label}
    if rivals:
        note = (note + "; " if note else "") + f"ambiguous with {sorted(rivals)}"
    return EnergyMapPoint(B=b_field, omega_res=-f0 if bound else f0,
                          order_m=-k if bound else k, state_label=label,
                          bound=bound, sigma=f0_err, flagged=bool(rivals), note=note)


# ---------------------------------------------------------------------------
# Spectrum I/O
# ---------------------------------------------------------------------------

_CSV_HEADER = "axis,value,relative_atoms,sigma"
_ROWS = "\x00"   # stands for the row list in the JSON text until it is spliced in


def _cells(column, fmt):
    """Cell strings of one column, lazily.  In csv and table a float is repr
    or .9g and anything else str; in json every value is as json.dumps
    writes it.  An array is formatted whole."""
    number = "{:.9g}".format if fmt == "table" else repr
    if isinstance(column, np.ndarray):
        return map(number, column.tolist())
    if fmt == "json":
        return map(json.dumps, column)
    return (number(float(v)) if isinstance(v, float) else str(v) for v in column)


def render_json(payload: dict) -> str:
    """payload plus schema_version as JSON text, indent 2, sorted keys;
    DomainError if payload holds a NaN or an infinity."""
    try:
        return json.dumps({**payload, "schema_version": SCHEMA_VERSION}, indent=2,
                          sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("a number in the JSON output is not finite for these inputs") from None


def render(fmt: str, header, columns) -> str:
    """Text of a table given as one sequence per header name, in fmt 'csv'
    (schema line, header, cells), 'table' (aligned) or 'json' ({"columns":
    header} plus the rows under "rows"); DomainError if a float column holds a
    NaN or an infinity."""
    for name, column in zip(header, columns):
        values = np.asarray(column)
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise DomainError(f"{name} is not finite for these inputs")
    return _layout(fmt, header, [_cells(c, fmt) for c in columns])


def _layout(fmt: str, header, cells, payload=None, key: str = "rows") -> str:
    """render's text from the cell strings of each column.  Only the small
    payload goes through json.dumps: with indent=2 it runs the pure-Python
    encoder, so the row list is spliced in from the cells."""
    rows = zip(*cells)
    if fmt == "json":
        doc = {"columns": list(header)} if payload is None else dict(payload)
        doc[key] = _ROWS
        body = "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
        return render_json(doc).replace(json.dumps(_ROWS),
                                        f"[\n    [\n      {body}\n    ]\n  ]" if body else "[]")
    if fmt == "csv":
        lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header), *map(",".join, rows)]
    else:
        widths = [max(len(h), 14) for h in header]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in (header, *rows)]
    return "\n".join(lines) + "\n"


def write_spectrum(spec: Spectrum, base) -> None:
    """base.csv and base.json (base a Path) from one repr of each number."""
    x, y, sigma = (list(_cells(c, "csv")) for c in (spec.x, spec.y, spec.sigma))
    write_text(_layout("csv", _CSV_HEADER.split(","), ([spec.axis] * len(spec), x, y, sigma)),
               base.with_suffix(".csv"))
    write_text(_layout("json", (), (x, y, sigma), {"axis": spec.axis, "kind": "spectrum",
                                                    "metadata": spec.metadata}, "points"),
               base.with_suffix(".json"))


def read_csv_rows(path) -> list:
    """(line number, comma-separated fields) of each line of a text file that
    is neither blank nor a '#' comment."""
    lines = enumerate(map(str.strip, read_text(path).splitlines()), start=1)
    return [(lineno, line.split(",")) for lineno, line in lines
            if line and line[0] != "#"]


def read_spectrum_csv(path) -> Spectrum:
    rows = read_csv_rows(path)
    if not rows:
        raise ConfigError("missing header row", path)
    if ",".join(rows[0][1]) != _CSV_HEADER:
        raise ConfigError(f"expected header {_CSV_HEADER!r}, got {','.join(rows[0][1])!r}",
                          path, rows[0][0])
    if len(rows) == 1:
        raise ConfigError("no data rows", path)
    axis = rows[1][1][0]
    points = []
    for lineno, fields in rows[1:]:
        row_axis, *point = parse_fields(fields, (str, finite, finite, finite),
                                        f"spectrum row ({_CSV_HEADER})", path, lineno)
        if row_axis != axis:
            raise ConfigError("inconsistent axis column", path, lineno)
        points.append(point)
    try:
        return Spectrum(axis, *np.array(points).T)
    except DomainError as exc:
        raise ConfigError(str(exc), path) from None


def read_spectrum_json(path) -> Spectrum:
    text = read_text(path)
    try:
        payload = json.loads(text)
        pts = payload["points"]
        axis = payload["axis"]
        metadata = {**payload.get("metadata", {})}   # a mapping only: dict() takes pairs too
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: deep nesting
        raise ConfigError(f"invalid JSON: {exc}", path) from None
    except (KeyError, TypeError, ValueError):
        raise ConfigError("JSON spectrum needs 'axis', 'points' and object 'metadata'",
                          path) from None
    try:
        arr = np.asarray(pts, dtype=float)
    except (TypeError, ValueError, OverflowError):   # OverflowError: an integer past double range
        raise ConfigError("'points' must hold numbers", path) from None
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConfigError("'points' must be an N x 3 array of [x, y, sigma]", path)
    if not {type(v) for row in pts for v in row} <= {int, float}:   # not true or "0.5"
        raise ConfigError("'points' must hold numbers", path)
    try:
        return Spectrum(axis, arr[:, 0], arr[:, 1], arr[:, 2], metadata)
    except DomainError as exc:
        raise ConfigError(str(exc), path) from None
