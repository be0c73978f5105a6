"""Loss-spectroscopy pipeline: synthetic spectra, peak finding, line-shape
fits, DC-shift compensation, and assembly of the binding-energy map.

Synthetic spectra use the forward model N_m/N_0 = exp(-(rate - rate_bg) t)
with the loss rate from ``scattering.loss_rate_proxy`` evaluated on the
composite scattering length of all supplied resonances; the background rate
at a_s = a_bk normalizes the far-off-resonance baseline to 1.  Noise is
Gaussian, seedable through numpy's PCG64 ``default_rng`` (documented here for
cross-run reproducibility; identical seeds give bit-identical spectra).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomdata import MolecularState, molecular_energy
from .errors import ConfigError, ConvergenceError, DomainError
from .fitting import (LM_MAX_ITER, LinearFit, _covariance, levenberg_marquardt,
                      weighted_linear_fit)
from .keyvalue import read_text, write_text
from .scattering import (DressedChannelModel, ResonanceModel, dressed_alpha_beta,
                         equivalent_resonance_model, loss_rate_proxy)

__all__ = [
    "AXIS_FREQ", "AXIS_FIELD", "SCHEMA_VERSION",
    "Spectrum", "FanoFit", "LandauZenerFit", "EnergyMapPoint",
    "fano_profile", "synthesize_spectrum", "synthesize_field_scan",
    "find_peaks", "fit_fano", "fit_linear_shift", "fit_landau_zener",
    "assemble_energy_map",
    "write_spectrum_csv", "read_spectrum_csv", "read_csv_rows",
    "spectrum_from_json", "render", "render_json",
    "write_spectrum_json", "read_spectrum_json", "write_energy_map_csv",
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

def _composite_alpha_beta(resonances, omega):
    """Total (alpha, beta) in Bohr radii on an omega grid (rad/s).

    Deviations of each resonance add on the shared background of the first
    model; exact poles give +-inf which the unitarity cap later clips.
    """
    if not resonances:
        raise DomainError("need at least one resonance model")
    a_bk = resonances[0].a_bk
    alpha = np.full_like(omega, a_bk, dtype=float)
    beta = np.zeros_like(omega, dtype=float)
    for model in resonances:
        if isinstance(model, DressedChannelModel):
            if model.gamma_in == 0.0:
                model = equivalent_resonance_model(model)
            else:
                a_i, b_i = dressed_alpha_beta(model, omega, k=0.0)
                alpha = alpha + (a_i - model.a_bk)
                beta = beta + b_i
                continue
        if model.delta_m == 0.0:
            continue
        denom = -model.m * omega - model.omega0
        with np.errstate(divide="ignore"):
            # exact poles give +-inf, clipped later by the unitarity cap
            dev = -model.a_bk * model.delta_m / denom
        alpha = alpha + dev
    return alpha, beta


def _loss_spectrum(axis, x, alpha, beta, a_bk, *, hold_time, density, noise_sigma, seed,
                   metadata) -> Spectrum:
    """Relative atom number from the composite (alpha, beta), normalized by the
    background rate at a_bk, then seeded Gaussian noise, clipping and metadata."""
    rate = loss_rate_proxy(alpha, beta, density)
    rate_bg = loss_rate_proxy(a_bk, 0.0, density)
    y = np.exp(-(rate - rate_bg) * hold_time)
    sigma = np.full_like(y, float(noise_sigma))
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=y.size)
    y = np.clip(y, 0.0, RELATIVE_ATOMS_MAX)
    meta = {"hold_time_ms": hold_time * 1e3, "density_cm3": density,
            "noise_sigma": noise_sigma, "seed": seed}
    if metadata:
        meta.update(metadata)
    return Spectrum(axis, x, y, sigma, meta)


def synthesize_spectrum(resonances, grid_hz, *, hold_time: float = 5e-3,
                        density: float = 1e13, noise_sigma: float = 0.0, seed=None,
                        metadata: dict | None = None) -> Spectrum:
    """Loss spectrum versus modulation frequency (grid in Hz, monotone).

    resonances: ResonanceModel or DressedChannelModel instances sharing the
    background scattering length of the first entry.
    """
    grid_hz = np.asarray(grid_hz, dtype=float)
    if grid_hz.size < 2 or np.any(np.diff(grid_hz) <= 0):
        raise DomainError("frequency grid must be monotonically increasing")
    if hold_time <= 0:
        raise DomainError("hold time must be positive")
    omega = 2.0 * math.pi * grid_hz
    alpha, beta = _composite_alpha_beta(list(resonances), omega)
    return _loss_spectrum(AXIS_FREQ, grid_hz, alpha, beta, resonances[0].a_bk,
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
    |E(B)| equals |m| f_mod on either side of the threshold crossing.  The
    composite scattering length is evaluated on the whole (field, order) grid.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    if b_grid.size < 2 or np.any(np.diff(b_grid) <= 0):
        raise DomainError("field grid must be monotonically increasing")
    omega_b = -2.0 * math.pi * (molecular_energy(state, b_grid, registry) + dc_shift_hz)
    # a state below threshold (omega_b > 0) resonates at order -|m|: the
    # denominator -m w - omega0 is the same with the sign moved onto w
    omega = np.where(omega_b > 0, -2.0 * math.pi * f_mod_hz, 2.0 * math.pi * f_mod_hz)
    models = [ResonanceModel(a_bk=a_bk, delta_m=2.0 * math.pi * widths_hz[k],
                             omega0=omega_b, m=k) for k in sorted(widths_hz)]
    alpha, beta = _composite_alpha_beta(models, omega)
    return _loss_spectrum(AXIS_FIELD, b_grid, alpha, beta, a_bk,
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
    candidates = []
    for i in range(1, len(x) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1] and y[i] <= 1.0 - min_depth:
            candidates.append((float(y[i]), float(x[i])))
    candidates.sort(key=lambda c: (c[0], c[1]))
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
    return offset - amplitude * u ** 2 / ((1.0 + q ** 2) * ((width / 2.0) ** 2 + dx ** 2))


@dataclass
class FanoFit:
    """Fano fit; covariance is 5 x 5 in (center, width, q, amplitude, offset)
    order.  A symmetric (Lorentzian) dip, q = +-inf, is reported with the
    finite q = Q_SYMMETRIC (~9.0e15), which gives the same curve to rounding."""

    center: float
    width: float
    q: float
    amplitude: float
    offset: float
    covariance: np.ndarray
    residual_norm: float = 0.0
    iterations: int = 0

    @property
    def center_stderr(self) -> float:
        return float(math.sqrt(max(self.covariance[0, 0], 0.0)))


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
    Kaufman's (1975) Jacobian.  Needs >= 8 points; weighted by per-point sigma
    when all are positive.  Non-convergence raises ConvergenceError."""
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
    weights = 1.0 / sig if np.all(sig > 0) else np.ones_like(x)

    @functools.lru_cache(maxsize=1)
    def project(c, w):
        h, dx = w / 2.0, x - c
        d = h ** 2 + dx ** 2
        basis = np.column_stack([weights, weights * h ** 2 / d, weights * h * dx / d])
        q_mat, r_mat = np.linalg.qr(basis)
        try:
            beta = np.linalg.solve(r_mat, q_mat.T @ (weights * y))
        except np.linalg.LinAlgError:   # zero width: an infinite cost rejects the step
            beta = np.full(3, np.inf)
        return h, dx, d, q_mat, beta, basis @ beta - weights * y

    def jacobian(p):
        # Kaufman: P_perp (d basis / d(c, w)) beta
        h, dx, d, q_mat, (_, b1, b2), _ = project(*p)
        t = dx ** 2 - h ** 2
        dphi = np.column_stack([2.0 * b1 * h ** 2 * dx + b2 * h * t,
                                b1 * h * dx ** 2 + 0.5 * b2 * dx * t])
        dphi *= (weights / d ** 2)[:, None]
        return dphi - q_mat @ (q_mat.T @ dphi)

    result = levenberg_marquardt(lambda p: project(*p)[5], _fano_initial_guess(x, y),
                                 jacobian)
    c, w = float(result.params[0]), abs(float(result.params[1]))
    a, q, off = _fano_from_linear(*project(c, w)[4].tolist())
    jac = _fano_jacobian(x, (c, w, q, a, off)) * weights[:, None]
    cov, _ = _covariance(jac.T @ jac, result.residual_norm, x.size, 5)
    return FanoFit(center=c, width=w, q=q, amplitude=a, offset=off, covariance=cov,
                   residual_norm=result.residual_norm, iterations=result.iterations)


# ---------------------------------------------------------------------------
# Linear DC-shift compensation
# ---------------------------------------------------------------------------

def fit_linear_shift(points, sigma=None) -> LinearFit:
    """Compensate the intensity-linear resonance shift.

    points: sequence of (intensity W/cm^2, peak center Hz); needs at least 3
    points with at least two distinct intensities.  The intercept is the
    zero-intensity (compensated) resonance frequency; optional sigmas give a
    weighted fit.
    """
    pts = list(points)
    if len(pts) < 3:
        raise DomainError("need at least 3 (intensity, center) points")
    intensity = np.array([p[0] for p in pts], dtype=float)
    center = np.array([p[1] for p in pts], dtype=float)
    if np.unique(intensity).size < 2:
        raise DomainError("all intensities equal: shift slope is undetermined")
    return weighted_linear_fit(intensity, center, sigma)


# ---------------------------------------------------------------------------
# Landau-Zener crossing fit
# ---------------------------------------------------------------------------

@dataclass
class LandauZenerFit:
    """Avoided-crossing fit E+- = [Ei + Ej +- sqrt((Ei-Ej)^2 + V^2)]/2 with
    Ei, Ej linear in B around b_center."""

    v_ij: float            # Hz, coupling (gap = v_ij at the crossing)
    e_i0: float            # Hz, line i at b_center
    slope_i: float         # Hz/G
    e_j0: float            # Hz, line j at b_center
    slope_j: float         # Hz/G
    b_center: float        # G
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    condition_warning: str | None = None

    def branch(self, B, sign: int):
        b = np.asarray(B, dtype=float) - self.b_center
        e_i = self.e_i0 + self.slope_i * b
        e_j = self.e_j0 + self.slope_j * b
        root = np.sqrt((e_i - e_j) ** 2 + self.v_ij ** 2)
        return 0.5 * (e_i + e_j + sign * root)


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


def _lz_initial_guess(b, e, branch_sign):
    upper = branch_sign > 0
    lower = ~upper
    if upper.any() and lower.any():
        # crossing center: field of minimum branch separation (pair nearest B)
        bu, eu = b[upper], e[upper]
        bl, el = b[lower], e[lower]
        gaps = []
        for bb, ee in zip(bu, eu):
            i = int(np.argmin(np.abs(bl - bb)))
            gaps.append((float(ee - el[i]), float(bb)))
        v0, b_c = min(gaps, key=lambda g: (g[0], g[1]))
        v0 = max(v0, 1e-12)
        # bare lines swap branches at the crossing
        left = b < b_c
        line1_mask_u = upper & ~left
        line1_mask_l = lower & left
        line2_mask_u = upper & left
        line2_mask_l = lower & ~left
        def fit_line(mask_a, mask_b):
            bb = np.concatenate([b[mask_a], b[mask_b]])
            ee = np.concatenate([e[mask_a], e[mask_b]])
            if np.unique(bb).size < 2:
                return np.array([float(np.mean(ee)) if ee.size else 0.0, 0.0])
            return np.polyfit(bb, ee, 1)[::-1]   # (intercept, slope)
        l1 = fit_line(line1_mask_l, line1_mask_u)
        l2 = fit_line(line2_mask_l, line2_mask_u)
        return np.array([l1[0], l1[1], l2[0], l2[1], v0])
    # single branch: straight lines through the outer thirds
    n = b.size
    third = max(2, n // 3)
    l_lo = np.polyfit(b[:third], e[:third], 1)[::-1]
    l_hi = np.polyfit(b[-third:], e[-third:], 1)[::-1]
    return np.array([l_lo[0], l_lo[1], l_hi[0], l_hi[1],
                     max(abs(e[n // 2] - 0.5 * (l_lo[0] + l_hi[0])), 1e-9)])


def fit_landau_zener(branch_data) -> LandauZenerFit:
    """Fit an avoided crossing to (B, E, branch) samples; branch is +1 for the
    upper and -1 for the lower branch.  Returns |V_ij| with the two bare lines
    (referenced to the mean field for conditioning).  Data covering a single
    branch that does not span the crossing yields an ill-conditioned warning
    in the result rather than an error."""
    data = list(branch_data)
    if len(data) < 5:
        raise DomainError("need at least 5 samples to constrain 5 parameters")
    b_raw = np.array([d[0] for d in data], dtype=float)
    e = np.array([d[1] for d in data], dtype=float)
    sgn = np.array([1 if d[2] > 0 else -1 for d in data], dtype=float)
    # which group is called '+' is a naming convention; canonicalize so the
    # higher-energy group carries +1 (makes the fit label-swap invariant)
    if (sgn > 0).any() and (sgn < 0).any():
        if e[sgn > 0].mean() < e[sgn < 0].mean():
            sgn = -sgn
    b_center = float(np.mean(b_raw))
    b = b_raw - b_center

    def residual(p):
        model, _ = _lz_model_and_jacobian(p, b, sgn)
        return model - e

    def jacobian(p):
        _, jac = _lz_model_and_jacobian(p, b, sgn)
        return jac

    try:
        result = levenberg_marquardt(residual, _lz_initial_guess(b, e, sgn), jacobian)
    except ConvergenceError as exc:
        # degenerate geometry (single branch away from the crossing) leaves the
        # fit crawling along a flat valley: return the iterate with a warning
        # rather than failing, per the ill-conditioned contract
        p_last = np.asarray(exc.last, dtype=float)
        jac = jacobian(p_last)
        jtj = jac.T @ jac
        if not np.all(np.isfinite(jtj)) or np.linalg.cond(jtj) <= 1e10:
            raise
        r_last = residual(p_last)
        dof = max(r_last.size - p_last.size, 1)
        cov = (float(r_last @ r_last) / dof) * np.linalg.pinv(jtj)
        e_i0, s_i, e_j0, s_j, v = p_last
        return LandauZenerFit(
            v_ij=abs(float(v)), e_i0=float(e_i0), slope_i=float(s_i),
            e_j0=float(e_j0), slope_j=float(s_j), b_center=b_center,
            covariance=cov, residual_norm=float(math.sqrt(r_last @ r_last)),
            iterations=LM_MAX_ITER,
            condition_warning=("ill-conditioned fit (did not converge; condition "
                               f"number {np.linalg.cond(jtj):.2e}); single-branch "
                               "data may not span the crossing"))
    e_i0, s_i, e_j0, s_j, v = result.params
    warning = None
    if result.condition > 1e10:
        warning = ("ill-conditioned fit (condition number "
                   f"{result.condition:.2e}); single-branch data may not span the crossing")
    return LandauZenerFit(v_ij=abs(float(v)), e_i0=float(e_i0), slope_i=float(s_i),
                          e_j0=float(e_j0), slope_j=float(s_j), b_center=b_center,
                          covariance=result.covariance,
                          residual_norm=result.residual_norm,
                          iterations=result.iterations,
                          condition_warning=warning)


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
    flagged: bool = False
    note: str = ""


def _cluster_centers(fits, window):
    """Group (intensity, center, stderr) triples into clusters by center."""
    fits = sorted(fits, key=lambda f: (f[1], f[0]))
    clusters = []
    for item in fits:
        if clusters and abs(item[1] - clusters[-1][-1][1]) <= window:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    return clusters


def assemble_energy_map(scans, registry, *, min_depth: float = 0.05,
                        min_separation_hz: float = 8e3) -> list:
    """Peaks -> Fano centers -> linear shift compensation -> state association.

    scans: iterable of (B_gauss, Spectrum, intensity_W_cm2) with frequency-axis
    spectra; several intensities per field enable the DC-shift compensation.
    Peaks are associated with the registry state and drive order whose
    predicted |E(B)|/|m|, |m| <= M_ORDER_MAX, lies within M_ORDER_RATIO_TOLERANCE;
    two states within tolerance flag the point instead of guessing.  Each dip
    is fitted over +-2.5 min_separation_hz, and centers within
    0.6 min_separation_hz of each other are one line seen at several
    intensities.  A dip whose two neighbouring samples are both shallower
    than min_depth is one noisy sample, not a line, and is skipped.  A Fano
    fit that fails, ends more than min_separation_hz/2 from its dip or is
    shallower than min_depth measures noise rather than a line and is dropped.
    """
    by_field = {}
    for b_field, spec, intensity in scans:
        if spec.axis != AXIS_FREQ:
            raise DomainError("energy-map scans must be frequency-axis spectra")
        by_field.setdefault(round(float(b_field), 6), []).append((float(intensity), spec))

    points = []
    for b_field in sorted(by_field):
        group = by_field[b_field]
        peak_fits = []
        for intensity, spec in sorted(group, key=lambda g: g[0]):
            for xc in find_peaks(spec, min_depth, min_separation_hz):
                i = int(np.searchsorted(spec.x, xc))
                if min(spec.y[i - 1], spec.y[i + 1]) > 1.0 - min_depth:
                    continue
                window = (xc - 2.5 * min_separation_hz, xc + 2.5 * min_separation_hz)
                try:
                    fit = fit_fano(spec, window=window)
                except (DomainError, ConvergenceError):
                    continue
                if (abs(fit.center - xc) > min_separation_hz / 2
                        or fit.amplitude < min_depth):
                    continue
                peak_fits.append((intensity, fit.center, fit.center_stderr))
        if not peak_fits:
            continue
        intensities_present = sorted({pf[0] for pf in peak_fits})
        for cluster in _cluster_centers(peak_fits, 0.6 * min_separation_hz):
            note = ""
            n_int = len({c[0] for c in cluster})
            if n_int >= 2:
                xs = [c[0] for c in cluster]
                ys = [c[1] for c in cluster]
                errs = [c[2] for c in cluster]
                sig = errs if all(e > 0 for e in errs) else None
                lin = weighted_linear_fit(xs, ys, sig)
                f0 = lin.intercept
                f0_err = lin.intercept_stderr
                if n_int == 2:
                    note = "shift compensation from only two intensities"
            else:
                f0 = cluster[0][1]
                f0_err = cluster[0][2]
                if len(intensities_present) > 1:
                    note = "peak seen at a single intensity; left uncompensated"
                else:
                    note = "single intensity; uncompensated center"
            points.append(_associate_peak(b_field, f0, f0_err, registry, note))
    return points


def _associate_peak(b_field, f0, f0_err, registry, note) -> EnergyMapPoint:
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
    rel, label, k, bound = candidates[0]
    flagged = False
    rivals = {c[1] for c in candidates[1:] if c[1] != label}
    if rivals:
        flagged = True
        note = (note + "; " if note else "") + f"ambiguous with {sorted(rivals)}"
    near_tie = len(candidates) > 1 and candidates[1][0] - rel < 1e-12 and candidates[1][1] != label
    if near_tie:
        flagged = True
    return EnergyMapPoint(B=b_field, omega_res=-f0 if bound else f0,
                          order_m=-k if bound else k, state_label=label,
                          bound=bound, sigma=f0_err, flagged=flagged, note=note)


# ---------------------------------------------------------------------------
# Spectrum I/O
# ---------------------------------------------------------------------------

_CSV_HEADER = "axis,value,relative_atoms,sigma"
_MAP_HEADER = "B_Gauss,omega_res_Hz,order_m,state,bound,sigma_Hz,flagged,note"
_ROWS = "\x00"   # stands for the row list in the JSON text until it is spliced in


def _cells(column, fmt):
    """Cell strings of one column, lazily.  In csv and table a float is repr
    or .9g and anything else str; in json every value is as json.dumps
    writes it.  A finite float array is formatted whole."""
    number = "{:.9g}".format if fmt == "table" else repr
    if isinstance(column, np.ndarray):
        column = column.tolist()
        if fmt != "json" or all(map(math.isfinite, column)):
            return map(number, column)
    if fmt == "json":
        return map(json.dumps, column)
    return (number(float(v)) if isinstance(v, float) else str(v) for v in column)


def render_json(payload: dict) -> str:
    """payload plus schema_version as JSON text, indent 2, sorted keys."""
    return json.dumps({**payload, "schema_version": SCHEMA_VERSION}, indent=2,
                      sort_keys=True) + "\n"


def render(fmt: str, header, columns, payload=None, key: str = "rows") -> str:
    """Text of a table given as one sequence per header name, in fmt 'csv'
    (schema line, header, cells), 'table' (aligned) or 'json' (payload,
    default {"columns": header}, plus the rows under key).

    Only the small payload goes through json.dumps: with indent=2 it runs
    the pure-Python encoder, so the row list is spliced in from the cells.
    """
    rows = zip(*(_cells(c, fmt) for c in columns))
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


def write_spectrum_csv(spec: Spectrum, path) -> None:
    """CSV with shortest-round-trip decimal fields (bit-exact reload)."""
    write_text(render("csv", _CSV_HEADER.split(","),
                      ([spec.axis] * len(spec), spec.x, spec.y, spec.sigma)), path)


def read_csv_rows(path) -> list:
    """(line number, comma-separated fields) of each line of a text file that
    is neither blank nor a '#' comment."""
    lines = enumerate(map(str.strip, read_text(path).splitlines()), start=1)
    return [(lineno, line.split(",")) for lineno, line in lines
            if line and line[0] != "#"]


def read_spectrum_csv(path, metadata: dict | None = None) -> Spectrum:
    rows = read_csv_rows(path)
    if not rows:
        raise ConfigError("missing header row", path)
    if ",".join(rows[0][1]) != _CSV_HEADER:
        raise ConfigError(f"expected header {_CSV_HEADER!r}, got {','.join(rows[0][1])!r}",
                          path, rows[0][0])
    if len(rows) == 1:
        raise ConfigError("no data rows", path)
    axis = rows[1][1][0]
    xs, ys, ss = [], [], []
    for lineno, fields in rows[1:]:
        if len(fields) != 4:
            raise ConfigError(f"expected 4 fields, got {len(fields)}", path, lineno)
        if fields[0] != axis:
            raise ConfigError("inconsistent axis column", path, lineno)
        try:
            xs.append(float(fields[1]))
            ys.append(float(fields[2]))
            ss.append(float(fields[3]))
        except ValueError:
            raise ConfigError("cannot parse numeric fields", path, lineno) from None
    try:
        return Spectrum(axis, np.array(xs), np.array(ys), np.array(ss),
                        dict(metadata) if metadata else {})
    except DomainError as exc:
        raise ConfigError(str(exc), path) from None


def spectrum_from_json(payload: dict) -> Spectrum:
    try:
        pts = payload["points"]
        axis = payload["axis"]
        metadata = dict(payload.get("metadata", {}))
    except (KeyError, TypeError, ValueError):
        raise ConfigError("JSON spectrum needs 'axis', 'points' and object 'metadata'") from None
    try:
        arr = np.asarray(pts, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("'points' must hold numbers") from None
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConfigError("'points' must be an N x 3 array of [x, y, sigma]")
    return Spectrum(axis, arr[:, 0], arr[:, 1], arr[:, 2], metadata)


def write_spectrum_json(spec: Spectrum, path) -> None:
    write_text(render("json", (), (spec.x, spec.y, spec.sigma),
                      {"axis": spec.axis, "kind": "spectrum", "metadata": spec.metadata},
                      key="points"), path)


def read_spectrum_json(path) -> Spectrum:
    text = read_text(path)
    try:
        return spectrum_from_json(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: deep nesting
        raise ConfigError(f"invalid JSON: {exc}", path) from None
    except (ConfigError, DomainError) as exc:
        raise ConfigError(str(exc), path) from None


def write_energy_map_csv(points, path) -> None:
    rows = [(p.B, p.omega_res, p.order_m, p.state_label, int(p.bound), p.sigma,
             int(p.flagged), p.note.replace(",", ";")) for p in points]
    write_text(render("csv", _MAP_HEADER.split(","), list(zip(*rows))), path)
