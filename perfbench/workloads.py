"""Seeded inputs and output checks for the three benchmark workloads.

Each workload draws its jobs in blocks.  A block covers the workload's input
strata once (registry states, drive orders, A/w bands) in shuffled order, so
runs with different seeds see nearly the same mix of cheap and expensive jobs
and their medians stay comparable.

The checks use references computed here, never by modfesh: the molecular-state
registry's linear models with the two-level crossing in closed form, the
closed-form scattering lengths, the criterion-02 light-shift anchors, and
scipy's Bessel function for the Floquet gap (imported only after the timed
phase so it does not count into the program's memory).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job's output disagrees with the reference; the message is the cause."""


@dataclass
class Job:
    """One closed-loop job: input files, the CLI calls and the output check.

    check() raises CheckFailed or returns a record for the workload's
    deferred check (or None when there is nothing left to check).
    """

    files: dict
    calls: list
    check: Callable


# ---------------------------------------------------------------------------
# Reference registry: the four cesium states of modfesh's builtin registry
# (label: E0_Hz, mu_rel_Hz_per_G, B_ref_G, window_G, crossing partner, V_ij_Hz)
# ---------------------------------------------------------------------------

REGISTRY = {
    "4g(4)": (-228.7e3, 228.7e3 / (19.84 - 19.41), 19.41, (15.0, 50.0), None, 0.0),
    "4d": (-450.0e3, 760.0e3, 47.36, (45.0, 50.0), None, 0.0),
    "6s": (-182.0e3, -1.35e6, 18.66, (15.0, 50.0), "6g(6)", 25.0e3),
    "6g(6)": (-182.0e3, -8.0e3, 18.66, (15.0, 50.0), "6s", 25.0e3),
}
STATES = tuple(REGISTRY)


def state_energy(label: str, b_field):
    """Energy (Hz, vs threshold) of the adiabatic branch connected to the
    state's own linear model; works on scalars and arrays."""
    e0, mu, b_ref, _, partner, v = REGISTRY[label]
    own = e0 + mu * (np.asarray(b_field, dtype=float) - b_ref)
    if partner is None:
        return own
    p_e0, p_mu, p_ref = REGISTRY[partner][:3]
    other = p_e0 + p_mu * (np.asarray(b_field, dtype=float) - p_ref)
    mean = 0.5 * (own + other)
    half = 0.5 * np.hypot(own - other, v)
    return np.where(own > other, mean + half, mean - half)


def _write_kv(sections) -> str:
    lines = []
    for name, body in sections:
        lines.append(f"[{name}]")
        for item in body:
            lines.append(item if isinstance(item, str) else f"{item[0]} = {item[1]!r}")
        lines.append("")
    return "\n".join(lines)


def _json_rows(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


def _close(value, ref, rel=1e-9, what="value"):
    if not abs(value - ref) <= rel * abs(ref) + 1e-300:
        raise CheckFailed(f"{what}: got {value!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# energy_map: scan x3 intensities -> energy-map, per field session
# ---------------------------------------------------------------------------

EM_INTENSITIES = (0.4, 0.8, 1.2)     # W/cm^2
EM_WIDTHS = {1: 3.0e3, 2: 4.0e3}     # Hz, resonance width per |m|
EM_DEPTH = 0.86                      # modulation depth in the DC-shift factor
EM_SPACING_HZ = 150.0
EM_ENERGY_RANGE = (100.0e3, 450.0e3)
EM_TOLERANCE = 0.03                  # association tolerance of assemble_energy_map
EM_M_MAX = 3


def _em_unambiguous(label: str, b_field: float) -> bool:
    """True when no other registry state predicts a line within twice the
    association tolerance of either generated line (|E|/1, |E|/2)."""
    energy = abs(float(state_energy(label, b_field)))
    for other in STATES:
        if other == label:
            continue
        lo, hi = REGISTRY[other][3]
        if not lo <= b_field <= hi:
            continue
        e_other = abs(float(state_energy(other, b_field)))
        if e_other == 0.0:
            continue
        for k in EM_WIDTHS:
            for k_other in range(1, EM_M_MAX + 1):
                predicted = e_other / k_other
                if abs(energy / k - predicted) / predicted <= 2 * EM_TOLERANCE:
                    return False
    return True


def _em_draw_field(rng: random.Random, label: str) -> float:
    lo, hi = REGISTRY[label][3]
    e0, mu, b_ref = REGISTRY[label][:3]
    # fields where the bare line sits within the energy range, padded by 1 G
    reach = EM_ENERGY_RANGE[1] / abs(mu) + abs(e0 / mu) + 1.0
    lo, hi = max(lo, b_ref - reach), min(hi, b_ref + reach)
    for _ in range(100000):
        b_field = round(rng.uniform(lo, hi), 4)
        energy = abs(float(state_energy(label, b_field)))
        if EM_ENERGY_RANGE[0] <= energy <= EM_ENERGY_RANGE[1] and _em_unambiguous(label, b_field):
            return b_field
    raise RuntimeError(f"no valid field for state {label}")


def energy_map_block(rng: random.Random):
    labels = [label for label in STATES for _ in range(2)]
    rng.shuffle(labels)
    return [dict(state=label, field=_em_draw_field(rng, label),
                 slope=rng.uniform(-3.0e3, -1.0e3), seed=rng.randrange(1 << 30))
            for label in labels]


def energy_map_job(p: dict, workdir: Path) -> Job:
    energy = float(state_energy(p["state"], p["field"]))
    bound = energy < 0
    e_abs = abs(energy)
    start = e_abs / 2 - 22.0e3
    stop = e_abs + 22.0e3
    points = int(round((stop - start) / EM_SPACING_HZ)) + 1
    files = {}
    calls = []
    for i, intensity in enumerate(EM_INTENSITIES):
        dc_shift = p["slope"] * intensity * (1 - EM_DEPTH / 2)
        body = [("start_hz", start), ("stop_hz", stop), ("points", points),
                ("density_cm3", 2.5e12), ("noise_sigma", 0.01), ("seed", p["seed"] + i),
                ("field_G", p["field"]), ("intensity_W_cm2", intensity),
                ("dc_shift_hz", dc_shift)]
        sections = [("scan", body)]
        for k, width in EM_WIDTHS.items():
            sections.append(("resonance", [("a_bk", 200.0), ("delta_m_hz", width),
                                           ("omega0_hz", -energy),
                                           ("m", -k if bound else k)]))
        cfg = f"scan_{i}.cfg"
        files[cfg] = _write_kv(sections)
        calls.append(["scan", "--config", str(workdir / cfg),
                      "--out", str(workdir / f"scan_{i}")])
    # the job directory holds no other .json file than the three spectra
    calls.append(["energy-map", "--scan-dir", str(workdir),
                  "--output", str(workdir / "map.csv")])

    def check():
        return _check_energy_map(workdir / "map.csv", p["state"], p["field"], energy)

    return Job(files=files, calls=calls, check=check)


def _check_energy_map(path: Path, label: str, b_field: float, energy: float):
    bound = energy < 0
    expected = {(label, -k if bound else k, int(bound)) for k in EM_WIDTHS}
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("B_Gauss"):
            continue
        f = line.split(",")
        key = (f[3], int(f[2]), int(f[4]))
        if key in rows:
            raise CheckFailed(f"energy map: duplicate row {key}")
        rows[key] = (float(f[0]), float(f[1]), float(f[5]), int(f[6]))
    missing = sorted(expected - set(rows))
    if missing:
        raise CheckFailed(f"energy map: missing row {missing[0]}")
    extra = sorted(set(rows) - expected)
    if extra:
        raise CheckFailed(f"energy map: unexpected row {extra[0]}")
    for (lab, order, _), (b_row, omega, sigma, flagged) in rows.items():
        if flagged:
            raise CheckFailed(f"energy map: row ({lab}, {order}) flagged ambiguous")
        if b_row != b_field:
            raise CheckFailed(f"energy map: field {b_row} != {b_field}")
        if (omega < 0) != bound:
            raise CheckFailed(f"energy map: sign of omega_res for ({lab}, {order})")
        k = abs(order)
        # criterion-09 bound: within the largest width / |m| plus 5 sigma
        limit = max(EM_WIDTHS.values()) / k + 5.0 * sigma
        if abs(abs(omega) - abs(energy) / k) > limit:
            raise CheckFailed(f"energy map: center of ({lab}, {order}) off by "
                              f"{abs(abs(omega) - abs(energy) / k):.0f} Hz > {limit:.0f} Hz")
    return None


# ---------------------------------------------------------------------------
# floquet_gap: one floquet-gap call per job
# ---------------------------------------------------------------------------

FQ_ORDERS = (1, 2, 3)
# A/w bands between integers: the solver's truncation order is
# 3 ceil(A/w) + 5, so within a band every job solves matrices of one size and
# each block holds the same mix of job costs
FQ_BANDS = ((0.5, 1.0),) + tuple((k, k + 1.0) for k in range(1, 9))
FQ_BAND_MARGIN = 0.05
FQ_RABI_RATIO = 0.02                 # Omega/w
FQ_REL_TOLERANCE = 0.01              # criterion-04 bound
# zeros of J_1, J_2, J_3 below 10: the RWA gap vanishes there and a relative
# comparison with it has no meaning, so draws keep 0.05 away from them
FQ_BESSEL_ZEROS = {1: (3.8317, 7.0156), 2: (5.1356, 8.4172), 3: (6.3802, 9.7610)}


def floquet_gap_block(rng: random.Random):
    draws = []
    for m in FQ_ORDERS:
        for lo, hi in FQ_BANDS:
            while True:
                ratio = round(rng.uniform(lo + FQ_BAND_MARGIN, hi - FQ_BAND_MARGIN), 6)
                if all(abs(ratio - z) > 0.05 for z in FQ_BESSEL_ZEROS[m]):
                    break
            draws.append(dict(m=m, ratio=ratio, f_hz=round(rng.uniform(50e3, 300e3), 3)))
    rng.shuffle(draws)
    return draws


def floquet_gap_job(p: dict, workdir: Path) -> Job:
    m, f_hz = p["m"], p["f_hz"]
    amplitude = p["ratio"] * f_hz
    out = workdir / "gap.json"
    calls = [["floquet-gap", "--omega-b-hz", repr(-m * f_hz),
              "--rabi-hz", repr(FQ_RABI_RATIO * f_hz), "--amplitude-hz", repr(amplitude),
              "--m", str(m), "--format", "json", "--output", str(out)]]

    def check():
        rows = _json_rows(out)
        if len(rows) != 1 or rows[0][0] != m:
            raise CheckFailed(f"floquet-gap: unexpected rows {rows!r}")
        gap, center = float(rows[0][1]), float(rows[0][2])
        if not (gap > 0 and center > 0):
            raise CheckFailed(f"floquet-gap: non-positive gap {gap} or center {center}")
        return (m, amplitude, FQ_RABI_RATIO * f_hz, gap, center)

    return Job(files={}, calls=calls, check=check)


def floquet_gap_deferred(records):
    """Criterion-04 oracle: gap within 1 % of Omega |J_m(A/w_center)|.
    Returns one cause (or None) per record."""
    from scipy.special import jv
    causes = []
    for m, amplitude, rabi, gap, center in records:
        rwa = rabi * abs(float(jv(m, amplitude / center)))
        rel = abs(gap - rwa) / rwa
        causes.append(None if rel <= FQ_REL_TOLERANCE else
                      f"floquet-gap: |gap - RWA|/RWA = {rel:.3g} > {FQ_REL_TOLERANCE}")
    return causes


# ---------------------------------------------------------------------------
# grid_tables: field scan, three light-shift tables, two frequency tables
# ---------------------------------------------------------------------------

GT_FIELD_POINTS = 800
GT_WIDTHS = {1: 20.0e3, 2: 15.0e3}   # Hz; wide enough that every dip is sampled
GT_FIELD_RANGES = {                  # (lowest, highest center, half-width), G
    "4g(4)": (19.0, 20.4, 0.4),
    "4d": (46.5, 48.5, 0.3),
    "6s": (18.3, 19.0, 0.3),         # spans the 6s/6g(6) crossing at 18.66 G
    "6g(6)": (18.4, 18.9, 0.3),
}
GT_INTENSITY_POINTS = 100
GT_TABLE_POINTS = 1000
# criterion-02 anchors for sigma-minus light 24 GHz red of D2, |F=3, mF=3>
GT_ANCHOR_DETUNING = -24e9
GT_RATE_ANCHOR = 167.0               # Hz per W/cm^2
GT_HEAT_ANCHOR = 11.0                # nK/ms per W/cm^2
GT_ANCHOR_TOLERANCE = 0.05


def grid_tables_block(rng: random.Random):
    labels = list(STATES)
    rng.shuffle(labels)
    draws = []
    for label in labels:
        lo_c, hi_c, half = GT_FIELD_RANGES[label]
        center = rng.uniform(lo_c, hi_c)
        while True:
            b_pick = rng.uniform(center - 0.6 * half, center + 0.6 * half)
            k_pick = rng.choice(tuple(GT_WIDTHS))
            f_mod = abs(float(state_energy(label, b_pick))) / k_pick
            if f_mod >= 30e3:
                break
        k = rng.choice((1, 2))
        draws.append(dict(
            state=label, b_lo=round(center - half, 6), b_hi=round(center + half, 6),
            f_mod=round(f_mod, 3),
            i_lo=round(rng.uniform(0.05, 0.3), 4), i_hi=round(rng.uniform(1.5, 3.0), 4),
            ff_detuning=round(rng.uniform(-40e9, -12e9), -6),
            ff_pol=rng.choice(("sigma-minus", "sigma-plus")),
            sl=dict(a_bk=round(rng.uniform(150, 250), 3),
                    delta_m_hz=round(rng.uniform(1e3, 5e3), 3),
                    omega0_hz=round(rng.uniform(100e3, 300e3), 3), m=-k),
            dr=dict(a_bk=round(rng.uniform(150, 250), 3),
                    delta_m_hz=round(rng.uniform(200, 800), 3),
                    gamma_hz=round(rng.uniform(20, 80), 3),
                    omega_b_hz=round(rng.uniform(100e3, 300e3), 3),
                    delta_shift_hz=round(rng.uniform(-500, 500), 3), m=k),
        ))
    return draws


def _table_args(params: dict, names):
    args = []
    for name in names:
        args += ["--" + name.replace("_", "-"), repr(params[name])]
    return args


def grid_tables_job(p: dict, workdir: Path) -> Job:
    cfg = _write_kv([
        ("scan", ["axis = field_Gauss", f"state = {p['state']}", "registry = builtin",
                  ("f_mod_hz", p["f_mod"]), ("start_G", p["b_lo"]), ("stop_G", p["b_hi"]),
                  ("points", GT_FIELD_POINTS), ("noise_sigma", 0.0)]),
        ("widths", [f"{k} {w!r}" for k, w in GT_WIDTHS.items()]),
    ])
    grid_i = f"{p['i_lo']!r}:{p['i_hi']!r}:{GT_INTENSITY_POINTS}"
    sl, dr = p["sl"], p["dr"]
    f_pole = sl["omega0_hz"] / -sl["m"]
    f_dressed = (dr["omega_b_hz"] - dr["delta_shift_hz"]) / dr["m"]
    grid_sl = f"{f_pole - 30e3!r}:{f_pole + 30.5e3!r}:{GT_TABLE_POINTS}"
    grid_dr = f"{f_dressed - 20e3!r}:{f_dressed + 20.5e3!r}:{GT_TABLE_POINTS}"
    out = {name: workdir / f"{name}.json" for name in
           ("fictitious-field", "scattering-rate", "heating-rate",
            "scattering-length", "dressed")}
    fmt = ["--format", "json", "--output"]
    calls = [
        ["scan", "--config", str(workdir / "field.cfg"), "--out", str(workdir / "field")],
        ["fictitious-field", "--intensity", grid_i, "--detuning", repr(p["ff_detuning"]),
         "--pol", p["ff_pol"]] + fmt + [str(out["fictitious-field"])],
        ["scattering-rate", "--intensity", grid_i, "--detuning", repr(GT_ANCHOR_DETUNING),
         "--pol", "sigma-minus", "--mf", "3"] + fmt + [str(out["scattering-rate"])],
        ["heating-rate", "--intensity", grid_i, "--detuning", repr(GT_ANCHOR_DETUNING),
         "--pol", "sigma-minus", "--mf", "3"] + fmt + [str(out["heating-rate"])],
        ["scattering-length", *_table_args(sl, ("a_bk", "delta_m_hz", "omega0_hz")),
         "--m", str(sl["m"]), "--grid", grid_sl] + fmt + [str(out["scattering-length"])],
        ["dressed", *_table_args(dr, ("a_bk", "delta_m_hz", "gamma_hz", "omega_b_hz",
                                      "delta_shift_hz")),
         "--m", str(dr["m"]), "--grid", grid_dr] + fmt + [str(out["dressed"])],
    ]

    def check():
        _check_field_scan(workdir / "field.csv", p)
        intensity = np.linspace(p["i_lo"], p["i_hi"], GT_INTENSITY_POINTS)
        _check_linear(out["fictitious-field"], intensity, "fictitious-field")
        for row in _json_rows(out["fictitious-field"]):
            _close(row[2], row[1] * 1e3, 1e-12, "fictitious-field mG column")
        rate = _check_linear(out["scattering-rate"], intensity, "scattering-rate")[0]
        heat = _check_linear(out["heating-rate"], intensity, "heating-rate")[0]
        for name, slope, anchor in (("scattering-rate", rate, GT_RATE_ANCHOR),
                                    ("heating-rate", heat, GT_HEAT_ANCHOR)):
            if abs(slope - anchor) > GT_ANCHOR_TOLERANCE * anchor:
                raise CheckFailed(f"{name}: {slope:.4g} per W/cm^2 vs anchor {anchor}")
        _check_scattering_length(out["scattering-length"], sl, grid_sl)
        _check_dressed(out["dressed"], dr, grid_dr)
        return None

    return Job(files={"field.cfg": cfg}, calls=calls, check=check)


def _grid(spec: str):
    start, stop, n = spec.split(":")
    return np.linspace(float(start), float(stop), int(n))


def _check_linear(path: Path, intensity, name):
    """Rows (I, value, ...) on the requested grid with value proportional to I;
    returns the per-unit-intensity values."""
    rows = _json_rows(path)
    if len(rows) != intensity.size:
        raise CheckFailed(f"{name}: {len(rows)} rows, expected {intensity.size}")
    per_unit = []
    for row, i_ref in zip(rows, intensity):
        _close(row[0], float(i_ref), 1e-12, f"{name} intensity")
        per_unit.append(row[1] / row[0])
    ref = per_unit[len(per_unit) // 2]
    for value in per_unit:
        _close(value, ref, 1e-12, f"{name} value per unit intensity")
    return per_unit


def _check_scattering_length(path: Path, sl: dict, grid: str):
    rows = _json_rows(path)
    freqs = _grid(grid)
    if len(rows) != freqs.size:
        raise CheckFailed(f"scattering-length: {len(rows)} rows, expected {freqs.size}")
    two_pi = 2.0 * math.pi
    for (f, a), f_ref in zip(rows, freqs):
        _close(f, float(f_ref), 1e-12, "scattering-length frequency")
        denom = -sl["m"] * (two_pi * f) - two_pi * sl["omega0_hz"]
        ref = sl["a_bk"] * (1.0 - two_pi * sl["delta_m_hz"] / denom)
        _close(a, ref, 1e-7, f"scattering-length a_s at {f!r} Hz")


def _check_dressed(path: Path, dr: dict, grid: str):
    rows = _json_rows(path)
    freqs = _grid(grid)
    if len(rows) != freqs.size:
        raise CheckFailed(f"dressed: {len(rows)} rows, expected {freqs.size}")
    two_pi = 2.0 * math.pi
    gamma = two_pi * dr["gamma_hz"]
    width = two_pi * dr["delta_m_hz"]
    for (f, alpha, beta), f_ref in zip(rows, freqs):
        _close(f, float(f_ref), 1e-12, "dressed frequency")
        detuning = two_pi * (dr["omega_b_hz"] - dr["delta_shift_hz"]) - dr["m"] * two_pi * f
        denom = detuning ** 2 + 0.25 * gamma ** 2
        _close(alpha, dr["a_bk"] * (1.0 + width * detuning / denom), 1e-7,
               f"dressed alpha at {f!r} Hz")
        _close(beta, dr["a_bk"] * width * 0.5 * gamma / denom, 1e-7,
               f"dressed beta at {f!r} Hz")


def _check_field_scan(path: Path, p: dict):
    """Dips sit where the registry puts |E(B)| = |m| f_mod.

    In units of the order's width, a grid point closer than 0.1 to a pole has
    |a_s| > 1800 a0 and must lie below half the atoms; one farther than 0.5
    from every pole has |a_s| < 600 a0 and must lie above half.
    """
    b_vals, y_vals = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("axis"):
            continue
        f = line.split(",")
        b_vals.append(float(f[1]))
        y_vals.append(float(f[2]))
    b = np.array(b_vals)
    y = np.array(y_vals)
    if b.size != GT_FIELD_POINTS:
        raise CheckFailed(f"field scan: {b.size} points, expected {GT_FIELD_POINTS}")
    if np.max(np.abs(b - np.linspace(p["b_lo"], p["b_hi"], GT_FIELD_POINTS))) > 1e-9:
        raise CheckFailed("field scan: field grid differs from the requested one")
    energy = np.abs(state_energy(p["state"], b))
    distance = np.min([np.abs(energy - k * p["f_mod"]) / w for k, w in GT_WIDTHS.items()],
                      axis=0)
    near = distance < 0.1
    far = distance > 0.5
    if not near.any():
        raise CheckFailed("field scan: no predicted dip inside the scan range")
    if np.any(y[near] >= 0.5):
        i = int(np.flatnonzero(near & (y >= 0.5))[0])
        raise CheckFailed(f"field scan: no dip at predicted B = {b[i]:.5f} G (y = {y[i]:.3f})")
    if np.any(y[far] <= 0.5):
        i = int(np.flatnonzero(far & (y <= 0.5))[0])
        raise CheckFailed(f"field scan: unexpected dip at B = {b[i]:.5f} G (y = {y[i]:.3f})")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable          # rng -> list of job parameter dicts
    job: Callable            # (params, workdir) -> Job
    deferred: Callable | None = None   # records -> list of causes (None = ok)


WORKLOADS = {
    "energy_map": Workload("energy_map", energy_map_block, energy_map_job),
    "floquet_gap": Workload("floquet_gap", floquet_gap_block, floquet_gap_job,
                            floquet_gap_deferred),
    "grid_tables": Workload("grid_tables", grid_tables_block, grid_tables_job),
}


VERBS = ("scan", "energy-map", "floquet-gap", "fictitious-field", "scattering-rate",
         "heating-rate", "scattering-length", "dressed")


def job_blocks(workload: str, seed: int, stream: str):
    """Endless, reproducible sequence of blocks of job parameter dicts."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    block = WORKLOADS[workload].block
    while True:
        yield block(rng)


def first_jobs(workload: str, seed: int, stream: str, count: int) -> list:
    jobs = []
    for block in job_blocks(workload, seed, stream):
        jobs += block
        if len(jobs) >= count:
            return jobs[:count]
