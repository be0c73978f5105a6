"""Command-line front end: every computation as a reproducible batch command.

Exit codes: 0 success, 2 usage/validation error, 3 domain error,
4 numerical non-convergence.  All numeric output uses '.' decimals via
repr/format, independent of locale; identical configs and seeds give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import atomdata, floquet, lightshift, scattering, spectra
from .errors import ConfigError, ConvergenceError, DomainError
from .keyvalue import finite, load_keyvalue, write_text

SPECIES_ENV_VAR = "MODFESH_SPECIES"
# cap on every count read from outside (grid and scan points, --m-max), checked
# before anything is allocated; the goldens and the benchmark use at most ~2,000
MAX_COUNT = 100_000

_POLARIZATIONS = {
    "sigma-minus": lightshift.Polarization.sigma_minus,
    "sigma-plus": lightshift.Polarization.sigma_plus,
    "linear": lightshift.Polarization.linear,
    "pi": lightshift.Polarization.pi,
}


def _count(n: int, what: str, path=None, line=None) -> int:
    if not 1 <= n <= MAX_COUNT:
        raise ConfigError(f"{what} must be between 1 and {MAX_COUNT}, got {n}", path, line)
    return n


def _parse_grid(text: str):
    """'0.87' -> [0.87]; '0.2:1.7:16' -> 16 points from 0.2 to 1.7."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec {text!r} must be start:stop:points")
        try:
            start, stop, n = finite(parts[0]), finite(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"cannot parse grid spec {text!r}") from None
        return np.linspace(start, stop, _count(n, f"points of grid {text!r}"))
    try:
        return np.array([finite(text)])
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window {text!r} must be lo:hi")
    try:
        return finite(parts[0]), finite(parts[1])
    except ValueError:
        raise ConfigError(f"cannot parse window {text!r}") from None


def _load_species(args) -> atomdata.AtomSpecies:
    path = args.species or os.environ.get(SPECIES_ENV_VAR)
    if path:
        return atomdata.load_species(path)
    return atomdata.cesium()


def _load_registry(spec: str) -> list:
    """The molecular-state registry named by 'builtin' or a file path."""
    return atomdata.cesium_states() if spec == "builtin" else atomdata.load_state_registry(spec)


def _emit(args, header, columns):
    """Write the columns (one sequence per header name) per --format and --output;
    DomainError, before anything is written, if a float column is not all finite."""
    for name, column in zip(header, columns):
        values = np.asarray(column)
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise DomainError(f"{name} is not finite for these inputs")
    write_text(spectra.render(args.format, header, columns), args.output)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _fictitious_field_columns(field, species, f_level, m_f):
    b = lightshift.fictitious_field(field, species, f_level)
    return b, b * 1e3


# verb -> (help, takes --mf, value columns, values(field, species, F, mF));
# each lightshift function runs once on the whole intensity grid
_LIGHT_TABLES = {
    "fictitious-field": ("vector-light-shift fictitious magnetic field", False,
                         ("B_fict_G", "B_fict_mG"), _fictitious_field_columns),
    "scattering-rate": ("photon scattering rate of |F, mF>", True, ("scattering_rate_Hz",),
                        lambda *a: (lightshift.scattering_rate(*a),)),
    "heating-rate": ("recoil heating rate in nK/ms", True, ("heating_rate_nK_per_ms",),
                     lambda *a: (lightshift.heating_rate(*a),)),
}


def cmd_light_table(args) -> int:
    species = _load_species(args)
    f_level = args.f_level if args.f_level is not None else species.ground_F
    m_f = getattr(args, "mf", None)
    intensity = _parse_grid(args.intensity)
    field = lightshift.LightField(intensity=intensity, detuning=args.detuning,
                                  polarization=_POLARIZATIONS[args.pol]())
    _, _, names, values = _LIGHT_TABLES[args.command]
    columns = (intensity, *values(field, species, f_level, f_level if m_f is None else m_f))
    _emit(args, ["intensity_W_cm2", *names], columns)
    return 0


def cmd_resonances(args) -> int:
    omega_b = 2.0 * math.pi * args.omega_b_hz
    rows = [(m, w_res / (2.0 * math.pi)) for m, w_res in
            floquet.resonance_frequencies(omega_b, _count(args.m_max, "--m-max"))]
    _emit(args, ["m", "f_res_Hz"], list(zip(*rows)))
    return 0


def cmd_floquet_gap(args) -> int:
    if args.m == 0:
        raise ConfigError("--m must be non-zero")
    omega_b = 2.0 * math.pi * args.omega_b_hz
    model = floquet.DrivenTwoLevel(omega_alpha=0.0, omega_beta=-omega_b,
                                   Omega=2.0 * math.pi * args.rabi_hz,
                                   A=2.0 * math.pi * args.amplitude_hz,
                                   omega_mod=2.0 * math.pi * abs(args.omega_b_hz / args.m))
    w_expect = -omega_b / args.m
    if args.window:
        lo, hi = _parse_window(args.window)
        window = (2.0 * math.pi * lo, 2.0 * math.pi * hi)
    else:
        half = 0.02 * w_expect / abs(args.m)
        window = (w_expect - half, w_expect + half)
    gap, center = floquet.avoided_crossing_gap(model, args.m, window)
    model_at = floquet.DrivenTwoLevel(model.omega_alpha, model.omega_beta,
                                      model.Omega, model.A, center)
    rwa = abs(floquet.effective_coupling(model_at, args.m))
    _emit(args, ["m", "gap_Hz", "center_Hz", "rwa_gap_Hz"],
          [[args.m], [gap / (2 * math.pi)], [center / (2 * math.pi)], [rwa / (2 * math.pi)]])
    return 0


def cmd_scattering_length(args) -> int:
    model = scattering.ResonanceModel(a_bk=args.a_bk,
                                      delta_m=2.0 * math.pi * args.delta_m_hz,
                                      omega0=2.0 * math.pi * args.omega0_hz,
                                      m=args.m)
    f = _parse_grid(args.grid)
    a_s = scattering.scattering_length(model, 2.0 * math.pi * f)
    _emit(args, ["f_Hz", "a_s_a0"], (f, a_s))
    return 0


def cmd_dressed(args) -> int:
    model = scattering.DressedChannelModel(
        a_bk=args.a_bk, delta_m=2.0 * math.pi * args.delta_m_hz,
        gamma_in=2.0 * math.pi * args.gamma_hz,
        omega_b=2.0 * math.pi * args.omega_b_hz,
        delta_shift=2.0 * math.pi * args.delta_shift_hz, m=args.m)
    f = _parse_grid(args.grid)
    alpha, beta = scattering.dressed_alpha_beta(model, 2.0 * math.pi * f,
                                                k=args.k_wavenumber,
                                                k_convention=args.k_convention,
                                                reduced_mass=atomdata.CS_MASS / 2.0)
    _emit(args, ["f_Hz", "alpha_a0", "beta_a0"], (f, alpha, beta))
    return 0


# -- scan ------------------------------------------------------------------

def cmd_scan(args) -> int:
    path = args.config
    sections = load_keyvalue(path)
    scan_sec = None
    res_secs = []
    widths_sec = None
    for sec in sections:
        if sec.name == "scan":
            scan_sec = sec
        elif sec.name == "resonance":
            res_secs.append(sec)
        elif sec.name == "widths":
            widths_sec = sec
        else:
            raise ConfigError(f"unknown section [{sec.name}]", path, sec.line)
    if scan_sec is None:
        raise ConfigError("missing [scan] section", path)

    axis = scan_sec.values.get("axis", spectra.AXIS_FREQ)
    seed = scan_sec.get_int("seed", None)
    if args.seed is not None:
        seed = args.seed
    common = dict(
        hold_time=scan_sec.get_float("hold_time_ms", 5.0) * 1e-3,
        density=scan_sec.get_float("density_cm3", 1e13),
        noise_sigma=scan_sec.get_float("noise_sigma", 0.0),
        seed=seed,
    )
    metadata = {}
    for key in ("field_G", "intensity_W_cm2"):
        if key in scan_sec.values:
            metadata[key] = scan_sec.get_float(key)

    if axis == spectra.AXIS_FREQ:
        if not res_secs:
            raise ConfigError("frequency scan needs at least one [resonance] section", path)
        start = scan_sec.get_float("start_hz")
        stop = scan_sec.get_float("stop_hz")
        n = _count(scan_sec.get_int("points"), "points", path, scan_sec.value_lines["points"])
        dc_shift = scan_sec.get_float("dc_shift_hz", 0.0)
        models = []
        for sec in res_secs:
            models.append(scattering.ResonanceModel(
                a_bk=sec.get_float("a_bk"),
                delta_m=2 * math.pi * sec.get_float("delta_m_hz"),
                omega0=2 * math.pi * (sec.get_float("omega0_hz") + dc_shift),
                m=sec.get_int("m")))
        spec = spectra.synthesize_spectrum(models, np.linspace(start, stop, n),
                                           metadata=metadata, **common)
    elif axis == spectra.AXIS_FIELD:
        if widths_sec is None or not widths_sec.rows:
            raise ConfigError("field scan needs a [widths] section with '<|m|> <width_hz>' rows",
                              path)
        widths = {}
        for lineno, tokens in widths_sec.rows:
            if len(tokens) != 2:
                raise ConfigError("width row must be '<|m|> <width_hz>'", path, lineno)
            try:
                widths[int(tokens[0])] = finite(tokens[1])
            except ValueError:
                raise ConfigError(f"cannot parse width row {' '.join(tokens)!r}",
                                  path, lineno) from None
        registry = _load_registry(scan_sec.values.get("registry", "builtin"))
        label = scan_sec.values.get("state")
        if label is None:
            raise ConfigError("field scan needs 'state = <label>'", path, scan_sec.line)
        state = next((s for s in registry if s.label == label), None)
        if state is None:
            raise ConfigError(f"state {label!r} not in registry", path, scan_sec.line)
        start = scan_sec.get_float("start_G")
        stop = scan_sec.get_float("stop_G")
        n = _count(scan_sec.get_int("points"), "points", path, scan_sec.value_lines["points"])
        spec = spectra.synthesize_field_scan(
            state, registry, scan_sec.get_float("f_mod_hz"),
            np.linspace(start, stop, n), widths,
            a_bk=scan_sec.get_float("a_bk", 200.0),
            dc_shift_hz=scan_sec.get_float("dc_shift_hz", 0.0),
            metadata=metadata, **common)
    else:
        raise ConfigError(f"unknown axis {axis!r}", path, scan_sec.line)

    base = Path(args.out)
    spectra.write_spectrum_csv(spec, base.with_suffix(".csv"))
    spectra.write_spectrum_json(spec, base.with_suffix(".json"))
    sys.stdout.write(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')} "
                     f"({len(spec)} points)\n")
    return 0


# -- fit ---------------------------------------------------------------------

def _read_plain_csv(path, n_cols_min):
    """(line number, numeric row) pairs; only the first non-comment line may
    be a header, one whose first field is not a number."""
    rows = spectra.read_csv_rows(path)
    if rows:
        try:
            float(rows[0][1][0])
        except ValueError:
            del rows[0]   # header row
    if not rows:
        raise ConfigError("no data rows", path)
    numeric = []
    for lineno, fields in rows:
        try:
            numeric.append((lineno, [finite(f) for f in fields]))
        except ValueError:
            raise ConfigError("cannot parse numeric row", path, lineno) from None
        if len(fields) < n_cols_min:
            raise ConfigError(f"need at least {n_cols_min} columns", path, lineno)
    return numeric


def _fit(args) -> dict:
    """The report of --model fitted to --input; ConvergenceError if it fails."""
    if args.model == "fano":
        spec = spectra.read_spectrum_csv(args.input)
        fit = spectra.fit_fano(spec, window=_parse_window(args.window) if args.window else None)
        return {"params": {"center": fit.center, "width": fit.width, "q": fit.q,
                           "amplitude": fit.amplitude, "offset": fit.offset},
                "center_stderr": fit.center_stderr, "covariance": fit.covariance.tolist(),
                "residual_norm": fit.residual_norm, "iterations": fit.iterations}
    if args.model == "lz":
        data = []
        for lineno, r in _read_plain_csv(args.input, 3):
            if r[2] not in (1.0, -1.0):
                raise ConfigError(f"branch must be 1 or -1, got {r[2]!r}", args.input, lineno)
            data.append((r[0], r[1], int(r[2])))
        fit = spectra.fit_landau_zener(data)
        return {"params": {"v_ij_hz": fit.v_ij, "e_i0_hz": fit.e_i0,
                           "slope_i_hz_per_G": fit.slope_i, "e_j0_hz": fit.e_j0,
                           "slope_j_hz_per_G": fit.slope_j, "b_center_G": fit.b_center},
                "covariance": fit.covariance.tolist(), "residual_norm": fit.residual_norm,
                "iterations": fit.iterations, "condition_warning": fit.condition_warning}
    # linear shift compensation
    rows = [r for _, r in _read_plain_csv(args.input, 2)]
    sigma = [r[2] for r in rows] if all(len(r) >= 3 for r in rows) else None
    fit = spectra.fit_linear_shift([(r[0], r[1]) for r in rows], sigma)
    return {"params": {"zero_intensity_center_hz": fit.intercept,
                       "slope_hz_per_intensity": fit.slope},
            "stderr": {"intercept": fit.intercept_stderr, "slope": fit.slope_stderr},
            "residual_norm": fit.residual_norm}


def cmd_fit(args) -> int:
    try:
        report = {"converged": True, **_fit(args)}
    except ConvergenceError as exc:
        report = {"converged": False, "error": str(exc),
                  "last_params": None if exc.last is None else list(map(float, exc.last))}
    write_text(spectra.render_json({"model": args.model, **report}), args.output)
    return 0 if report["converged"] else 4


def cmd_energy_map(args) -> int:
    scan_dir = Path(args.scan_dir)
    if not scan_dir.is_dir():
        raise ConfigError(f"{scan_dir} is not a directory")
    files = sorted(scan_dir.glob("*.json"))
    if not files:
        raise ConfigError(f"no spectrum JSON files in {scan_dir}")
    scans = []
    for path in files:
        spec = spectra.read_spectrum_json(path)
        try:
            b_field = finite(spec.metadata["field_G"])
            intensity = finite(spec.metadata["intensity_W_cm2"])
        except KeyError as exc:
            raise ConfigError(f"spectrum metadata lacks {exc}", path) from None
        except (TypeError, ValueError):
            raise ConfigError("spectrum metadata field_G and intensity_W_cm2 must be finite "
                              "numbers", path) from None
        scans.append((b_field, spec, intensity))
    points = spectra.assemble_energy_map(
        scans, _load_registry(args.registry), min_depth=args.min_depth,
        min_separation_hz=args.min_separation_hz)
    if args.output:
        spectra.write_energy_map_csv(points, args.output)
        sys.stdout.write(f"wrote {args.output} ({len(points)} points)\n")
    else:
        _emit(args, ["B_Gauss", "omega_res_Hz", "order_m", "state", "bound", "flagged"],
              list(zip(*[(p.B, p.omega_res, p.order_m, p.state_label, int(p.bound),
                          int(p.flagged)) for p in points])))
    n_flagged = sum(p.flagged for p in points)
    if n_flagged:
        sys.stderr.write(f"{n_flagged} ambiguous association(s) flagged\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# argparse's stock matcher rejects scientific notation, breaking values like
# '--detuning -24e9'; widen it on every (sub)parser we build
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.?\d+([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modfesh",
        description="Modulation-induced Feshbach resonance toolkit")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write result to this file instead of stdout")
    table = argparse.ArgumentParser(add_help=False, parents=[output])
    table.add_argument("--format", choices=("table", "csv", "json"), default="table")

    light = argparse.ArgumentParser(add_help=False, parents=[table])
    light.add_argument("--species", help=f"species data file (default: ${SPECIES_ENV_VAR} "
                                         "or embedded cesium)")
    light.add_argument("--intensity", required=True,
                       help="W/cm^2, single value or start:stop:points grid")
    light.add_argument("--detuning", type=finite, required=True,
                       help="Hz, signed, relative to the D2 F->F'=F+1 line (red < 0)")
    light.add_argument("--pol", choices=sorted(_POLARIZATIONS), required=True)
    light.add_argument("--f-level", type=int, default=None,
                       help="hyperfine manifold F (default: species ground F)")

    for verb, (help_text, takes_mf, _, _) in _LIGHT_TABLES.items():
        p = sub.add_parser(verb, parents=[light], help=help_text)
        if takes_mf:
            p.add_argument("--mf", type=int, default=None,
                           help="mF (default: stretched, mF = F)")
        p.set_defaults(func=cmd_light_table)

    p = sub.add_parser("resonances", parents=[table],
                       help="modulation-resonance positions (fundamental + subharmonics)")
    p.add_argument("--omega-b-hz", type=finite, required=True,
                   help="free-to-bound gap omega_b/2pi in Hz (positive: state below threshold)")
    p.add_argument("--m-max", type=int, default=3)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("floquet-gap", parents=[table],
                       help="numerical avoided-crossing gap vs the RWA prediction")
    p.add_argument("--omega-b-hz", type=finite, required=True)
    p.add_argument("--rabi-hz", type=finite, required=True, help="bare coupling Omega/2pi")
    p.add_argument("--amplitude-hz", type=finite, required=True, help="drive amplitude A/2pi")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window", default=None, help="scan window lo:hi in Hz")
    p.set_defaults(func=cmd_floquet_gap)

    p = sub.add_parser("scattering-length", parents=[table],
                       help="effective scattering length vs modulation frequency")
    p.add_argument("--a-bk", type=finite, required=True, help="background length, Bohr radii")
    p.add_argument("--delta-m-hz", type=finite, required=True)
    p.add_argument("--omega0-hz", type=finite, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", required=True, help="frequency grid start:stop:points in Hz")
    p.set_defaults(func=cmd_scattering_length)

    p = sub.add_parser("dressed", parents=[table],
                       help="dressed-atom complex scattering length alpha - i beta")
    p.add_argument("--a-bk", type=finite, required=True)
    p.add_argument("--delta-m-hz", type=finite, required=True)
    p.add_argument("--gamma-hz", type=finite, required=True, help="inelastic coupling gamma/2pi")
    p.add_argument("--omega-b-hz", type=finite, required=True)
    p.add_argument("--delta-shift-hz", type=finite, default=0.0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--k-wavenumber", type=finite, default=0.0, help="collisional k in 1/m")
    p.add_argument("--k-convention", choices=("collision_energy", "wavenumber"),
                   default="collision_energy")
    p.set_defaults(func=cmd_dressed)

    p = sub.add_parser("scan", help="synthesize a loss spectrum from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output base path (.csv and .json)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", parents=[output],
                       help="fit a spectrum or crossing data; JSON report")
    p.add_argument("--model", choices=("fano", "lz", "linear"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--window", default=None, help="fano fit window lo:hi (axis units)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("energy-map", parents=[table],
                       help="assemble the binding-energy map from processed scans",
                       epilog="--output always writes the 8-column CSV (B_Gauss, omega_res_Hz, "
                              "order_m, state, bound, sigma_Hz, flagged, note), whatever "
                              "--format says; --format applies to stdout only")
    p.add_argument("--scan-dir", required=True,
                   help="directory of spectrum JSON files with field_G/intensity metadata")
    p.add_argument("--registry", default="builtin",
                   help="molecular-state registry file, or 'builtin'")
    p.add_argument("--min-depth", type=finite, default=0.05)
    p.add_argument("--min-separation-hz", type=finite, default=8e3)
    p.set_defaults(func=cmd_energy_map)

    for action in sub.choices.values():
        action._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run(argv=None) -> int:
    """Entry point with the exit-code contract applied."""
    try:
        return main(argv)
    except SystemExit as exc:   # argparse: 0 for --help, 2 for usage errors
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(run())
