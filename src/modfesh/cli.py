"""Command-line front end: every computation as a reproducible batch command.

Exit codes: 0 success, 2 usage/validation error, 3 domain error,
4 numerical non-convergence.  All numeric output uses '.' decimals via
repr/format, independent of locale; identical configs and seeds give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import atomdata, floquet, lightshift, scattering, spectra
from .errors import ConfigError, ConvergenceError, DomainError
from .fitting import weighted_linear_fit
from .keyvalue import REQUIRED, finite, load_keyvalue, parse_fields, write_text

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


def _count(n: int, what: str) -> int:
    if not 1 <= n <= MAX_COUNT:
        raise ConfigError(f"{what} must be between 1 and {MAX_COUNT}, got {n}")
    return n


def seed(text: str) -> int:
    """A random seed: a non-negative integer (argparse reports a bad one as an
    "invalid seed value", after this function's name)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"a seed must be non-negative, got {value}")
    return value


def positive(text: str) -> float:
    """A finite number above 0 (argparse: "invalid positive value")."""
    if (value := finite(text)) <= 0:
        raise ValueError(f"must be above 0, got {value!r}")
    return value


def fraction(text: str) -> float:
    """A finite number strictly between 0 and 1."""
    if not 0 < (value := finite(text)) < 1:
        raise ValueError(value)
    return value


def _parse_grid(text: str):
    """'0.87' -> [0.87]; '0.2:1.7:16' -> 16 points from 0.2 to 1.7."""
    if ":" not in text:
        return np.array(parse_fields((text,), (finite,), "number"))
    start, stop, n = parse_fields(text.split(":"), (finite, finite, int),
                                  f"grid spec {text!r} (start:stop:points)")
    return np.linspace(start, stop, _count(n, f"points of grid {text!r}"))


def _load_species(args) -> atomdata.AtomSpecies:
    path = args.species or os.environ.get(SPECIES_ENV_VAR)
    if path:
        return atomdata.load_species(path)
    return atomdata.cesium()


def _load_registry(spec: str) -> list:
    """The molecular-state registry named by 'builtin' or a file path."""
    return atomdata.cesium_states() if spec == "builtin" else atomdata.load_state_registry(spec)


def _emit(args, header, columns):
    """Write the columns per --format and --output."""
    write_text(spectra.render(args.format, header, columns), args.output)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _fictitious_field_columns(field, species, f_level, m_f):
    b = lightshift.fictitious_field(field, species, f_level)
    return b, b * 1e3


# verb -> (help, takes --f-level and --mf, value columns, values(field, species, F, mF));
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
    f_level, m_f = getattr(args, "f_level", None), getattr(args, "mf", None)
    f_level = species.ground_F if f_level is None else f_level
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
        lo, hi = parse_fields(args.window.split(":"), (finite, finite),
                              f"window {args.window!r} (lo:hi)")
        f_expect = -args.omega_b_hz / args.m
        if not lo <= f_expect <= hi:        # checked here so the message is in Hz
            raise DomainError(f"window [{lo}, {hi}] Hz does not bracket the expected "
                              f"resonance {f_expect} Hz")
        window = (2.0 * math.pi * lo, 2.0 * math.pi * hi)
    else:
        half = 0.02 * w_expect / abs(args.m)
        window = (w_expect - half, w_expect + half)
    gap, center = floquet.avoided_crossing_gap(model, args.m, window)
    rwa = abs(floquet.effective_coupling(dataclasses.replace(model, omega_mod=center), args.m))
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
    alpha, beta = scattering.dressed_alpha_beta(model, 2.0 * math.pi * f, k=args.k_wavenumber)
    _emit(args, ["f_Hz", "alpha_a0", "beta_a0"], (f, alpha, beta))
    return 0


# -- scan ------------------------------------------------------------------

def cmd_scan(args) -> int:
    path = args.config
    sections = load_keyvalue(path, ("scan", "resonance", "widths"))
    if len(sections["scan"]) != 1:
        raise ConfigError("a scan config needs exactly one [scan] section", path,
                          sections["scan"][1].line if sections["scan"] else None)
    scan_sec = sections["scan"][0]
    axis = scan_sec.get("axis", str, spectra.AXIS_FREQ)
    if axis not in (spectra.AXIS_FREQ, spectra.AXIS_FIELD):
        raise ConfigError(f"unknown axis {axis!r}", path, scan_sec.line)
    refused = "widths" if axis == spectra.AXIS_FREQ else "resonance"
    if sections[refused]:
        raise ConfigError(f"a {axis} scan takes no [{refused}] section", path,
                          sections[refused][0].line)
    config_seed = scan_sec.get("seed", seed, None)

    def non_negative(text: str) -> float:
        if (value := finite(text)) < 0:
            raise ValueError(f"must be at least 0, got {value!r}")
        return value

    common = dict(
        hold_time=scan_sec.get("hold_time_ms", positive, 5.0) * 1e-3,
        density=scan_sec.get("density_cm3", positive, 1e13),
        noise_sigma=scan_sec.get("noise_sigma", non_negative, 0.0),
        seed=config_seed if args.seed is None else args.seed,
    )
    metadata = {key: scan_sec.get(key, finite, None) for key in ("field_G", "intensity_W_cm2")}
    metadata = {key: value for key, value in metadata.items() if value is not None}
    dc_shift = scan_sec.get("dc_shift_hz", finite, 0.0)
    n = scan_sec.get("points", lambda text: _count(int(text), "points"), REQUIRED)

    if axis == spectra.AXIS_FREQ:
        if not sections["resonance"]:
            raise ConfigError("frequency scan needs at least one [resonance] section", path)
        start = scan_sec.get("start_hz", finite, REQUIRED)
        stop = scan_sec.get("stop_hz", finite, REQUIRED)
        models = []
        for sec in sections["resonance"]:
            values = (sec.get("a_bk", finite, REQUIRED),
                      2 * math.pi * sec.get("delta_m_hz", finite, REQUIRED),
                      2 * math.pi * (sec.get("omega0_hz", finite, REQUIRED) + dc_shift),
                      sec.get("m", int, REQUIRED))
            try:
                models.append(scattering.ResonanceModel(*values))
            except DomainError as exc:
                raise ConfigError(str(exc), path, sec.line) from None
        synthesize = functools.partial(spectra.synthesize_spectrum, models)
    else:
        widths_secs = sections["widths"]
        if len(widths_secs) != 1 or not widths_secs[0].rows:
            raise ConfigError("field scan needs one [widths] section with '<|m|> <width_hz>' rows",
                              path, widths_secs[-1].line if widths_secs else None)
        widths = {}
        for lineno, (k, width) in widths_secs[0].take_rows(
                (lambda text: _count(int(text), "|m|"), finite), "width row (<|m|> <width_hz>)"):
            if k in widths:
                raise ConfigError(f"repeated order |m| = {k} in [widths]", path, lineno)
            widths[k] = width
        registry = _load_registry(scan_sec.get("registry", str, "builtin"))
        label = scan_sec.get("state", str, REQUIRED)
        state = next((s for s in registry if s.label == label), None)
        if state is None:
            raise ConfigError(f"state {label!r} not in registry", path, scan_sec.line)
        start = scan_sec.get("start_G", finite, REQUIRED)
        stop = scan_sec.get("stop_G", finite, REQUIRED)
        synthesize = functools.partial(
            spectra.synthesize_field_scan, state, registry,
            scan_sec.get("f_mod_hz", finite, REQUIRED), widths_hz=widths,
            # read through ResonanceModel's own check, so a refused a_bk is a config error
            a_bk=scan_sec.get("a_bk", lambda text: scattering.ResonanceModel(
                finite(text), 0.0, 0.0, 1).a_bk, 200.0), dc_shift_hz=dc_shift)
    for sec in (scan_sec, *sections["resonance"], *sections["widths"]):
        sec.done()
    spec = synthesize(np.linspace(start, stop, n), metadata=metadata, **common)

    base = Path(args.out)
    spectra.write_spectrum(spec, base)
    sys.stdout.write(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')} "
                     f"({len(spec)} points)\n")
    return 0


# -- fit ---------------------------------------------------------------------

def _read_plain_csv(path, what, *shapes):
    """The rows through parse_fields, all with one shape (a tuple of parsers):
    the first shape no shorter than the first row, else the last.  Only the
    first non-comment line may be a header, one whose first field is not a
    number."""
    rows = spectra.read_csv_rows(path)
    if rows:
        try:
            float(rows[0][1][0])
        except ValueError:
            del rows[0]   # header row
    if not rows:
        raise ConfigError("no data rows", path)
    parsers = next((p for p in shapes if len(p) >= len(rows[0][1])), shapes[-1])
    return [parse_fields(fields, parsers, what, path, lineno) for lineno, fields in rows]


def _branch(text: str) -> int:
    """An lz row's branch: 1 or -1."""
    value = finite(text)
    if value not in (1.0, -1.0):
        raise ValueError(f"branch must be 1 or -1, got {value!r}")
    return int(value)


def _report(fit, params: dict, **extra) -> dict:
    """The report of a LeastSquaresFit whose params are in covariance order;
    README "Command line" lists its keys and when they are null."""
    without = fit.covariance is None    # fitting._covariance decides
    return {"params": params,
            "stderr": dict(zip(params, [None] * len(params) if without else fit.stderr.tolist())),
            "covariance": None if without else fit.covariance.tolist(),
            "condition": fit.condition if math.isfinite(fit.condition) else None,
            "residual_norm": fit.residual_norm, "dof": fit.dof, **extra}


def _fit(args) -> dict:
    """The report of --model fitted to --input; ConvergenceError if it fails."""
    if args.model == "fano":
        spec = spectra.read_spectrum_csv(args.input)
        window = parse_fields(args.window.split(":"), (finite, finite),
                              f"window {args.window!r} (lo:hi)") if args.window else None
        fit = spectra.fit_fano(spec, window=window)
        return _report(fit, {"center": fit.center, "width": fit.width, "q": fit.q,
                             "amplitude": fit.amplitude, "offset": fit.offset},
                       iterations=fit.iterations, stop=fit.stop)
    if args.model == "lz":
        fit = spectra.fit_landau_zener(_read_plain_csv(args.input, "lz row (B_Gauss,E_Hz,branch)",
                                                       (finite, finite, _branch)))
        return _report(fit, {"e_i0_hz": fit.e_i0, "slope_i_hz_per_G": fit.slope_i,
                             "e_j0_hz": fit.e_j0, "slope_j_hz_per_G": fit.slope_j,
                             "v_ij_hz": fit.v_ij},
                       iterations=fit.iterations, stop=fit.stop, b_center_G=fit.b_center)
    # linear shift compensation
    rows = _read_plain_csv(args.input, "linear row (intensity,center[,sigma])",
                           (finite, finite), (finite, finite, finite))
    if len(rows) < 3:
        raise DomainError("need at least 3 (intensity, center) points")
    fit = weighted_linear_fit(*zip(*rows))
    return _report(fit, {"zero_intensity_center_hz": fit.intercept,
                         "slope_hz_per_intensity": fit.slope})


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
            b_field, intensity = parse_fields(
                [spec.metadata[key] for key in ("field_G", "intensity_W_cm2")], (finite, finite),
                "spectrum metadata field_G, intensity_W_cm2", path)
        except KeyError as exc:
            raise ConfigError(f"spectrum metadata lacks {exc}", path) from None
        scans.append((b_field, spec, intensity))
    points = spectra.assemble_energy_map(
        scans, _load_registry(args.registry), min_depth=args.min_depth,
        min_separation_hz=args.min_separation_hz)
    header = ["B_Gauss", "omega_res_Hz", "order_m", "state", "bound", "sigma_Hz", "flagged",
              "note"]
    columns = list(zip(*[(p.B, p.omega_res, p.order_m, p.state_label, int(p.bound), p.sigma,
                          int(p.flagged), p.note.replace(",", ";")) for p in points]))
    write_text(spectra.render("csv" if args.output else args.format, header, columns),
               args.output)
    if args.output:
        sys.stdout.write(f"wrote {args.output} ({len(points)} points)\n")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one read-only parser of the process, built on first call: parse_args
    returns a fresh Namespace each time and never changes the parser."""
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

    for verb, (help_text, takes_state, _, _) in _LIGHT_TABLES.items():
        p = sub.add_parser(verb, parents=[light], help=help_text)
        if takes_state:
            p.add_argument("--f-level", type=int, default=None,
                           help="hyperfine manifold F (default: species ground F)")
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
    p.set_defaults(func=cmd_dressed)

    p = sub.add_parser("scan", help="synthesize a loss spectrum from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output base path (.csv and .json)")
    p.add_argument("--seed", type=seed, default=None, help="override the config seed")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", parents=[output],
                       help="fit a spectrum or crossing data; JSON report")
    p.add_argument("--model", choices=("fano", "lz", "linear"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--window", default=None, help="fano fit window lo:hi (axis units)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("energy-map", parents=[table],
                       help="assemble the binding-energy map from processed scans")
    p.add_argument("--scan-dir", required=True,
                   help="directory of spectrum JSON files with field_G/intensity metadata")
    p.add_argument("--registry", default="builtin",
                   help="molecular-state registry file, or 'builtin'")
    p.add_argument("--min-depth", type=fraction, default=0.05)
    p.add_argument("--min-separation-hz", type=positive, default=8e3)
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
        with np.errstate(all="ignore"):   # no numpy warnings on stderr; render refuses inf/nan
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
    except OverflowError:   # Python-float ** and math functions raise where numpy gives inf
        sys.stderr.write("domain error: a number overflows double precision for these inputs\n")
        return 3
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(run())
