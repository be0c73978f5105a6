"""Golden outputs: every CLI verb, in each --format it honours, on fixed inputs.

Each case runs the CLI in a fresh directory and compares stdout and every
file the verb writes with tests/golden/<case>.<name>, byte for byte.  The one
exception is floquet-gap, whose gap_Hz, center_Hz and rwa_gap_Hz cells are
compared at FLOQUET_RTOL (see FLOQUET_RTOL).

Regenerate after a deliberate output change (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from modfesh.atomdata import cesium, cesium_states, molecular_energy, save_species, \
    save_state_registry
from modfesh.cli import run
from modfesh.scattering import ResonanceModel
from modfesh.spectra import read_csv_rows, read_spectrum_csv, synthesize_spectrum, \
    write_spectrum

GOLDEN_DIR = Path(__file__).with_name("golden")

# The gap search stops at a relative x-tolerance of floquet.GAP_XTOL_REL =
# 3e-9 in the center; another quasi-energy engine moves the center within
# that bracket, and the gap and the RWA gap (evaluated at the center) with it.
FLOQUET_RTOL = 1e-8

FORMATS = ("table", "csv", "json")
LIGHT = ("--intensity", "0.2:1.7:6", "--detuning", "-23e9", "--pol", "sigma-minus")

FREQ_SCAN = """\
[scan]
start_hz = 60e3
stop_hz = 250e3
points = 400
hold_time_ms = 5
density_cm3 = 3e12
noise_sigma = 0.01
seed = 42
field_G = 19.41
intensity_W_cm2 = 0.87

[resonance]
a_bk = 200
delta_m_hz = 3e3
omega0_hz = 228.7e3
m = -1

[resonance]
a_bk = 200
delta_m_hz = 2e3
omega0_hz = 228.7e3
m = -2
"""

FIELD_SCAN = """\
[scan]
axis = field_Gauss
state = 4g(4)
f_mod_hz = 150e3
start_G = 19.2
stop_G = 20.5
points = 90
seed = 3
noise_sigma = 0.01
registry = {tmp}/states.cfg
[widths]
1 3e3
"""


def _lz_rows():
    """Two avoided-crossing branches with a fixed, deterministic scatter."""
    lines = ["B_Gauss,E_Hz,branch"]
    for i in range(21):
        b = 18.56 + 0.01 * i
        ei = -182e3 - 1.35e6 * (b - 18.66)
        ej = -182e3 - 8e3 * (b - 18.66)
        root = math.hypot(ei - ej, 25e3)
        for s, e in ((1, 0.5 * (ei + ej + root)), (-1, 0.5 * (ei + ej - root))):
            lines.append(f"{b!r},{e + 400.0 * math.sin(7.0 * i + s)!r},{s}")
    return "\n".join(lines) + "\n"


def _energy_map_scans(tmp: Path):
    """Three 4g(4) scans at 19.41 G (0.4/0.8/1.2 W/cm^2), written by `scan`."""
    registry = cesium_states()
    state = next(s for s in registry if s.label == "4g(4)")
    energy = molecular_energy(state, 19.41, registry)
    scan_dir = tmp / "scans"
    scan_dir.mkdir()
    for i, intensity in enumerate((0.4, 0.8, 1.2)):
        body = ["[scan]", "start_hz = 95e3", "stop_hz = 250e3", "points = 1034",
                "density_cm3 = 3e12", "noise_sigma = 0.01", f"seed = {50 + i}",
                "field_G = 19.41", f"intensity_W_cm2 = {intensity!r}",
                f"dc_shift_hz = {-2e3 * intensity * 0.57!r}"]
        for k, width in ((1, 3e3), (2, 2e3)):
            body += ["[resonance]", "a_bk = 200", f"delta_m_hz = {width!r}",
                     f"omega0_hz = {-energy!r}", f"m = {-k}"]
        cfg = tmp / f"map_{i}.cfg"
        cfg.write_text("\n".join(body) + "\n")
        assert run(["scan", "--config", str(cfg), "--out", str(scan_dir / f"scan_{i}")]) == 0
    for path in scan_dir.glob("*.csv"):
        path.unlink()
    save_state_registry(cesium_states(), tmp / "states.cfg")


def _fit_inputs(tmp: Path):
    (tmp / "scan.cfg").write_text(FREQ_SCAN)
    assert run(["scan", "--config", str(tmp / "scan.cfg"), "--out", str(tmp / "spec")]) == 0
    (tmp / "lz.csv").write_text(_lz_rows())
    (tmp / "lin.csv").write_text(
        "intensity,center,sigma\n0.4,227.9e3,50\n0.8,227.15e3,40\n1.2,226.3e3,60\n")
    # README's m = -1 line on a 56 Hz grid: a resolved dip, unlike spec.csv's
    line = ResonanceModel(a_bk=200.0, delta_m=2 * np.pi * 3e3, omega0=2 * np.pi * 228.7e3,
                          m=-1)
    write_spectrum(synthesize_spectrum([line], np.linspace(200e3, 256e3, 1001),
                                       noise_sigma=0.01, seed=42), tmp / "resolved")


def _species(tmp: Path):
    save_species(cesium(), tmp / "cs.species")


def _registry(tmp: Path):
    save_state_registry(cesium_states(), tmp / "states.cfg")


def _cases():
    """case name -> (argv, setup, files the verb writes)."""
    cases = {}
    for fmt in FORMATS:
        for verb in ("fictitious-field", "scattering-rate", "heating-rate"):
            cases[f"{verb}-{fmt}"] = ([verb, *LIGHT, "--format", fmt], None, ())
        cases[f"fictitious-field-species-{fmt}"] = (
            ["fictitious-field", *LIGHT, "--species", "{tmp}/cs.species", "--format", fmt],
            _species, ())
        cases[f"scattering-rate-mf-{fmt}"] = (
            ["scattering-rate", "--intensity", "1.0", "--detuning", "24e9", "--pol", "pi",
             "--f-level", "3", "--mf", "-2", "--format", fmt], None, ())
        cases[f"resonances-{fmt}"] = (
            ["resonances", "--omega-b-hz", "228.7e3", "--m-max", "4", "--format", fmt],
            None, ())
        cases[f"scattering-length-{fmt}"] = (
            ["scattering-length", "--a-bk", "200", "--delta-m-hz", "1e3",
             "--omega0-hz", "228.7e3", "--m", "-1", "--grid", "200e3:260e3:13",
             "--format", fmt], None, ())
        cases[f"dressed-{fmt}"] = (
            ["dressed", "--a-bk", "200", "--delta-m-hz", "500", "--gamma-hz", "50",
             "--omega-b-hz", "228.7e3", "--m", "1", "--grid", "220e3:240e3:9",
             "--k-wavenumber", "3e6", "--format", fmt], None, ())
        for name, gap_args in (
                ("m1", ("--omega-b-hz", "-150e3", "--rabi-hz", "3e3",
                        "--amplitude-hz", "150e3", "--m", "1")),
                ("m2", ("--omega-b-hz", "-200e3", "--rabi-hz", "10e3",
                        "--amplitude-hz", "250e3", "--m", "2")),
                ("m3-window", ("--omega-b-hz", "-240e3", "--rabi-hz", "4e3",
                               "--amplitude-hz", "440e3", "--m", "3",
                               "--window", "79e3:81e3"))):
            cases[f"floquet-gap-{name}-{fmt}"] = (
                ["floquet-gap", *gap_args, "--format", fmt], None, ())
        cases[f"energy-map-{fmt}"] = (
            ["energy-map", "--scan-dir", "{tmp}/scans", "--format", fmt],
            _energy_map_scans, ())
    cases["energy-map-registry-output"] = (
        ["energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg",
         "--output", "{tmp}/map.csv"], _energy_map_scans, ("map.csv",))
    cases["scan-freq"] = (
        ["scan", "--config", "{tmp}/scan.cfg", "--out", "{tmp}/spec"],
        lambda tmp: (tmp / "scan.cfg").write_text(FREQ_SCAN), ("spec.csv", "spec.json"))
    cases["scan-field"] = (
        ["scan", "--config", "{tmp}/field.cfg", "--out", "{tmp}/field", "--seed", "11"],
        lambda tmp: (_registry(tmp),
                     (tmp / "field.cfg").write_text(FIELD_SCAN.replace("{tmp}", str(tmp)))),
        ("field.csv", "field.json"))
    cases["fit-fano"] = (
        ["fit", "--model", "fano", "--input", "{tmp}/spec.csv", "--window", "200e3:256e3"],
        _fit_inputs, ())
    cases["fit-fano-output"] = (
        ["fit", "--model", "fano", "--input", "{tmp}/spec.csv", "--window", "100e3:130e3",
         "--output", "{tmp}/report.json"], _fit_inputs, ("report.json",))
    cases["fit-lz"] = (["fit", "--model", "lz", "--input", "{tmp}/lz.csv"], _fit_inputs, ())
    cases["fit-linear"] = (["fit", "--model", "linear", "--input", "{tmp}/lin.csv"],
                           _fit_inputs, ())
    return cases


CASES = _cases()


def run_case(name: str, tmp: Path, capsys, extra=()) -> dict:
    """Run one case in tmp, with extra appended to its argv; returns
    {golden file name: text}."""
    argv, setup, written = CASES[name]
    if setup is not None:
        setup(tmp)
    capsys.readouterr()
    code = run([a.replace("{tmp}", str(tmp)) for a in (*argv, *extra)])
    out, err = capsys.readouterr()
    assert code == 0, err
    outputs = {f"{name}.stdout": out.replace(str(tmp), "{tmp}")}
    for file_name in written:
        outputs[f"{name}.{file_name}"] = (tmp / file_name).read_text(encoding="utf-8")
    return outputs


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _max_rel_diff(expected: str, actual: str):
    """Largest |e - a| / max(|e|, |a|) over the numbers of two texts; None when
    the text outside the numbers differs."""
    exp_nums, act_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", actual) or \
            len(exp_nums) != len(act_nums):
        return None
    pairs = [(float(e), float(a)) for e, a in zip(exp_nums, act_nums)]
    return max((abs(e - a) / max(abs(e), abs(a)) for e, a in pairs if e != a), default=0.0)


def _close_numbers(expected: str, actual: str, rtol: float) -> bool:
    """Equal text outside numbers, and numbers equal to a relative rtol."""
    diff = _max_rel_diff(expected, actual)
    return diff is not None and diff <= rtol


def _assert_golden(name: str, outputs: dict):
    for file_name, text in outputs.items():
        expected = (GOLDEN_DIR / file_name).read_text(encoding="utf-8")
        if name.startswith("floquet-gap-"):
            # the text around the numbers (columns, layout, m) stays exact
            assert _close_numbers(expected, text, FLOQUET_RTOL), (file_name, text)
        else:
            assert text == expected, file_name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    _assert_golden(name, run_case(name, tmp_path, capsys))


def test_shared_parser_keeps_no_state(tmp_path, capsys):
    """Every case again in this process, in reverse order, each after a usage
    error and a --help of its verb: run() shares one parser, and no call
    changes what the next one parses."""
    for name in sorted(CASES, reverse=True):
        verb = CASES[name][0][0]
        assert run([verb, "--bogus", "1"]) == 2
        assert run([verb, "--help"]) == 0
        (tmp_path / name).mkdir()
        _assert_golden(name, run_case(name, tmp_path / name, capsys))


@pytest.mark.parametrize("name,first,changes", [
    ("scan-freq", ("--seed", "7"), True),
    ("dressed-csv", ("--delta-shift-hz", "5"), True),
    # the registry file holds the builtin states, so only a carried-over path shows
    ("energy-map-csv", ("--registry", "{tmp}/states.cfg"), False),
], ids=["scan-seed", "dressed-delta-shift", "energy-map-registry"])
def test_option_does_not_carry_over(name, first, changes, tmp_path, capsys):
    """A value given in one call is not the default of the next: the same
    case without it gives the plain golden.  The first call's directory is
    gone by then, so a path that carried over would fail to read."""
    (tmp_path / "first").mkdir()
    outputs = run_case(name, tmp_path / "first", capsys, first)
    assert changes == any(text != (GOLDEN_DIR / file_name).read_text(encoding="utf-8")
                          for file_name, text in outputs.items())
    shutil.rmtree(tmp_path / "first")
    (tmp_path / "second").mkdir()
    _assert_golden(name, run_case(name, tmp_path / "second", capsys))


def test_every_verb_has_a_golden():
    from modfesh.cli import build_parser
    verbs = build_parser()._subparsers._group_actions[0].choices
    assert {v for v in verbs if not any(c.startswith(v + "-") or c == v for c in CASES)} \
        == set()


def test_energy_map_stdout_is_the_map_file(tmp_path, capsys):
    """One column list: `energy-map --format csv` prints what `--output` writes."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    printed = run_case("energy-map-csv", tmp_path / "a", capsys)["energy-map-csv.stdout"]
    run_case("energy-map-csv", tmp_path / "b", capsys, ("--output", "{tmp}/map.csv"))
    assert printed == (tmp_path / "b" / "map.csv").read_text(encoding="utf-8")


def test_two_intensity_rows_have_a_sigma(tmp_path, capsys):
    """Without scan_2.json each line is seen at exactly two intensities, and the
    linear fit through its centers has no degrees of freedom: sigma_Hz is the
    intercept sigma propagated from the centers' sigmas, finite and above 0.
    The m = -2 fits are spikes on the 155e3/1033 Hz grid, so both carry the
    sampling sigma."""
    _energy_map_scans(tmp_path)
    (tmp_path / "scans" / "scan_2.json").unlink()
    capsys.readouterr()
    assert run(["energy-map", "--scan-dir", str(tmp_path / "scans"), "--format", "csv"]) == 0
    rows = [row.split(",") for row in capsys.readouterr()[0].splitlines()[2:]]
    assert [(row[2], row[7]) for row in rows] == \
        [(m, "shift compensation from only two intensities") for m in ("-2", "-1")]
    assert all(0.0 < float(row[5]) < math.inf for row in rows)
    sampling = 155e3 / 1033 / math.sqrt(12.0)
    assert float(rows[0][5]) == pytest.approx(sampling * math.hypot(0.8, 0.4) / 0.4, rel=1e-9)


# the keys of every fit report, and those one model adds
REPORT_KEYS = {"model", "converged", "schema_version", "params", "stderr", "covariance",
               "condition", "residual_norm", "dof"}
MODEL_KEYS = {"fano": {"iterations", "stop"}, "lz": {"iterations", "stop", "b_center_G"},
              "linear": set()}
# each model's parameters in covariance order
PARAMS = {"fano": ["center", "width", "q", "amplitude", "offset"],
          "lz": ["e_i0_hz", "slope_i_hz_per_G", "e_j0_hz", "slope_j_hz_per_G", "v_ij_hz"],
          "linear": ["zero_intensity_center_hz", "slope_hz_per_intensity"]}


def _fit_report(case: str, tmp: Path, capsys):
    """The report of the fit-<model> case, on the resolved dip for
    fano-resolved, and the number of points it fitted."""
    name = f"fit-{case.split('-')[0]}"
    extra = ("--input", "{tmp}/resolved.csv") if case == "fano-resolved" else ()
    report = json.loads(run_case(name, tmp, capsys, extra)[f"{name}.stdout"])
    argv = [a.replace("{tmp}", str(tmp)) for a in (*CASES[name][0], *extra)]
    path = [argv[i + 1] for i, a in enumerate(argv) if a == "--input"][-1]   # last one wins
    if report["model"] == "fano":
        lo, hi = map(float, argv[argv.index("--window") + 1].split(":"))
        x = read_spectrum_csv(path).x
        return report, int(np.count_nonzero((x >= lo) & (x <= hi)))
    return report, len(read_csv_rows(path)) - 1     # less the header row


@pytest.mark.parametrize("case", ["fano", "fano-resolved", "lz", "linear"])
def test_one_fit_report(case, tmp_path, capsys):
    """Every model writes the same keys (b_center_G and the LM iteration
    count apart) and dof = points - fitted parameters.  The nulls are all or
    nothing: without degrees of freedom or at a condition of 1/eps or more
    (only the fano golden's one-sample spike) covariance and every stderr are
    null; otherwise every stderr is the square root of its variance."""
    report, n = _fit_report(case, tmp_path, capsys)
    model = report["model"]
    assert set(report) == REPORT_KEYS | MODEL_KEYS[model]
    assert set(report["params"]) == set(report["stderr"]) == set(PARAMS[model])
    assert report["dof"] == n - len(PARAMS[model])
    singular = report["condition"] >= 1.0 / np.finfo(float).eps
    assert singular == (case == "fano")
    assert (report["covariance"] is None) == (singular or report["dof"] <= 0)
    if report["covariance"] is None:
        assert set(report["stderr"].values()) == {None}
        return
    for i, name in enumerate(PARAMS[model]):
        assert report["stderr"][name] == math.sqrt(report["covariance"][i][i])


def test_readme_lists_the_outputs(tmp_path, capsys):
    """README's "Command line" lists the energy-map columns and, per model,
    the fit-report keys and covariance order that the code writes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    columns = re.search(r"Every `energy-map` output has the same 8 columns: `([^`]+)`",
                        readme).group(1)
    printed = run_case("energy-map-csv", tmp_path, capsys)["energy-map-csv.stdout"]
    assert " ".join(columns.split()).split(", ") == printed.splitlines()[1].split(",")

    keys = readme.split("Every model of `fit` writes one report shape.", 1)[1]
    items = keys.split("\n\n", 2)[1].split("\n- ")
    for model in MODEL_KEYS:
        listed = set()
        for item in items:
            head = item.split(":", 1)[0]
            only = re.search(r"\(([a-z, ]+)\)", head)
            if only is None or model in only.group(1).split(", "):
                listed.update(re.findall(r"`(\w+)`", head))
        assert listed == REPORT_KEYS | MODEL_KEYS[model], model
        order = re.search(rf"\n  - {model}: `([^`]+)`", readme).group(1)
        assert order.split(", ") == PARAMS[model], model


def _regenerate():
    import contextlib
    import io
    import tempfile

    class Capture:                     # stands in for pytest's capsys
        buffer = io.StringIO()

        def readouterr(self):
            out = self.buffer.getvalue()
            self.buffer.seek(0)
            self.buffer.truncate()
            return out, ""

    GOLDEN_DIR.mkdir(exist_ok=True)
    cap = Capture()
    changed = 0
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(cap.buffer):
            outputs = run_case(name, Path(tmp), cap)
        for file_name, text in outputs.items():
            path = GOLDEN_DIR / file_name
            old = path.read_text(encoding="utf-8") if path.exists() else None
            # a floquet-gap file that test_golden accepts at FLOQUET_RTOL is kept
            if old == text or (old is not None and name.startswith("floquet-gap-")
                               and _close_numbers(old, text, FLOQUET_RTOL)):
                continue
            path.write_text(text, encoding="utf-8")
            changed += 1
            if old is None:
                note = "new file"
            else:
                diff = _max_rel_diff(old, text)
                note = "layout changed" if diff is None else f"max relative difference {diff:.3g}"
            print(f"wrote {path}: {note}")
    print(f"{changed} golden files changed")


if __name__ == "__main__":
    _regenerate()
