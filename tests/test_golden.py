"""Golden outputs: every CLI verb, in each --format it honours, on fixed inputs.

Each case runs the CLI in a fresh directory and compares stdout and every
file the verb writes with tests/golden/<case>.<name>, byte for byte.  The one
exception is floquet-gap, whose gap_Hz, center_Hz and rwa_gap_Hz cells are
compared at FLOQUET_RTOL (see FLOQUET_RTOL).

Regenerate after a deliberate output change (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from modfesh.atomdata import cesium, cesium_states, molecular_energy, save_species, \
    save_state_registry
from modfesh.cli import run

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


def run_case(name: str, tmp: Path, capsys) -> dict:
    """Run one case in tmp; returns {golden file name: text}."""
    argv, setup, written = CASES[name]
    if setup is not None:
        setup(tmp)
    capsys.readouterr()
    code = run([a.replace("{tmp}", str(tmp)) for a in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    outputs = {f"{name}.stdout": out.replace(str(tmp), "{tmp}")}
    for file_name in written:
        outputs[f"{name}.{file_name}"] = (tmp / file_name).read_text(encoding="utf-8")
    return outputs


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close_numbers(expected: str, actual: str, rtol: float) -> bool:
    """Equal text outside numbers, and numbers equal to a relative rtol."""
    exp_nums, act_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", actual) or \
            len(exp_nums) != len(act_nums):
        return False
    return all(math.isclose(float(e), float(a), rel_tol=rtol, abs_tol=0.0)
               for e, a in zip(exp_nums, act_nums))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    for file_name, text in run_case(name, tmp_path, capsys).items():
        expected = (GOLDEN_DIR / file_name).read_text(encoding="utf-8")
        if name.startswith("floquet-gap-"):
            # the text around the numbers (columns, layout, m) stays exact
            assert _close_numbers(expected, text, FLOQUET_RTOL), (file_name, text)
        else:
            assert text == expected, file_name


def test_every_verb_has_a_golden():
    from modfesh.cli import build_parser
    verbs = build_parser()._subparsers._group_actions[0].choices
    assert {v for v in verbs if not any(c.startswith(v + "-") or c == v for c in CASES)} \
        == set()


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
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(cap.buffer):
            outputs = run_case(name, Path(tmp), cap)
        for file_name, text in outputs.items():
            (GOLDEN_DIR / file_name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN_DIR / file_name}")


if __name__ == "__main__":
    _regenerate()
