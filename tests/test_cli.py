import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import modfesh
from modfesh import floquet
from modfesh.atomdata import (MolecularState, cesium, cesium_states, crossing_branches,
                              molecular_energy, save_state_registry)
from modfesh.cli import MAX_COUNT, build_parser, run
from modfesh.lightshift import LightField, Polarization, fictitious_field, scattering_rate
from modfesh.scattering import ResonanceModel
from modfesh.spectra import (read_spectrum_csv, read_spectrum_json, synthesize_spectrum,
                             write_spectrum)


def run_module(*argv):
    """`python -m modfesh.cli argv` in a fresh interpreter, text output captured."""
    src = str(Path(modfesh.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "modfesh.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGlobalBehavior:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "modfesh" in out

    def test_subcommand_help_exits_zero(self, capsys):
        for cmd in ("fictitious-field", "scattering-rate", "heating-rate", "resonances",
                    "floquet-gap", "scattering-length", "dressed", "scan", "fit",
                    "energy-map"):
            code, out, _ = run_cli(capsys, cmd, "--help")
            assert code == 0, cmd

    def test_invalid_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "resonances", "--bogus", "1")
        assert code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "fictitious-field", "--intensity", "0.87")
        assert code == 2

    def test_species_env_var(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.species"
        path.write_text("[species]\nground_gF = -0.2503\n", encoding="utf-8")
        monkeypatch.setenv("MODFESH_SPECIES", str(path))
        code, out, _ = run_cli(capsys, "fictitious-field", "--intensity", "0.87",
                               "--detuning", "-23e9", "--pol", "sigma-minus",
                               "--format", "json")
        assert code == 0
        # modified g_F scales the field by 0.25/0.2503
        expected = fictitious_field(LightField(0.87, -23e9, Polarization.sigma_minus()),
                                    cesium(), 3) * (0.25 / 0.2503)
        assert json.loads(out)["rows"][0][1] == pytest.approx(expected, rel=1e-9)


TABLE_FLAGS = ["--format", "--output"]
LIGHT_FLAGS = TABLE_FLAGS + ["--detuning", "--intensity", "--pol", "--species"]
# verb -> the option strings it takes; README "Command line" says which verbs
# take the shared --format, --output and --species
OPTIONS = {
    "fictitious-field": LIGHT_FLAGS,
    "scattering-rate": LIGHT_FLAGS + ["--f-level", "--mf"],
    "heating-rate": LIGHT_FLAGS + ["--f-level", "--mf"],
    "resonances": TABLE_FLAGS + ["--m-max", "--omega-b-hz"],
    "floquet-gap": TABLE_FLAGS + ["--amplitude-hz", "--m", "--omega-b-hz", "--rabi-hz",
                                  "--window"],
    "scattering-length": TABLE_FLAGS + ["--a-bk", "--delta-m-hz", "--grid", "--m",
                                        "--omega0-hz"],
    "dressed": TABLE_FLAGS + ["--a-bk", "--delta-m-hz", "--delta-shift-hz", "--gamma-hz",
                              "--grid", "--k-wavenumber", "--m",
                              "--omega-b-hz"],
    "scan": ["--config", "--out", "--seed"],
    "fit": ["--input", "--model", "--output", "--window"],
    "energy-map": TABLE_FLAGS + ["--min-depth", "--min-separation-hz", "--registry",
                                 "--scan-dir"],
}


def test_option_surface():
    """Each verb takes exactly the options it reads: no flag that changes nothing."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {verb: sorted(s for a in p._actions if not isinstance(a, argparse._HelpAction)
                          for s in a.option_strings)
             for verb, p in sub.choices.items()}
    assert found == {verb: sorted(opts) for verb, opts in OPTIONS.items()}


def test_no_unused_imports():
    """Every module-level import of a package module (bar __init__) is read."""
    unused = []
    for path in sorted(Path(modfesh.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - read)]
    assert unused == []


# Defaulted parameters that no src call passes, each kept for a reader outside src.
_SYNTHESIS_INPUT = ("a physical input of the scan config; cmd_scan passes it through "
                    "**common to a functools.partial of the synthesizer")
UNCALLED_DEFAULTS = {
    ("cli", "run", "argv"): "the entry point: tests and perfbench pass argv",
    **{("spectra", synth, name): _SYNTHESIS_INPUT
       for synth in ("synthesize_spectrum", "synthesize_field_scan")
       for name in ("hold_time", "density", "noise_sigma", "seed", "metadata")},
}


def _src_calls():
    """callee name -> [(positional args, keywords)] of every call in a src
    module; functools.partial(f, ...) counts as a call of f."""
    calls = {}
    for path in sorted(Path(modfesh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                if getattr(func, "attr", None) == "partial" and args:
                    func, args = args[0], args[1:]
                name = getattr(func, "attr", getattr(func, "id", None))
                calls.setdefault(name, []).append((args, node.keywords))
    return calls


def test_library_defaults_have_callers():
    """Every defaulted parameter of a src function, method or constructor is
    passed at some src call of that name (by keyword, by position, or through
    *args/**kwargs or functools.partial), or is in UNCALLED_DEFAULTS; a value
    no caller sets is a constant.  A listed entry that gains a caller fails too."""
    package = Path(modfesh.__file__).parent
    defaults = {}   # (module, callable, parameter) -> argument position, None if keyword-only

    def collect(module, name, obj, shift=0):
        try:
            params = list(inspect.signature(obj).parameters.values())
        except ValueError:   # a builtin constructor, e.g. an exception's
            return
        for i, p in enumerate(params):
            if p.default is not p.empty:
                defaults[(module, name, p.name)] = (
                    i - shift if p.kind is p.POSITIONAL_OR_KEYWORD else None)

    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"modfesh.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            collect(path.stem, name, obj)
            for attr, member in vars(obj).items() if isinstance(obj, type) else ():
                if not attr.startswith("__") and isinstance(
                        member, (types.FunctionType, staticmethod, classmethod)):
                    collect(path.stem, attr, getattr(obj, attr),
                            shift=isinstance(member, types.FunctionType))   # self
    calls = _src_calls()

    def passed(name, param, position):
        return any(any(isinstance(a, ast.Starred) for a in args)
                   or (position is not None and position < len(args))
                   or any(k.arg in (None, param) for k in keywords)
                   for args, keywords in calls.get(name, ()))

    uncalled = {key for key, position in defaults.items() if not passed(*key[1:], position)}
    assert uncalled - UNCALLED_DEFAULTS.keys() == set()   # no src caller sets these
    assert UNCALLED_DEFAULTS.keys() - uncalled == set()   # listed, yet a src call passes them


# Parameters that every src call passes one literal, each kept for a reader outside src.
_DIPOLE_RANK = ("the rank 1 of the dipole operator in the light-shift sums; criterion 10 "
                "and test_specfun pass other values")
CONSTANT_ARGUMENTS = {
    ("specfun", "wigner_3j", "j2"): _DIPOLE_RANK,
    ("specfun", "wigner_6j", "j3"): _DIPOLE_RANK,
}


def test_arguments_vary_across_callers():
    """No parameter of a module-level src function is passed the same literal
    at every src call of that name, unless it is in CONSTANT_ARGUMENTS; a value
    every caller fixes is a constant.  A call that leaves the parameter out,
    passes *args/**kwargs or passes an expression makes it vary.  A listed
    entry that gains another value fails too."""
    package = Path(modfesh.__file__).parent
    calls = _src_calls()

    def literal(args, keywords, position, param):
        """repr of the literal a call passes as param, None if it passes no literal."""
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in keywords):
            return None
        node = next((k.value for k in keywords if k.arg == param.name),
                    args[position] if position < len(args)
                    and param.kind is not param.KEYWORD_ONLY else None)
        try:
            return repr(ast.literal_eval(node)) if node is not None else None
        except ValueError:   # not a literal
            return None

    constant = set()
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"modfesh.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name not in calls:
                continue
            params = inspect.signature(getattr(module, node.name)).parameters.values()
            for position, param in enumerate(params):
                values = {literal(*call, position, param) for call in calls[node.name]}
                if len(values) == 1 and None not in values:
                    constant.add((path.stem, node.name, param.name))
    assert constant - CONSTANT_ARGUMENTS.keys() == set()   # every src caller fixes these
    assert CONSTANT_ARGUMENTS.keys() - constant == set()   # listed, yet a caller varies them


README_PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```",
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"), re.S | re.M)

# Public names that nothing outside the unit tests reads, each kept for a reason.
UNREAD_PUBLIC_NAMES = {
    ("floquet", "floquet_spectrum"): "TestMatrixAgreement checks its quasi-energies against "
                                     "the truncated-matrix oracle",
    ("spectra", "fano_profile"): "the model whose parameters FanoFit reports, and the "
                                 "tests' scipy reference",
    ("atomdata", "crossing_branches"): "the branch energies that the 6s/6g(6) avoided-"
                                       "crossing chain scans and fits",
}


def test_public_names_have_readers():
    """Every name in a module's __all__, and every public method or property
    of an exported class, is read (an ast Name or Attribute load, not a
    string) in a src module, in the acceptance criteria, in perfbench or in a
    python block of README, or is in UNREAD_PUBLIC_NAMES.  A listed name that
    gains a reader fails too."""
    package = Path(modfesh.__file__).parent
    root = package.parents[1]
    texts = [path.read_text(encoding="utf-8") for path in
             [*sorted(package.glob("*.py")), root / "tests" / "test_acceptance.py",
              *sorted((root / "perfbench").glob("*.py"))] if path.name != "__init__.py"]
    texts += README_PYTHON_BLOCKS
    names, attributes = set(), set()   # Name loads, and the attr of Attribute loads
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)

    unread = set()
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"modfesh.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if name not in names and name not in attributes:
                unread.add((path.stem, name))
            obj = getattr(module, name)
            for attr, member in vars(obj).items() if isinstance(obj, type) else ():
                if (not attr.startswith("_") and attr not in attributes and isinstance(
                        member, (types.FunctionType, staticmethod, classmethod, property))):
                    unread.add((path.stem, f"{name}.{attr}"))
    assert unread - UNREAD_PUBLIC_NAMES.keys() == set()   # no reader: give it one or delete it
    assert UNREAD_PUBLIC_NAMES.keys() - unread == set()   # listed, yet now read


def test_module_constants_have_readers():
    """Every name that a src module assigns at its top level, dunders aside, is
    read (an ast Name or Attribute load) in src, in tests, in perfbench or in a
    python block of README."""
    root = Path(modfesh.__file__).parents[2]
    read = set()
    for text in [path.read_text(encoding="utf-8") for pattern in
                 ("src/modfesh/*.py", "tests/*.py", "perfbench/*.py")
                 for path in sorted(root.glob(pattern))] + README_PYTHON_BLOCKS:
        for node in ast.walk(ast.parse(text)):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(getattr(node, "id", getattr(node, "attr", None)))
    unread = []
    for path in sorted((root / "src" / "modfesh").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [(path.stem, name.id) for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name) and name.id not in read
                       and not (name.id.startswith("__") and name.id.endswith("__"))]
    assert unread == []


@pytest.mark.parametrize("block", README_PYTHON_BLOCKS,
                         ids=[f"block-{i}" for i in range(1, len(README_PYTHON_BLOCKS) + 1)])
def test_readme_python_block_runs(tmp_path, monkeypatch, block):
    """Each python block of README runs as written, in an empty directory."""
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


class TestFictitiousField:
    def test_benchmark_row(self, capsys):
        code, out, _ = run_cli(capsys, "fictitious-field", "--intensity", "0.87",
                               "--detuning", "-23e9", "--pol", "sigma-minus",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = fictitious_field(LightField(0.87, -23e9, Polarization.sigma_minus()),
                                    cesium(), 3)
        assert payload["rows"][0][1] == pytest.approx(expected, rel=1e-12)
        assert abs(payload["rows"][0][2]) == pytest.approx(28.6133, rel=1e-4)

    def test_linear_polarization_zero_row(self, capsys):
        code, out, _ = run_cli(capsys, "fictitious-field", "--intensity", "0.87",
                               "--detuning", "-23e9", "--pol", "linear",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0][1] == pytest.approx(0.0, abs=1e-12)

    def test_intensity_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fictitious-field", "--intensity", "0.2:1.0:5",
                               "--detuning", "-23e9", "--pol", "sigma-minus",
                               "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 5

    def test_near_resonance_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "fictitious-field", "--intensity", "0.87",
                               "--detuning", "-1e6", "--pol", "sigma-minus")
        assert code == 3
        assert "domain error" in err


class TestRates:
    def test_scattering_rate_row(self, capsys):
        code, out, _ = run_cli(capsys, "scattering-rate", "--intensity", "1.0",
                               "--detuning", "-24e9", "--pol", "sigma-minus",
                               "--format", "json")
        assert code == 0
        expected = scattering_rate(LightField(1.0, -24e9, Polarization.sigma_minus()),
                                   cesium(), 3, 3)
        assert json.loads(out)["rows"][0][1] == pytest.approx(expected, rel=1e-12)

    def test_heating_rate_row(self, capsys):
        code, out, _ = run_cli(capsys, "heating-rate", "--intensity", "1.0",
                               "--detuning", "-24e9", "--pol", "sigma-minus",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0][1] == pytest.approx(10.9643, rel=1e-4)

    def test_angular_momentum_over_cap_exits_two(self, tmp_path, capsys):
        """A species file with F = 100000 is refused when it is loaded (the
        embedded F = 3 lines do not fit I = 200001/2), before any Wigner
        symbol is evaluated for seconds; WIGNER_MAX_J guards direct calls."""
        species = tmp_path / "big.species"
        species.write_text("[species]\nnuclear_spin = 200001/2\nground_F = 100000\n"
                           "[transitions]\n"
                           "D2 100000 100001 351730902170000.0 3.7971e-29 32815191.9\n")
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "scattering-rate", "--species", str(species),
                                 "--f-level", "100000", "--mf", "0", "--pol", "pi",
                                 "--intensity", "1.0", "--detuning", "-24e9")
        assert time.perf_counter() - t0 < 0.5
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert f"{species}: line 1: D1 3->3: F outside |I - J|..I + J" in err


class TestResonancesAndGap:
    def test_resonance_table(self, capsys):
        code, out, _ = run_cli(capsys, "resonances", "--omega-b-hz", "228.7e3",
                               "--m-max", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r[0] for r in rows] == [-1, -2, -3]
        assert rows[1][1] == pytest.approx(114.35e3)

    def test_floquet_gap_matches_rwa(self, capsys):
        code, out, _ = run_cli(capsys, "floquet-gap", "--omega-b-hz", "-150e3",
                               "--rabi-hz", "3e3", "--amplitude-hz", "150e3",
                               "--m", "1", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        gap, rwa = row[1], row[3]
        assert gap == pytest.approx(rwa, rel=0.01)

    def test_floquet_gap_at_a_tiny_drive(self, capsys):
        """At A = 1e-60 Hz the RWA gap is Omega J_1(A/w) = Omega A / (2 w), not
        nan (exit 3): one Bessel recurrence step used to overflow there."""
        code, out, err = run_cli(capsys, "floquet-gap", "--omega-b-hz", "-150e3",
                                 "--rabi-hz", "3e3", "--amplitude-hz", "1e-60",
                                 "--m", "1", "--format", "json")
        assert code == 0 and err == ""
        _, _, center, rwa = json.loads(out)["rows"][0]
        assert rwa == pytest.approx(3e3 * 1e-60 / (2 * center), rel=1e-12)

    def test_floquet_gap_csv_fields_are_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "floquet-gap", "--omega-b-hz", "-150e3",
                               "--rabi-hz", "3e3", "--amplitude-hz", "150e3",
                               "--m", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "m,gap_Hz,center_Hz,rwa_gap_Hz"
        for field in lines[2].split(","):
            float(field)

    STRONG_GAP = ("floquet-gap", "--omega-b-hz", "-1000", "--rabi-hz", "400",
                  "--amplitude-hz", "2000", "--m", "1")

    def test_floquet_gap_build_cap_exits_four(self, capsys, monkeypatch):
        # this strong-coupling search settles on the vertex of its 7th build
        monkeypatch.setattr(floquet, "GAP_MAX_BUILDS", 6)
        code, out, err = run_cli(capsys, *self.STRONG_GAP)
        assert code == 4
        assert out == "" and err.startswith("convergence error: ") and err.count("\n") == 1
        assert "6 propagator builds" in err

    def test_floquet_gap_reads_its_last_build(self, capsys, monkeypatch):
        """The search above succeeds at a cap of 7: the vertex of the last
        build a cap allows is read."""
        monkeypatch.setattr(floquet, "GAP_MAX_BUILDS", 7)
        code, out, err = run_cli(capsys, *self.STRONG_GAP)
        assert code == 0 and err == "" and out

    def test_floquet_gap_window_error_in_hz(self, capsys):
        """A --window that misses the resonance is reported in the Hz it was
        given in, not in rad/s (936,194 for 149,000 Hz)."""
        code, out, err = run_cli(capsys, "floquet-gap", "--omega-b-hz", "-150000",
                                 "--rabi-hz", "3000", "--amplitude-hz", "150000",
                                 "--m", "1", "--window", "149000:149001")
        assert code == 3
        assert out == "" and "Traceback" not in err
        assert "149000" in err and "149001" in err and "150000" in err and "Hz" in err
        assert "936" not in err and "942" not in err


class TestScatteringLengthCmd:
    @pytest.mark.parametrize("verb", ["scattering-length", "dressed"])
    def test_zero_a_bk_exits_three(self, capsys, verb):
        """Both models refuse a zero background scattering length alike."""
        code, out, err = run_cli(capsys, *_with_flag(TABLE_VERBS[verb], "--a-bk", "0"))
        assert (code, out) == (3, "")
        assert err == "domain error: background scattering length must be non-zero\n"

    def test_grid_values(self, capsys):
        code, out, _ = run_cli(capsys, "scattering-length", "--a-bk", "200",
                               "--delta-m-hz", "1e3", "--omega0-hz", "228.7e3",
                               "--m", "-1", "--grid", "200e3:260e3:7",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        model = ResonanceModel(200.0, 2 * math.pi * 1e3, 2 * math.pi * 228.7e3, -1)
        from modfesh.scattering import scattering_length
        for f, a in rows:
            assert a == pytest.approx(scattering_length(model, 2 * math.pi * f), rel=1e-12)

    def test_dressed_grid(self, capsys):
        code, out, _ = run_cli(capsys, "dressed", "--a-bk", "200",
                               "--delta-m-hz", "500", "--gamma-hz", "50",
                               "--omega-b-hz", "228.7e3", "--m", "1",
                               "--grid", "220e3:240e3:5", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(len(r) == 3 and r[2] >= 0 for r in rows)


SCAN_CONFIG = """\
[scan]
start_hz = 60e3
stop_hz = 250e3
points = 800
hold_time_ms = 5
density_cm3 = 1e13
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

[resonance]
a_bk = 200
delta_m_hz = 1.5e3
omega0_hz = 228.7e3
m = -3
"""


class TestScan:
    def test_three_dip_output(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(SCAN_CONFIG)
        out_base = tmp_path / "fig3a"
        code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--out", str(out_base))
        assert code == 0
        spec = read_spectrum_csv(out_base.with_suffix(".csv"))
        from modfesh.spectra import find_peaks
        peaks = sorted(find_peaks(spec, 0.05, 8e3))
        assert len(peaks) == 3
        assert peaks[0] == pytest.approx(228.7e3 / 3, rel=0.02)
        assert peaks[1] == pytest.approx(228.7e3 / 2, rel=0.02)
        assert peaks[2] == pytest.approx(228.7e3, rel=0.02)
        meta = json.loads(out_base.with_suffix(".json").read_text())
        assert meta["metadata"]["seed"] == 42

    def test_zero_width_flat(self, tmp_path, capsys):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(SCAN_CONFIG.replace("delta_m_hz = 3e3", "delta_m_hz = 0")
                       .replace("delta_m_hz = 2e3", "delta_m_hz = 0")
                       .replace("delta_m_hz = 1.5e3", "delta_m_hz = 0")
                       .replace("noise_sigma = 0.01", "noise_sigma = 0"))
        out_base = tmp_path / "flat"
        code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--out", str(out_base))
        assert code == 0
        spec = read_spectrum_csv(out_base.with_suffix(".csv"))
        assert np.all(spec.y == 1.0)

    def test_seeded_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(SCAN_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "scan", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run_cli(capsys, "scan", "--config", str(cfg), "--out", str(b))[0] == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    @pytest.mark.parametrize("axis", ["freq", "field"])
    def test_csv_and_json_agree_bit_for_bit(self, tmp_path, capsys, axis):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text({"freq": SCAN_CONFIG, "field": FIELD_SCAN_CONFIG}[axis])
        base = tmp_path / "out"
        assert run_cli(capsys, "scan", "--config", str(cfg), "--out", str(base))[0] == 0
        from_csv = read_spectrum_csv(base.with_suffix(".csv"))
        from_json = read_spectrum_json(base.with_suffix(".json"))
        assert from_csv.axis == from_json.axis
        for column in ("x", "y", "sigma"):
            assert np.array_equal(getattr(from_csv, column), getattr(from_json, column))

    def test_field_axis_scan(self, tmp_path, capsys):
        cfg = tmp_path / "field.cfg"
        cfg.write_text(
            "[scan]\n"
            "axis = field_Gauss\n"
            "state = 4g(4)\n"
            "registry = builtin\n"
            "f_mod_hz = 150e3\n"
            "start_G = 19.2\n"
            "stop_G = 20.5\n"
            "points = 900\n"
            "noise_sigma = 0\n"
            "[widths]\n"
            "1 3e3\n"
            "2 2e3\n")
        out_base = tmp_path / "fieldscan"
        code, _, _ = run_cli(capsys, "scan", "--config", str(cfg), "--out", str(out_base))
        assert code == 0
        spec = read_spectrum_csv(out_base.with_suffix(".csv"))
        assert spec.axis == "field_Gauss"
        from modfesh.spectra import find_peaks
        peaks = find_peaks(spec, 0.05, 0.05)
        assert len(peaks) >= 3    # first orders both sides + second orders

    def test_readme_example(self, tmp_path, capsys):
        """The README's scan configuration example runs, so a documented key
        that no reader takes fails here."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Scan configuration"):]
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg),
                               "--out", str(tmp_path / "run1"))
        assert code == 0, err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scan]\nstart_hz = sixty\n")
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg), "--out",
                               str(tmp_path / "x"))
        assert code == 2
        assert "error" in err


class TestFit:
    def synth_csv(self, tmp_path, seed=3, points=300):
        model = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * 228.7e3, -1)
        grid = np.linspace(200e3, 256e3, points)
        spec = synthesize_spectrum([model], grid, density=3e12,
                                   noise_sigma=0.01, seed=seed)
        write_spectrum(spec, tmp_path / "spec")
        return tmp_path / "spec.csv"

    def test_fano_roundtrip(self, tmp_path, capsys):
        path = self.synth_csv(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["params"]["center"] == pytest.approx(228.7e3, rel=0.01)

    def test_scan_then_fit_chain(self, tmp_path, capsys):
        # cmd_scan output feeds cmd_fit and recovers the config parameters
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "[scan]\nstart_hz = 200e3\nstop_hz = 256e3\npoints = 400\n"
            "density_cm3 = 3e12\nnoise_sigma = 0.01\nseed = 5\n"
            "[resonance]\na_bk = 200\ndelta_m_hz = 3e3\nomega0_hz = 228.7e3\nm = -1\n")
        base = tmp_path / "one"
        assert run_cli(capsys, "scan", "--config", str(cfg), "--out", str(base))[0] == 0
        code, out, _ = run_cli(capsys, "fit", "--model", "fano",
                               "--input", str(base.with_suffix(".csv")))
        assert code == 0
        assert json.loads(out)["params"]["center"] == pytest.approx(228.7e3, rel=0.01)

    def test_fano_report_file(self, tmp_path, capsys):
        path = self.synth_csv(tmp_path)
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path),
                             "--output", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["model"] == "fano"

    def test_lz_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        lines = ["B_Gauss,E_Hz,branch"]
        for bfield in np.linspace(18.56, 18.76, 21):
            ei = -182e3 - 1.35e6 * (bfield - 18.66)
            ej = -182e3 - 8e3 * (bfield - 18.66)
            root = math.hypot(ei - ej, 25e3)
            for s, e in ((1, 0.5 * (ei + ej + root)), (-1, 0.5 * (ei + ej - root))):
                lines.append(f"{bfield},{e + rng.normal(0, 0.5e3)},{s}")
        path = tmp_path / "lz.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "lz", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["params"]["v_ij_hz"] == pytest.approx(25e3, abs=1.5e3)

    def test_lz_without_degrees_of_freedom_has_no_uncertainty(self, tmp_path, capsys):
        """Five rows fix the five parameters exactly: the fit converges, and
        with dof 0 it reports no covariance and no stderr, not a near-zero one."""
        lines = ["B_Gauss,E_Hz,branch"]
        for i, bfield in enumerate((18.60, 18.63, 18.66, 18.69, 18.72)):
            ei = -182e3 - 1.35e6 * (bfield - 18.66)
            ej = -182e3 - 8e3 * (bfield - 18.66)
            s = 1 if i % 2 else -1
            e = 0.5 * (ei + ej + s * math.hypot(ei - ej, 25e3)) + (7.0 if s > 0 else -3.0)
            lines.append(f"{bfield},{e},{s}")
        path = tmp_path / "lz.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "lz", "--input", str(path))
        report = json.loads(out)
        assert (code, report["converged"], report["dof"]) == (0, True, 0)
        assert report["covariance"] is None
        assert set(report["stderr"].values()) == {None}

    def test_lz_overflow_stderr_is_the_error_line(self, tmp_path, capsys):
        """Fields and energies near the float limit fail with one error line or
        a non-converged report, and nothing from numpy ahead of it: the conic
        start scales B and E before squaring them (tier-1 turns a
        RuntimeWarning into an error)."""
        path = tmp_path / "lz.csv"
        for rows in ("1e300,1e300,1\n2e300,3e300,-1\n3e300,2e300,1\n"
                     "4e300,5e300,-1\n5e300,4e300,1\n6e300,1e300,-1\n",
                     # energies and fields whose differences leave the float range
                     "1,1.7e308,1\n2,1.7e308,-1\n3,-1.7e308,1\n4,-1.7e308,-1\n5,1.7e308,1\n",
                     "1.7e308,1,1\n1.7e308,2,-1\n-1.7e308,3,1\n1.7e308,4,-1\n5,5,1\n"):
            path.write_text("B_Gauss,E_Hz,branch\n" + rows)
            code, out, err = run_cli(capsys, "fit", "--model", "lz", "--input", str(path))
            assert code in (3, 4)
            assert "Traceback" not in err and "Warning" not in err
            if code == 3:
                assert out == "" and err.startswith("domain error: ") and err.count("\n") == 1
            else:
                assert err == "" and json.loads(out)["converged"] is False

    def test_linear_fit(self, tmp_path, capsys):
        path = tmp_path / "lin.csv"
        path.write_text("intensity,center\n0.4,227.9e3\n0.8,227.1e3\n1.2,226.3e3\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "linear", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["params"]["zero_intensity_center_hz"] == pytest.approx(228.7e3)
        assert report["params"]["slope_hz_per_intensity"] == pytest.approx(-2e3)

    def test_linear_fit_needs_three_rows(self, tmp_path, capsys):
        path = tmp_path / "lin.csv"
        path.write_text("intensity,center\n0.4,227.9e3\n0.8,227.1e3\n")
        code, out, err = run_cli(capsys, "fit", "--model", "linear", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == "domain error: need at least 3 (intensity, center) points\n"

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1,x,0\n")
        code, _, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        assert code == 2

    def test_fano_window_without_spread_exits_three(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("axis,value,relative_atoms,sigma\n" + "".join(
            f"modulation_freq_Hz,1000.0,{0.9 + 0.01 * (i % 3)},0.01\n" for i in range(10)))
        code, out, err = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        assert code == 3 and out == ""
        assert err.startswith("domain error: ") and err.count("\n") == 1

    def test_overflowing_covariance_exits_three(self, tmp_path, capfd):
        """A sigma of 1e-300 overflows J^T J of the five-parameter Jacobian: one
        domain error line, and nothing from LAPACK (which prints "On entry to
        DLASCL ..." at the file-descriptor level) ahead of it in stdout."""
        path = self.synth_csv(tmp_path, points=60)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",1e-300"   # the first data row
        path.write_text("\n".join(lines) + "\n")
        code = run(["fit", "--model", "fano", "--input", str(path)])
        out, err = capfd.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "DLASCL" not in err

    def test_nonconvergent_fit_exits_four_with_report(self, tmp_path, capsys):
        # an unresolved two-point spike starves the 5-parameter fit
        model = ResonanceModel(200.0, 2 * math.pi * 2e3, 2 * math.pi * 114.35e3, -2)
        grid = np.linspace(95e3, 135e3, 300)
        spec = synthesize_spectrum([model], grid, density=3e12,
                                   noise_sigma=0.01, seed=7)
        path = tmp_path / "spike.csv"
        write_spectrum(spec, tmp_path / "spike")
        code, out, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        if code == 4:
            report = json.loads(out)
            assert report["converged"] is False
            assert report["last_params"] is not None
        else:
            assert code == 0   # if LM manages to converge the report must say so
            assert json.loads(out)["converged"] is True


class TestEnergyMap:
    def make_scan_dir(self, tmp_path, intensity_unit=1.0):
        """Three 4g(4) scans at 19.41 G; their metadata gives the intensities
        0.4, 0.8 and 1.2 in units of intensity_unit W/cm^2."""
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        e_hz = molecular_energy(state, 19.41, registry)
        omega_b = -2 * math.pi * e_hz
        for i, intensity in enumerate((0.4, 0.8, 1.2)):
            dc = 2 * math.pi * (-2e3) * intensity * (1 - 0.43)
            models = [ResonanceModel(200.0, 2 * math.pi * 3e3, omega_b + dc, -1),
                      ResonanceModel(200.0, 2 * math.pi * 2e3, omega_b + dc, -2)]
            spec = synthesize_spectrum(models, np.linspace(95e3, 250e3, 1100),
                                       density=3e12, noise_sigma=0.01, seed=50 + i,
                                       metadata={"field_G": 19.41,
                                                 "intensity_W_cm2": intensity * intensity_unit})
            write_spectrum(spec, scan_dir / f"scan_{i}")
        return scan_dir

    @pytest.mark.parametrize("output", [False, True])
    def test_non_finite_rows_exit_three_writing_nothing(self, tmp_path, capsys, output):
        """Intensities near the float limit overflow the shift compensation:
        the map exits 3 before it writes stdout or --output."""
        scan_dir = self.make_scan_dir(tmp_path, intensity_unit=2.5e300)
        out_csv = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                                 *(("--output", str(out_csv)) if output else ()))
        assert code == 3
        assert out == "" and err == "domain error: omega_res_Hz is not finite for these inputs\n"
        assert not out_csv.exists()

    def test_closed_loop(self, tmp_path, capsys):
        scan_dir = self.make_scan_dir(tmp_path)
        out_csv = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                                 "--output", str(out_csv))
        assert code == 0, err
        rows = [l for l in out_csv.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 2
        for row in rows:
            fields = row.split(",")
            assert fields[3] == "4g(4)"
            assert fields[4] == "1"          # bound
            assert int(fields[2]) in (-1, -2)

    def test_threshold_flags_at_their_defaults(self, tmp_path, capsys):
        """--min-depth 0.05 and --min-separation-hz 8e3, written out, give the
        map of the defaults."""
        scan_dir = self.make_scan_dir(tmp_path)
        default = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir))
        explicit = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                           "--min-depth", "0.05", "--min-separation-hz", "8e3")
        assert explicit == default and default[0] == 0

    def test_registry_file_argument(self, tmp_path, capsys):
        scan_dir = self.make_scan_dir(tmp_path)
        reg_path = tmp_path / "states.cfg"
        save_state_registry(cesium_states(), reg_path)
        code, _, _ = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                             "--registry", str(reg_path),
                             "--output", str(tmp_path / "m.csv"))
        assert code == 0

    def test_empty_dir_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, _ = run_cli(capsys, "energy-map", "--scan-dir", str(empty))
        assert code == 2

    def energy_map_rows(self, tmp_path, capsys, label, b_field, slope, seed):
        """map_rows of the state's lines at orders 1 and 2, 3 and 4 kHz wide."""
        registry = cesium_states()
        state = next(s for s in registry if s.label == label)
        energy = molecular_energy(state, b_field, registry)
        return self.map_rows(tmp_path, capsys, [(energy, 1, 3e3), (energy, 2, 4e3)], b_field,
                             slope, seed)

    def map_rows(self, tmp_path, capsys, lines, b_field, slope, seed):
        """scan x 3 (0.4/0.8/1.2 W/cm^2) of lines, (energy Hz, |m|, width Hz)
        each, and energy-map through the CLI; returns the (state, order) of
        each map row."""
        start = min(abs(energy) / k for energy, k, _ in lines) - 22e3
        stop = max(abs(energy) / k for energy, k, _ in lines) + 22e3
        points = int(round((stop - start) / 150.0)) + 1
        for i, intensity in enumerate((0.4, 0.8, 1.2)):
            body = ["[scan]", f"start_hz = {start!r}", f"stop_hz = {stop!r}",
                    f"points = {points}", "density_cm3 = 2.5e12", "noise_sigma = 0.01",
                    f"seed = {seed + i}", f"field_G = {b_field!r}",
                    f"intensity_W_cm2 = {intensity!r}",
                    f"dc_shift_hz = {slope * intensity * (1 - 0.86 / 2)!r}"]
            for energy, k, width in lines:
                body += ["[resonance]", "a_bk = 200.0", f"delta_m_hz = {width!r}",
                         f"omega0_hz = {-energy!r}", f"m = {-k}"]
            cfg = tmp_path / f"scan_{i}.cfg"
            cfg.write_text("\n".join(body) + "\n")
            assert run_cli(capsys, "scan", "--config", str(cfg),
                           "--out", str(tmp_path / f"scan_{i}"))[0] == 0
        out_csv = tmp_path / "map.csv"
        code, _, err = run_cli(capsys, "energy-map", "--scan-dir", str(tmp_path),
                               "--output", str(out_csv))
        assert code == 0, err
        rows = [l.split(",") for l in out_csv.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        return sorted((r[3], int(r[2])) for r in rows)

    def test_runaway_fano_fit_dropped(self, tmp_path, capsys):
        """A noise dip at 0.4 W/cm^2 whose Fano fit ran 19 kHz off toward the
        window edge (amplitude below min_depth) once became a (6s, -3) row."""
        rows = self.energy_map_rows(tmp_path, capsys, "4g(4)", 19.0521, -2576.312176422673,
                                    749284533)
        assert rows == [("4g(4)", -2), ("4g(4)", -1)]

    def test_single_sample_dip_skipped(self, tmp_path, capsys):
        """A 5-sigma dip in one sample at 190.0 kHz (0.4 W/cm^2), both
        neighbours at the baseline: a Fano fit through it shrinks to a 0.1 Hz
        spike (sample spacing 150 Hz), which became an unmatched, flagged row
        (exit 3)."""
        rows = self.energy_map_rows(tmp_path, capsys, "6g(6)", 33.2999, -2180.8100713559256,
                                    427942748)
        assert rows == [("6g(6)", -2), ("6g(6)", -1)]

    def test_crossing_center_rows(self, tmp_path, capsys):
        """Two m = -1 lines at the 6s/6g(6) branch energies of 18.66 G, where
        the bare lines tie: each partner keeps the branch it joins above the
        center, so each row matches one state and none is flagged.  Both
        partners once took the lower branch: the upper row matched no state,
        the lower one was ambiguous, and the map exited 3."""
        registry = cesium_states()
        six_s = next(s for s in registry if s.label == "6s")
        lines = [(energy, 1, 3e3) for energy in crossing_branches(six_s, 18.66, registry)]
        rows = self.map_rows(tmp_path, capsys, lines, 18.66, 0.0, 1866)
        assert rows == [("6g(6)", -1), ("6s", -1)]

    def test_field_axis_scan_exits_three(self, tmp_path, capsys):
        """A field-axis spectrum among the scans is a domain error, not a traceback."""
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        (scan_dir / "scan.json").write_text(
            (SPECTRUM_JSON % "0.9").replace("modulation_freq_Hz", "field_Gauss"))
        code, out, err = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir))
        assert (code, out) == (3, "")
        assert err == "domain error: energy-map scans must be frequency-axis spectra\n"

    def one_line_map(self, tmp_path, capsys, f_hz, *registry_args):
        """energy-map of one scan at 19.41 G with a bound line at f_hz:
        (exit code, stderr, the note of each flagged row)."""
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        model = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * f_hz, -1)
        spec = synthesize_spectrum([model], np.linspace(f_hz - 50e3, f_hz + 50e3, 600),
                                   density=3e12,
                                   metadata={"field_G": 19.41, "intensity_W_cm2": 0.8})
        write_spectrum(spec, scan_dir / "scan")
        out_csv = tmp_path / "map.csv"
        code, _, err = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                               *registry_args, "--output", str(out_csv))
        rows = [l.split(",") for l in out_csv.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        return code, err, [r[7] for r in rows if r[6] == "1"]

    def test_unmatched_peak_row_exits_three(self, tmp_path, capsys):
        """A 150 kHz line that no builtin state explains: the row is kept,
        flagged, and the map exits 3."""
        code, err, notes = self.one_line_map(tmp_path, capsys, 150e3)
        assert code == 3 and err == "1 ambiguous association(s) flagged\n"
        assert notes == ["single intensity; uncompensated center; "
                         "no registry state within tolerance"]

    def test_two_state_ambiguity_exits_three(self, tmp_path, capsys):
        """A 200 kHz line that states a (-200 kHz) and b (-204 kHz) both explain."""
        reg_path = tmp_path / "states.cfg"
        save_state_registry([MolecularState("a", -200e3, 0.0, 19.41),
                             MolecularState("b", -204e3, 0.0, 19.41)], reg_path)
        code, err, notes = self.one_line_map(tmp_path, capsys, 200e3,
                                             "--registry", str(reg_path))
        assert code == 3 and err == "1 ambiguous association(s) flagged\n"
        assert notes == ["single intensity; uncompensated center; ambiguous with ['b']"]


FIELD_SCAN_CONFIG = """\
[scan]
axis = field_Gauss
state = 4g(4)
f_mod_hz = 150e3
start_G = 19.2
stop_G = 20.5
points = 90
seed = 3
[widths]
1 3e3
"""

LIGHT = ("--detuning", "-23e9", "--pol", "sigma-minus")
SL = ("scattering-length", "--a-bk", "200", "--delta-m-hz", "1e3", "--omega0-hz", "228.7e3",
      "--m", "-1")
DRESSED = ("dressed", "--a-bk", "200", "--delta-m-hz", "500", "--omega-b-hz", "228.7e3",
           "--m", "1", "--grid", "220e3:240e3:5")
GAP = ("floquet-gap", "--omega-b-hz", "-150e3", "--rabi-hz", "3e3", "--amplitude-hz", "150e3")
FREQ_SCAN_CONFIG = """\
[scan]
start_hz = 200e3
stop_hz = 256e3
points = 90
[resonance]
a_bk = 200
delta_m_hz = 3e3
omega0_hz = 228.7e3
m = 1.7
"""
FREQ_CONFIG = FREQ_SCAN_CONFIG.replace("m = 1.7", "m = 1")   # a valid frequency scan
SCAN_FREQ = ("scan", "--config", "{tmp}/freq.cfg", "--out", "{tmp}/x")
SCAN_FIELD = ("scan", "--config", "{tmp}/field.cfg", "--out", "{tmp}/x")
# the light-shift verbs on a species file
FICTITIOUS = ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT
SCATTERING = ("scattering-rate", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT
HEATING = ("heating-rate", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT
REGISTRY = """\
[state 4g(4)]
E0_Hz = -182e3
mu_rel_Hz_per_G = 1.35e6
B_ref_G = 19.8
window_G = a b
"""
# a crossing pair that names each other with one V_ij_Hz
SWEEP_REGISTRY = """\
[state 6s]
E0_Hz = -182e3
mu_rel_Hz_per_G = -1.35e6
B_ref_G = 18.66
window_G = 15 50
crossing_partner = 6g(6)
V_ij_Hz = 25e3
[state 6g(6)]
E0_Hz = -182e3
mu_rel_Hz_per_G = -8e3
B_ref_G = 18.66
window_G = 15 50
crossing_partner = 6s
V_ij_Hz = 25e3
"""
SPECTRUM_JSON = ('{"axis": "modulation_freq_Hz", "points": [[1e5, 1.0, 0.01], [1.1e5, %s, 0.01]], '
                 '"metadata": {"field_G": 19.41, "intensity_W_cm2": 0.8}}')

# rows whose numbers overflow float64 on the way to the table
OVERFLOW = {
    "fictitious-field": ("fictitious-field", "--intensity", "1e308") + LIGHT,
    "scattering-length": ("scattering-length", "--a-bk", "1e308", "--delta-m-hz", "1e3",
                          "--omega0-hz", "228.7e3", "--m", "-1",
                          "--grid", "228.7001e3:228.7002e3:4"),
}


OVER_CAP = str(MAX_COUNT + 1)
# [scan] values the forward model refuses, read through a check at their line
SCAN_VALUES_REFUSED = ("noise_sigma = -0.01", "density_cm3 = 0", "density_cm3 = -1e13",
                       "hold_time_ms = 0", "hold_time_ms = -5")


def _not_called(*args, **kwargs):
    raise AssertionError("allocated before the count was checked")


class TestUsageErrorsExitTwo:
    """Non-finite numbers, malformed scan-config values, counts over
    MAX_COUNT and any key, section or bare row that no reader takes exit 2
    without a traceback; a config error names the file and line."""

    @pytest.mark.parametrize("argv,edit,line", [
        (("fictitious-field", "--intensity", "0.87", "--detuning", "nan", "--pol",
          "sigma-minus"), None, None),
        (("scattering-rate", "--intensity", "nan") + LIGHT, None, None),
        (("heating-rate", "--intensity", "0:inf:3") + LIGHT, None, None),
        (("fictitious-field", "--intensity", "-inf:1:3") + LIGHT, None, None),
        (SL + ("--grid", "1e5:nan:5"), None, None),
        (SL + ("--grid", "1e5:2e5:5", "--a-bk", "inf"), None, None),
        (DRESSED + ("--gamma-hz", "inf"), None, None),
        (DRESSED + ("--gamma-hz", "50", "--k-wavenumber", "nan"), None, None),
        (None, ("1 3e3", "1 wide"), 10),
        (None, ("1 3e3", "one 3e3"), 10),
        (None, ("1 3e3", "1 nan"), 10),
        (None, ("seed = 3", "seed = abc"), 8),
        (None, ("seed = 3", "seed = 1.5"), 8),
        (None, ("f_mod_hz = 150e3", "f_mod_hz = inf"), 4),
        (None, ("points = 90", "points = 90.7"), 7),
        (GAP + ("--m", "0"), None, None),
        (("fictitious-field", "--intensity", f"0.1:1:{OVER_CAP}") + LIGHT, None, None),
        (SL + ("--grid", f"1e5:2e5:{OVER_CAP}"), None, None),
        (DRESSED + ("--gamma-hz", "50", "--grid", f"220e3:240e3:{OVER_CAP}"), None, None),
        (("resonances", "--omega-b-hz", "228.7e3", "--m-max", OVER_CAP), None, None),
        (None, ("points = 90", f"points = {OVER_CAP}"), 7),
        (None, ("points = 90", "points = -1"), 7),
        (None, ("seed = 3", "seeed = 3"), 8),
        (None, ("seed = 3", "seed 3"), 8),
        (None, ("[widths]", "[width]"), 9),
        (None, ("1 3e3", "1 3e3\nwidth = 3"), 11),
        (None, ("[widths]", "[resonance]\na_bk = 200\n[widths]"), 9),
        (("scan", "--config", "c.cfg", "--out", "o5", "--output", "ignored.txt",
          "--format", "json", "--species", "nothere.species"), None, None),
        (("fit", "--model", "linear", "--input", "lin.csv", "--format", "csv"), None, None),
        (SL + ("--grid", "1e5:2e5"), None, None),
        (GAP + ("--m", "1", "--window", "1e5:2e5:3"), None, None),
        (GAP + ("--m", "1", "--window", "lo:hi"), None, None),
        (None, ("axis = field_Gauss", "axis = field"), 1),
        (None, ("1 3e3", ""), 9),
        (None, ("1 3e3", "1 3e3 5"), 10),
        (None, ("state = 4g(4)", "state = 9z(9)"), 1),
        (None, ("[widths]", "[widths"), 9),
        (None, ("[scan]", "points = 90\n[scan]"), 1),
        (None, ("seed = 3", "= 3"), 8),
        (None, ("seed = 3", "seed = 3\nseed = 4"), 9),
        (SL + ("--grid", "1:2:3:4"), None, None),
        (GAP + ("--m", "1", "--window", "1e5"), None, None),
        (None, ("seed = 3", "seed = -1"), 8),
        (("scan", "--config", "c.cfg", "--out", "o5", "--seed", "-5"), None, None),
        (("energy-map", "--scan-dir", "scans", "--min-separation-hz", "0"), None, None),
        (("energy-map", "--scan-dir", "scans", "--min-separation-hz", "-5"), None, None),
        (("energy-map", "--scan-dir", "scans", "--min-depth", "2"), None, None),
        (("energy-map", "--scan-dir", "scans", "--min-depth", "0"), None, None),
        (("energy-map", "--scan-dir", "scans", "--min-depth", "-1"), None, None),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_exit_two(self, tmp_path, capsys, monkeypatch, argv, edit, line):
        # an over-cap count must be refused before it sizes an allocation
        monkeypatch.setattr(np, "linspace", _not_called)
        monkeypatch.setattr(floquet, "resonance_frequencies", _not_called)
        # valid inputs for the rows with a flag their verb does not take
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(FIELD_SCAN_CONFIG)
        (tmp_path / "scans").mkdir()
        (tmp_path / "scans" / "scan.json").write_text(SPECTRUM_JSON % "0.9")
        (tmp_path / "lin.csv").write_text("intensity,center\n0.4,227.9e3\n0.8,227.1e3\n"
                                          "1.2,226.3e3\n")
        if edit is not None:
            cfg = tmp_path / "field.cfg"
            cfg.write_text(FIELD_SCAN_CONFIG.replace(*edit))
            argv = ("scan", "--config", str(cfg), "--out", str(tmp_path / "x"))
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before
        if edit is not None:
            assert f"{cfg}: line {line}:" in err

    def test_negative_seed_flag_is_an_invalid_seed(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--config", "c.cfg", "--out", "x", "--seed", "-5")
        assert code == 2 and "argument --seed: invalid seed value: '-5'" in err

    @pytest.mark.parametrize("flag,value,kind", [
        ("--min-separation-hz", "0", "positive"), ("--min-separation-hz", "-5", "positive"),
        ("--min-depth", "0", "fraction"), ("--min-depth", "1", "fraction"),
        ("--min-depth", "nan", "fraction")])
    def test_energy_map_threshold_flag_is_named(self, capsys, flag, value, kind):
        code, _, err = run_cli(capsys, "energy-map", "--scan-dir", ".", flag, value)
        assert code == 2 and f"argument {flag}: invalid {kind} value: '{value}'" in err

    @pytest.mark.parametrize("files,argv,where", [
        ({"spec.csv": "axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1e5,nan,0.01\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv: line 2"),
        ({"scans/scan.json": SPECTRUM_JSON % "Infinity"},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": SPECTRUM_JSON % '"bogus"'},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"lin.csv": "intensity,center\n0.4,227.9e3\n0.8,nan\n1.2,226.3e3\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv: line 3"),
        ({"freq.cfg": FREQ_SCAN_CONFIG},
         ("scan", "--config", "{tmp}/freq.cfg", "--out", "{tmp}/x"), "freq.cfg: line 9"),
        ({"scans/scan.json": SPECTRUM_JSON % "0.9", "states.cfg": REGISTRY},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 5"),
        ({"lin.csv": "intensity,center\nnan,1e5\n0.8,227.1e3\n1.2,226.3e3\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv: line 2"),
        ({"cs.species": "[transitions]\nD2 3 4 nan 2.0e-29 3.3e7\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"cs.species": "[species]\nground_F = 3.7\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"cs.species": "[species]\nnuclear_spin = 1/0\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"states.cfg": REGISTRY.replace("-182e3", "nan").replace("a b", "19 21"),
          "field.cfg": FIELD_SCAN_CONFIG.replace("seed = 3", "registry = {tmp}/states.cfg")},
         ("scan", "--config", "{tmp}/field.cfg", "--out", "{tmp}/x"), "states.cfg: line 2"),
        ({"scans/scan.json": SPECTRUM_JSON % "0.9",
          "states.cfg": REGISTRY.replace("a b", "15 nan")},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 5"),
        ({"lz.csv": "B_Gauss,E_Hz,branch\n18.6,-1.8e5,1\n18.6,-1.9e5,0.6\n18.7,-1.8e5,1\n"},
         ("fit", "--model", "lz", "--input", "{tmp}/lz.csv"), "lz.csv: line 3"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace("19.41", '"abc"')},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace("19.41", "NaN")},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace(
            '{"field_G": 19.41, "intensity_W_cm2": 0.8}', "[1]")},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        # key-value pairs, which dict() would have read as an object
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace(
            '{"field_G": 19.41, "intensity_W_cm2": 0.8}',
            '[["field_G", 19.41], ["intensity_W_cm2", 0.8]]')},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": "[" * 100_000 + "]" * 100_000},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"freq.cfg": FREQ_CONFIG.replace("points = 90", "points = 90\nnoise_sigm = 0.01")},
         SCAN_FREQ, "freq.cfg: line 5"),
        ({"freq.cfg": FREQ_CONFIG + FREQ_CONFIG[:FREQ_CONFIG.index("[resonance]")]},
         SCAN_FREQ, "freq.cfg: line 10"),
        ({"freq.cfg": FREQ_CONFIG + "[widths]\n1 3e3\n"}, SCAN_FREQ, "freq.cfg: line 10"),
        ({"cs.species": "[species]\nmas_kg = 1e-25\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"cs.species": "[transitions]\nline = D2\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"scans/scan.json": SPECTRUM_JSON % "0.9",
          "states.cfg": REGISTRY.replace("window_G = a b", "windw_G = 19 20")},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 5"),
        ({"states.cfg": 2 * REGISTRY.replace("a b", "19 21"),
          "field.cfg": FIELD_SCAN_CONFIG.replace("seed = 3", "registry = {tmp}/states.cfg")},
         ("scan", "--config", "{tmp}/field.cfg", "--out", "{tmp}/x"), "states.cfg: line 6"),
        ({"cs.species": "[species]\nground_gF = 1\n[species]\nground_gF = 2\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 3"),
        ({"cs.species": "[transitions]\nD2 3 4 351.7e12 2.0e-29 3.3e7\n"
                        "D2 3 4 351.8e12 2.0e-29 3.3e7\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 3"),
        ({"freq.cfg": FREQ_CONFIG[:FREQ_CONFIG.index("[resonance]")]}, SCAN_FREQ, "freq.cfg"),
        ({"lin.csv": "intensity,center\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv"),
        ({"lin.csv": "0.4\n0.8\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv: line 1"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace('"field_G": 19.41, ', "")},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"spec.csv": "# schema_version=1\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv"),
        ({"spec.csv": "axis,value,relative_atoms,sigma\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv"),
        ({"spec.csv": "axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1e5,0.9\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv: line 2"),
        ({"spec.csv": "axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1e5,0.9,0.01\n"
                      "field_Gauss,1.1e5,0.9,0.01\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv: line 3"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace(", 0.01]", "]")},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"lin.csv": "intensity,center,sigma\n0.4,227.9e3,50\n0.8,227.1e3\n1.2,226.3e3,50\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv: line 3"),
        ({"lin.csv": "0.4,227.9e3,50,1\n0.8,227.1e3,50,1\n1.2,226.3e3,50,1\n"},
         ("fit", "--model", "linear", "--input", "{tmp}/lin.csv"), "lin.csv: line 1"),
        ({"lz.csv": "B_Gauss,E_Hz,branch,sigma\n18.6,-1.8e5,1,50\n18.7,-1.9e5,-1,50\n"},
         ("fit", "--model", "lz", "--input", "{tmp}/lz.csv"), "lz.csv: line 2"),
        ({"cs.species": "[transitions]\nD2 3 4 351.7e12 2.0e-29\n"},
         ("fictitious-field", "--species", "{tmp}/cs.species", "--intensity", "0.87") + LIGHT,
         "cs.species: line 2"),
        ({"scans/scan.json": SPECTRUM_JSON % "0.9",
          "states.cfg": REGISTRY.replace("a b", "15 20 25")},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 5"),
        ({"spec.csv": "axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1e5,0.9,0.01,7\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv: line 2"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace("19.41", "true")},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": SPECTRUM_JSON % "true"},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": SPECTRUM_JSON % '"0.5"'},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace("1.1e5", "1" + "0" * 400)},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"scans/scan.json": (SPECTRUM_JSON % "0.9").replace("19.41", "1" + "0" * 400)},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
        ({"freq.cfg": FREQ_CONFIG.replace("a_bk = 200", "a_bk = 0")}, SCAN_FREQ,
         "freq.cfg: line 5"),
        ({"freq.cfg": FREQ_CONFIG.replace("m = 1\n", "m = 0\n")}, SCAN_FREQ, "freq.cfg: line 5"),
        ({"cs.species": "[species]\nmass_kg = -1\n"}, HEATING, "cs.species: line 1"),
        ({"cs.species": "[species]\nmass_kg = 0\n"}, HEATING, "cs.species: line 1"),
        ({"cs.species": "[transitions]\nD2 3 4 351730902170000.0 3.7971e-29 -32815191.9\n"},
         SCATTERING, "cs.species: line 2"),
        ({"cs.species": "[transitions]\nD2 -1 0 351730902170000.0 3.7971e-29 32815191.9\n"},
         FICTITIOUS, "cs.species: line 2"),
        ({"cs.species": "[species]\nnuclear_spin = -1\n"}, FICTITIOUS, "cs.species: line 1"),
        ({"cs.species": "[species]\nnuclear_spin = 0\n"}, FICTITIOUS, "cs.species: line 1"),
        ({"cs.species": "[species]\nground_gF = 0\n"}, FICTITIOUS, "cs.species: line 1"),
        ({"cs.species": "[species]\nground_F = 4\n"}, FICTITIOUS, "cs.species: line 1"),
        ({"cs.species": "[transitions]\nD2 2 1 351730902170000.0 3.7971e-29 32815191.9\n"},
         FICTITIOUS, "cs.species: line 2"),
        ({"field.cfg": FIELD_SCAN_CONFIG.replace("1 3e3", "0 3e3")}, SCAN_FIELD,
         "field.cfg: line 10"),
        ({"field.cfg": FIELD_SCAN_CONFIG.replace("1 3e3", "-1 3e3")}, SCAN_FIELD,
         "field.cfg: line 10"),
        ({"field.cfg": FIELD_SCAN_CONFIG.replace("seed = 3", "seed = 3\na_bk = 0")}, SCAN_FIELD,
         "field.cfg: line 9"),
        ({"field.cfg": FIELD_SCAN_CONFIG.replace("1 3e3", "1 3e3\n1 5e3")}, SCAN_FIELD,
         "field.cfg: line 11"),
        *[({"freq.cfg": FREQ_CONFIG.replace("points = 90", f"points = 90\n{key_value}")},
           SCAN_FREQ, "freq.cfg: line 5") for key_value in SCAN_VALUES_REFUSED],
        # a field-axis scan once wrote a flat spectrum at hold time 0 and
        # relative atom numbers above 1 at -5
        *[({"field.cfg": FIELD_SCAN_CONFIG.replace("seed = 3", f"seed = 3\n{key_value}")},
           SCAN_FIELD, "field.cfg: line 9") for key_value in SCAN_VALUES_REFUSED[-2:]],
        # crossing partners that disagree: 6s and 6g(6) once got two branch pairs
        ({"scans/scan.json": SPECTRUM_JSON % "0.9",
          "states.cfg": SWEEP_REGISTRY.replace("= 6s\nV_ij_Hz = 25e3", "= 6s\nV_ij_Hz = 90e3")},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 1"),
        ({"states.cfg": SWEEP_REGISTRY + "[state x]\nE0_Hz = -150e3\nmu_rel_Hz_per_G = 1e4\n"
                                         "B_ref_G = 18.66\ncrossing_partner = 6s\nV_ij_Hz = 25e3\n",
          "field.cfg": FIELD_SCAN_CONFIG.replace("seed = 3", "registry = {tmp}/states.cfg")},
         SCAN_FIELD, "states.cfg: line 15"),
        ({"scans/scan.json": SPECTRUM_JSON % "0.9",
          "states.cfg": SWEEP_REGISTRY.replace("= 6g(6)", "= 6s")},
         ("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{tmp}/states.cfg"),
         "states.cfg: line 1"),
    ], ids=["csv-nan", "json-inf", "json-string", "linear-csv-nan", "resonance-m-1.7",
            "registry-window_G", "linear-csv-leading-nan", "species-row-nan",
            "species-ground_F-3.7", "species-nuclear_spin-1/0", "registry-E0-nan",
            "registry-window_G-nan", "lz-branch-0.6", "json-field-string", "json-field-nan", "json-metadata-list",
            "json-metadata-pairs", "json-deep-nesting", "scan-noise_sigm", "scan-second-scan", "freq-scan-widths",
            "species-mas_kg", "transitions-key", "registry-windw_G", "registry-duplicate-label",
            "species-second-section", "transitions-repeated-row", "freq-scan-no-resonance",
            "linear-csv-header-only", "linear-csv-one-column", "json-no-field_G", "csv-empty",
            "csv-header-only", "csv-three-fields", "csv-mixed-axis", "json-points-n-by-2",
            "linear-csv-row-without-sigma", "linear-csv-four-columns", "lz-csv-four-columns",
            "transitions-five-columns", "registry-window_G-three", "csv-five-fields",
            "json-field-true", "json-point-true", "json-point-string", "json-point-big-int",
            "json-field-big-int", "resonance-a_bk-0", "resonance-m-0", "species-mass-negative",
            "species-mass-0", "transitions-decay-negative", "transitions-F-negative",
            "species-nuclear_spin-negative", "species-nuclear_spin-0", "species-ground_gF-0",
            "species-ground_F-4-no-reference", "transitions-F-outside-I", "widths-order-0",
            "widths-order-negative", "scan-a_bk-0", "widths-repeated-order",
            "scan-noise_sigma-negative", "scan-density_cm3-0", "scan-density_cm3-negative",
            "scan-hold_time_ms-0", "scan-hold_time_ms-negative",
            "field-scan-hold_time_ms-0", "field-scan-hold_time_ms-negative",
            "registry-partner-V-differs", "registry-third-state-names-partner",
            "registry-partner-self"])
    def test_data_file_exit_two(self, tmp_path, capsys, files, argv, where):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text.replace("{tmp}", str(tmp_path)))
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert code == 2
        assert out == "" and "Traceback" not in err and err.count("\n") == 1
        assert f"{tmp_path}/{where}:" in err
        assert sorted(tmp_path.rglob("*")) == before


class TestNonFiniteOutputExitsThree:
    """A table whose numbers overflow exits 3 and prints nothing, not inf
    with exit 0."""

    @pytest.mark.parametrize("argv,column", [
        (OVERFLOW["fictitious-field"], "B_fict_G"),
        (OVERFLOW["scattering-length"], "a_s_a0"),
        (("resonances", "--omega-b-hz", "1e308", "--m-max", "2"), "f_res_Hz"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_non_finite_output_exits_three(self, capsys, argv, column):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == "" and "Traceback" not in err
        assert column in err

    @pytest.mark.parametrize("argv", [
        (verb, "--intensity", "0.87", "--detuning", "1e155", "--pol", "sigma-minus")
        for verb in ("fictitious-field", "scattering-rate", "heating-rate")] + [
        ("floquet-gap", "--omega-b-hz", "-1e300", "--rabi-hz", "3e3", "--amplitude-hz", "150e3",
         "--m", "1"),
        DRESSED + ("--gamma-hz", "1e155"),
        DRESSED + ("--gamma-hz", "50", "--k-wavenumber", "1e155"),
        ("scan", "--config", "c.cfg", "--out", "x"),
    ], ids=lambda v: " ".join(v))
    def test_overflowing_input_exits_three(self, tmp_path, capsys, monkeypatch, argv):
        """A Python-float ** past double range (where numpy would give inf)
        exits 3 with the one error line, not an OverflowError traceback."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(FREQ_CONFIG.replace("points = 90",
                                                            "points = 90\ndensity_cm3 = 1e155"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "domain error: a number overflows double precision for these inputs\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]

    def test_stderr_is_the_error_line_alone(self):
        """A fresh `python -m modfesh.cli` prints no numpy overflow warning
        ahead of the error line."""
        for verb, argv in OVERFLOW.items():
            proc = run_module(*argv)
            assert proc.returncode == 3, verb
            assert proc.stdout == ""
            assert proc.stderr.startswith("domain error: ") and \
                proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("rows", ["1e300,1e300\n2e300,3e300\n3e300,1e300\n",
                                      "1,1e308\n2,-1e308\n3,1e308\n"], ids=["nan", "inf"])
    def test_non_finite_fit_report_exits_three(self, tmp_path, rows):
        """A linear fit that overflows is refused, not reported as converged
        with NaN or Infinity (not JSON) and exit 0."""
        (tmp_path / "lin.csv").write_text(rows)
        proc = run_module("fit", "--model", "linear", "--input", str(tmp_path / "lin.csv"))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("domain error: a number in the JSON output is not finite "
                               "for these inputs\n")


READS = ("missing", "directory", "not-utf8")
WRITES = ("directory", "no-parent")
TABLE_VERBS = {
    "fictitious-field": ("fictitious-field", "--intensity", "0.87") + LIGHT,
    "scattering-rate": ("scattering-rate", "--intensity", "0.87") + LIGHT,
    "heating-rate": ("heating-rate", "--intensity", "0.87") + LIGHT,
    "resonances": ("resonances", "--omega-b-hz", "228.7e3"),
    "floquet-gap": GAP + ("--m", "1"),
    "scattering-length": SL + ("--grid", "2e5:2.5e5:3"),
    "dressed": DRESSED + ("--gamma-hz", "50"),
}
# case -> (argv with {p} for the path under test, what that path is made to be)
FILE_FLAGS = {
    "scan-config": (("scan", "--config", "{p}", "--out", "{tmp}/x"), READS),
    "scan-out": (("scan", "--config", "{tmp}/freq.cfg", "--out", "{p}"), WRITES),
    "fit-fano-input": (("fit", "--model", "fano", "--input", "{p}"), READS),
    "fit-lz-input": (("fit", "--model", "lz", "--input", "{p}"), READS),
    "fit-linear-input": (("fit", "--model", "linear", "--input", "{p}"), READS),
    "fit-output": (("fit", "--model", "linear", "--input", "{tmp}/lin.csv", "--output", "{p}"),
                   WRITES),
    "energy-map-scan-dir": (("energy-map", "--scan-dir", "{p}"),
                            ("missing", "file", "not-utf8-inside")),
    "energy-map-registry": (("energy-map", "--scan-dir", "{tmp}/scans", "--registry", "{p}"),
                            READS),
    "energy-map-output": (("energy-map", "--scan-dir", "{tmp}/scans", "--output", "{p}"),
                          WRITES),
    "species": (("fictitious-field", "--species", "{p}", "--intensity", "0.87") + LIGHT, READS),
    **{f"{verb}-output": (argv + ("--output", "{p}"), WRITES)
       for verb, argv in TABLE_VERBS.items()},
}
NOT_UTF8 = b"\xff\xfe not UTF-8\n"


class TestFileBoundary:
    """Every file a verb reads or writes: a missing, unreadable, non-UTF-8 or
    unwritable path exits 2, names the path and writes nothing to stdout."""

    @pytest.mark.parametrize("case,kind", [(c, k) for c, (_, kinds) in FILE_FLAGS.items()
                                           for k in kinds],
                             ids=lambda v: v)
    def test_exit_two(self, tmp_path, capsys, case, kind):
        (tmp_path / "freq.cfg").write_text(FREQ_CONFIG)
        (tmp_path / "lin.csv").write_text("intensity,center\n0.4,227.9e3\n0.8,227.1e3\n"
                                          "1.2,226.3e3\n")
        (tmp_path / "scans").mkdir()
        (tmp_path / "scans" / "scan.json").write_text(SPECTRUM_JSON % "0.9")
        # a .csv name: scan --out writes <base>.csv first, here the path itself
        path = tmp_path / ("absent/target.csv" if kind == "no-parent" else "target.csv")
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(NOT_UTF8)
        elif kind == "file":
            path.write_text("not a directory\n")
        elif kind == "not-utf8-inside":
            path.mkdir()
            (path / "scan.json").write_bytes(NOT_UTF8)
        argv, _ = FILE_FLAGS[case]
        code, out, err = run_cli(capsys, *(a.replace("{p}", str(path))
                                           .replace("{tmp}", str(tmp_path)) for a in argv))
        assert code == 2, err
        assert out == "" and "Traceback" not in err
        assert str(path) in err

    def test_one_reader_one_writer(self):
        """open() and Path.read_text/write_text-style calls appear in the
        package only inside keyvalue.read_text and keyvalue.write_text, so
        no reader or writer can bypass the boundary."""
        file_calls = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
                      "loadtxt", "savetxt", "genfromtxt", "fromfile", "tofile"}
        sites = []
        for path in sorted(Path(modfesh.__file__).parent.glob("*.py")):
            scopes = {}
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    for inner in ast.walk(node):
                        scopes[id(inner)] = getattr(node, "name", "<lambda>")
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or \
                        (isinstance(func, ast.Attribute) and func.attr in file_calls):
                    sites.append((path.stem, scopes.get(id(node), "<module>")))
        assert sorted(sites) == [("keyvalue", "read_text"), ("keyvalue", "write_text")]


class TestLightTableWorkCount:
    """The transition and Wigner sums run once per table, not once per row."""

    @pytest.mark.parametrize("verb", ["fictitious-field", "scattering-rate", "heating-rate"])
    def test_wigner_calls_independent_of_grid(self, monkeypatch, capsys, verb):
        from modfesh import lightshift
        calls = []
        for name in ("wigner_3j", "wigner_6j"):
            fn = getattr(lightshift, name)
            monkeypatch.setattr(lightshift, name,
                                lambda *a, _fn=fn: calls.append(a) or _fn(*a))
        counts = []
        for points in (10, 1000):
            calls.clear()
            code, out, _ = run_cli(capsys, verb, "--intensity", f"0.1:2.0:{points}", *LIGHT,
                                   "--format", "csv")
            assert code == 0
            assert len(out.splitlines()) == points + 2
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestParserBuiltOnce:
    """run() reuses the one parser of the process: after the first call no
    argparse parser is built, whatever the verb, error or --help."""

    def test_repeated_runs_build_no_parser(self, capsys, monkeypatch):
        verbs = [("resonances", "--omega-b-hz", "228.7e3", "--format", "csv"),
                 ("fictitious-field", "--intensity", "0.87") + LIGHT,
                 SL + ("--grid", "2e5:2.5e5:3"),
                 DRESSED + ("--gamma-hz", "50", "--format", "json"),
                 GAP + ("--m", "1")]
        calls = [(argv, 0) for argv in verbs] * 3 + [
            (("resonances", "--bogus", "1"), 2), (("fictitious-field", "--intensity", "0.87"), 2),
            (("scan",), 2), (("--help",), 0), (("floquet-gap", "--help"), 0)]
        assert run_cli(capsys, *verbs[0])[0] == 0          # warm-up: builds the parser
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        for argv, expected in calls:
            assert run_cli(capsys, *argv)[0] == expected, argv
        assert built == []
        assert build_parser() is build_parser()


SWEEP_VALUES = ("1e300", "-1e300", "1e155", "-1e155", "1e-300", "-1e-300", "0", "-1")
# the data files also take nan and inf; JSON spells them NaN and Infinity and
# adds true, "0.5" and null, which np.asarray(dtype=float) reads as 1, 0.5, nan
FILE_VALUES = SWEEP_VALUES + ("nan", "inf")
JSON_VALUES = SWEEP_VALUES + ("NaN", "Infinity", "true", '"0.5"', "null")
# options of the table verbs that take no number
NOT_NUMERIC = {"--format", "--output", "--pol", "--species", "--window"}
# every number of a valid frequency-axis and field-axis scan config is swept
SWEEP_CONFIGS = {
    "freq": FREQ_CONFIG.replace("points = 90\n", "points = 90\nhold_time_ms = 5\n"
                                "density_cm3 = 1e13\nnoise_sigma = 0.01\nseed = 3\n"
                                "field_G = 19.41\nintensity_W_cm2 = 0.87\ndc_shift_hz = 0\n"),
    "field": FIELD_SCAN_CONFIG.replace("seed = 3\n", "seed = 3\nhold_time_ms = 5\n"
                                       "density_cm3 = 1e13\nnoise_sigma = 0.01\n"
                                       "field_G = 19.41\nintensity_W_cm2 = 0.87\n"
                                       "dc_shift_hz = 0\na_bk = 200\n"),
}
# every number of a species file and of a two-state registry file is swept
SWEEP_SPECIES = """\
[species]
mass_kg = 2.2069465e-25
nuclear_spin = 3.5
ground_F = 3
ground_gF = -0.25
[transitions]
D1 3 4 335121730520000.0 2.698e-29 28659130.3
D2 3 4 351730902170000.0 3.7971e-29 32815191.9
"""


def _lz_row(b, s):
    """A noiseless 6s/6g(6) branch sample: E = (Ei + Ej + s sqrt((Ei - Ej)^2 + V^2)) / 2."""
    ei, ej = -182e3 - 1.35e6 * (b - 18.66), -182e3 - 8e3 * (b - 18.66)
    return f"{b!r},{0.5 * (ei + ej + s * math.hypot(ei - ej, 25e3))!r},{s}\n"


LZ_INPUT = "B_Gauss,E_Hz,branch\n" + "".join(
    _lz_row(b, s) for b in np.linspace(18.56, 18.76, 11).tolist() for s in (1, -1))
LINEAR_INPUT = "intensity,center,sigma\n0.4,227.9e3,50\n0.8,227.1e3,50\n1.2,226.3e3,50\n"


def _with_flag(argv, flag, value):
    """argv with flag set to value, replacing the value it has, if any."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
        return argv
    return argv + [flag, value]


def _config_variants(text, values=SWEEP_VALUES, rows=None, sep=" "):
    """text with each number in turn, the value of a key or a field of a
    bare row, set to each of values; rows (line indices) limits the lines,
    and sep="," sweeps the fields of a CSV."""
    lines = text.splitlines()
    for i in range(len(lines)) if rows is None else rows:
        tokens = lines[i].split(sep)
        for j, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                continue
            for value in values:
                edited = sep.join(tokens[:j] + [value] + tokens[j + 1:])
                yield edited, "\n".join(lines[:i] + [edited] + lines[i + 1:]) + "\n"


def _json_variants(text, rows):
    """A spectrum JSON with each metadata number and each field of the given
    points rows in turn set to each of JSON_VALUES (raw JSON text)."""
    payload = json.loads(text)
    slots = [(payload["metadata"], key) for key in ("field_G", "intensity_W_cm2")]
    slots += [(payload["points"][i], j) for i in rows for j in range(3)]
    for container, key in slots:
        kept = container[key]
        container[key] = "@"
        template = json.dumps(payload)
        container[key] = kept
        for value in JSON_VALUES:
            yield f"{key}={value}", template.replace('"@"', value)


def _spectrum_text(tmp_path, suffix, grid, f_hz, **options):
    """The CSV or JSON text of a noiseless m = -1 loss line at f_hz (19.41 G,
    0.8 W/cm^2) on grid, and the index of its deepest sample."""
    model = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * f_hz, -1)
    spec = synthesize_spectrum([model], grid, density=3e12, **options,
                               metadata={"field_G": 19.41, "intensity_W_cm2": 0.8})
    write_spectrum(spec, tmp_path / "synth")
    return (tmp_path / "synth").with_suffix(suffix).read_text(), int(np.argmin(spec.y))


class TestContractSweep:
    """The exit-code contract over a table of extreme inputs, in process:
    every run returns 0, 2, 3 or 4 without raising and writes nothing past
    sys.stdout and sys.stderr (at the file-descriptor level), a failing run
    writes one error line to stderr (after argparse's usage lines; `fit`'s
    exit 4 writes its report instead) and a run that succeeds writes no nan
    or inf."""

    NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

    def check(self, capfd, argv, written=(), expect=None):
        """The ways run(argv) breaks the contract, or exits other than with
        expect if given; [] if none."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(argv))
        except Exception as exc:   # anything escaping run breaks the contract
            code = f"{type(exc).__name__}: {exc}"
        bypassed = "".join(capfd.readouterr())   # written below sys.stdout and sys.stderr
        problems = [f"file-descriptor output {bypassed!r}"] if bypassed else []
        if expect is not None and code != expect:
            problems.append(f"exit {code}, expected {expect}")
        out, err = out.getvalue(), err.getvalue()
        if code not in (0, 2, 3, 4):
            return problems + [code if isinstance(code, str) else f"exit {code}"]
        if code == 4 and argv[0] == "fit":
            report = json.loads(out) if out else {}
            return problems + ([] if err == "" and report.get("converged") is False
                               else [f"fit exit 4 with stdout {out!r}, stderr {err!r}"])
        if code:
            lines = [l for l in err.splitlines() if not l.startswith(("usage: ", " "))]
            return problems + ([] if len(lines) == 1 else [f"exit {code} with stderr {err!r}"])
        found = (self.NON_FINITE.search(text) for text in [out, *map(Path.read_text, written)])
        return problems + [f"exit 0 writes {m.group()!r}" for m in found if m]

    def sweep(self, capfd, path, text, variants, argv, written=()):
        """(edited field, problem) of each variant text written to path, after
        text itself ran with exit 0."""
        path.write_text(text)
        bad = [("", problem) for problem in self.check(capfd, argv, written, expect=0)]
        for edited, variant in variants:
            path.write_text(variant)
            for out in written:
                out.unlink(missing_ok=True)
            bad += [(edited, problem) for problem in self.check(capfd, argv, written)]
        return bad

    @pytest.mark.parametrize("verb", sorted(TABLE_VERBS))
    def test_table_verb_flags(self, capfd, verb):
        base = TABLE_VERBS[verb] + ("--format", "csv")
        assert self.check(capfd, base, expect=0) == []
        flags = sorted(set(OPTIONS[verb]) - NOT_NUMERIC)
        bad = [(flag, value, problem) for flag in flags for value in SWEEP_VALUES
               for problem in self.check(capfd, _with_flag(base, flag, value))]
        assert bad == []

    @pytest.mark.parametrize("axis", sorted(SWEEP_CONFIGS))
    def test_scan_config_numbers(self, tmp_path, capfd, axis):
        cfg, out = tmp_path / "scan.cfg", tmp_path / "out"
        text = SWEEP_CONFIGS[axis]
        assert self.sweep(capfd, cfg, text, _config_variants(text),
                          ("scan", "--config", str(cfg), "--out", str(out)),
                          (out.with_suffix(".csv"), out.with_suffix(".json"))) == []

    @pytest.mark.parametrize("verb", ["fictitious-field", "scattering-rate"])
    def test_species_file_numbers(self, tmp_path, capfd, verb):
        path = tmp_path / "cs.species"
        assert self.sweep(capfd, path, SWEEP_SPECIES, _config_variants(SWEEP_SPECIES, FILE_VALUES),
                          (verb, "--species", str(path), "--intensity", "0.87") + LIGHT) == []

    def test_registry_file_numbers(self, tmp_path, capfd):
        path, cfg, out = tmp_path / "states.cfg", tmp_path / "field.cfg", tmp_path / "out"
        cfg.write_text(FIELD_SCAN_CONFIG.replace("state = 4g(4)", f"state = 6s\nregistry = {path}")
                       .replace("19.2", "18.5").replace("20.5", "18.8"))
        assert self.sweep(capfd, path, SWEEP_REGISTRY,
                          _config_variants(SWEEP_REGISTRY, FILE_VALUES),
                          ("scan", "--config", str(cfg), "--out", str(out)),
                          (out.with_suffix(".csv"), out.with_suffix(".json"))) == []

    def test_spectrum_csv_numbers(self, tmp_path, capfd):
        """The first row, the deepest one and the last of a 60-point scan."""
        text, dip = _spectrum_text(tmp_path, ".csv", np.linspace(210e3, 246e3, 60), 228.7e3,
                                   noise_sigma=0.01, seed=3)
        path = tmp_path / "spec.csv"
        rows = (2, dip + 2, len(text.splitlines()) - 1)   # after the schema and header lines
        assert self.sweep(capfd, path, text, _config_variants(text, FILE_VALUES, rows, ","),
                          ("fit", "--model", "fano", "--input", str(path))) == []

    def test_spectrum_json_numbers(self, tmp_path, capfd):
        """The metadata numbers, and the first point, the deepest one and the
        last of a 300-point scan, through energy-map."""
        text, dip = _spectrum_text(tmp_path, ".json", np.linspace(178.7e3, 278.7e3, 300),
                                   228.7e3)
        (tmp_path / "scans").mkdir()
        assert self.sweep(capfd, tmp_path / "scans" / "scan.json", text,
                          _json_variants(text, (0, dip, -1)),
                          ("energy-map", "--scan-dir", str(tmp_path / "scans"))) == []

    @pytest.mark.parametrize("model,text", [("lz", LZ_INPUT), ("linear", LINEAR_INPUT)],
                             ids=["lz", "linear"])
    def test_fit_input_numbers(self, tmp_path, capfd, model, text):
        """The first row, a middle one and the last of a fit input."""
        path = tmp_path / "input.csv"
        last = len(text.splitlines()) - 1
        assert self.sweep(capfd, path, text,
                          _config_variants(text, FILE_VALUES, (1, 1 + last // 2, last), ","),
                          ("fit", "--model", model, "--input", str(path))) == []
