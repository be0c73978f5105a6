import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modfesh
from modfesh import floquet
from modfesh.atomdata import cesium, cesium_states, molecular_energy, save_state_registry
from modfesh.cli import MAX_COUNT, build_parser, run
from modfesh.lightshift import LightField, Polarization, fictitious_field, scattering_rate
from modfesh.scattering import ResonanceModel
from modfesh.spectra import (read_spectrum_csv, synthesize_spectrum,
                             write_spectrum_csv, write_spectrum_json)


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
LIGHT_FLAGS = TABLE_FLAGS + ["--detuning", "--f-level", "--intensity", "--pol", "--species"]
# verb -> the option strings it takes; README "Command line" says which verbs
# take the shared --format, --output and --species
OPTIONS = {
    "fictitious-field": LIGHT_FLAGS,
    "scattering-rate": LIGHT_FLAGS + ["--mf"],
    "heating-rate": LIGHT_FLAGS + ["--mf"],
    "resonances": TABLE_FLAGS + ["--m-max", "--omega-b-hz"],
    "floquet-gap": TABLE_FLAGS + ["--amplitude-hz", "--m", "--omega-b-hz", "--rabi-hz",
                                  "--window"],
    "scattering-length": TABLE_FLAGS + ["--a-bk", "--delta-m-hz", "--grid", "--m",
                                        "--omega0-hz"],
    "dressed": TABLE_FLAGS + ["--a-bk", "--delta-m-hz", "--delta-shift-hz", "--gamma-hz",
                              "--grid", "--k-convention", "--k-wavenumber", "--m",
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

    def test_floquet_gap_csv_fields_are_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "floquet-gap", "--omega-b-hz", "-150e3",
                               "--rabi-hz", "3e3", "--amplitude-hz", "150e3",
                               "--m", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "m,gap_Hz,center_Hz,rwa_gap_Hz"
        for field in lines[2].split(","):
            float(field)


class TestScatteringLengthCmd:
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

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scan]\nstart_hz = sixty\n")
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg), "--out",
                               str(tmp_path / "x"))
        assert code == 2
        assert "error" in err


class TestFit:
    def synth_csv(self, tmp_path, seed=3):
        model = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * 228.7e3, -1)
        grid = np.linspace(200e3, 256e3, 300)
        spec = synthesize_spectrum([model], grid, density=3e12,
                                   noise_sigma=0.01, seed=seed)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        return path

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

    def test_linear_fit(self, tmp_path, capsys):
        path = tmp_path / "lin.csv"
        path.write_text("intensity,center\n0.4,227.9e3\n0.8,227.1e3\n1.2,226.3e3\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "linear", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["params"]["zero_intensity_center_hz"] == pytest.approx(228.7e3)
        assert report["params"]["slope_hz_per_intensity"] == pytest.approx(-2e3)

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1,x,0\n")
        code, _, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        assert code == 2

    def test_nonconvergent_fit_exits_four_with_report(self, tmp_path, capsys):
        # an unresolved two-point spike starves the 5-parameter fit
        model = ResonanceModel(200.0, 2 * math.pi * 2e3, 2 * math.pi * 114.35e3, -2)
        grid = np.linspace(95e3, 135e3, 300)
        spec = synthesize_spectrum([model], grid, density=3e12,
                                   noise_sigma=0.01, seed=7)
        path = tmp_path / "spike.csv"
        write_spectrum_csv(spec, path)
        code, out, _ = run_cli(capsys, "fit", "--model", "fano", "--input", str(path))
        if code == 4:
            report = json.loads(out)
            assert report["converged"] is False
            assert report["last_params"] is not None
        else:
            assert code == 0   # if LM manages to converge the report must say so
            assert json.loads(out)["converged"] is True


class TestEnergyMap:
    def make_scan_dir(self, tmp_path):
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
                                                 "intensity_W_cm2": intensity})
            write_spectrum_json(spec, scan_dir / f"scan_{i}.json")
        return scan_dir

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
        """scan x 3 (0.4/0.8/1.2 W/cm^2, orders 1 and 2) and energy-map through
        the CLI; returns the (state, order) of each map row."""
        registry = cesium_states()
        state = next(s for s in registry if s.label == label)
        energy = molecular_energy(state, b_field, registry)
        start, stop = abs(energy) / 2 - 22e3, abs(energy) + 22e3
        points = int(round((stop - start) / 150.0)) + 1
        for i, intensity in enumerate((0.4, 0.8, 1.2)):
            body = ["[scan]", f"start_hz = {start!r}", f"stop_hz = {stop!r}",
                    f"points = {points}", "density_cm3 = 2.5e12", "noise_sigma = 0.01",
                    f"seed = {seed + i}", f"field_G = {b_field!r}",
                    f"intensity_W_cm2 = {intensity!r}",
                    f"dc_shift_hz = {slope * intensity * (1 - 0.86 / 2)!r}"]
            for k, width in ((1, 3e3), (2, 4e3)):
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

    def test_ambiguous_rows_exit_three(self, tmp_path, capsys):
        scan_dir = tmp_path / "scans"
        scan_dir.mkdir()
        model = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * 150e3, -1)
        spec = synthesize_spectrum([model], np.linspace(100e3, 200e3, 600),
                                   density=3e12,
                                   metadata={"field_G": 19.41, "intensity_W_cm2": 0.8})
        write_spectrum_json(spec, scan_dir / "scan.json")
        out_csv = tmp_path / "map.csv"
        code, _, err = run_cli(capsys, "energy-map", "--scan-dir", str(scan_dir),
                               "--output", str(out_csv))
        assert code == 3
        assert "flagged" in err
        assert out_csv.exists()   # flagged rows are still emitted


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
REGISTRY = """\
[state 4g(4)]
E0_Hz = -182e3
mu_rel_Hz_per_G = 1.35e6
B_ref_G = 19.8
window_G = a b
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


def _not_called(*args, **kwargs):
    raise AssertionError("allocated before the count was checked")


class TestUsageErrorsExitTwo:
    """Non-finite numbers, malformed scan-config values and counts over
    MAX_COUNT exit 2 without a traceback; a config error names the file and
    line."""

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
        (("scan", "--config", "c.cfg", "--out", "o5", "--output", "ignored.txt",
          "--format", "json", "--species", "nothere.species"), None, None),
        (("fit", "--model", "linear", "--input", "lin.csv", "--format", "csv"), None, None),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_exit_two(self, tmp_path, capsys, monkeypatch, argv, edit, line):
        # an over-cap count must be refused before it sizes an allocation
        monkeypatch.setattr(np, "linspace", _not_called)
        monkeypatch.setattr(floquet, "resonance_frequencies", _not_called)
        # valid inputs for the rows with a flag their verb does not take
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(FIELD_SCAN_CONFIG)
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

    @pytest.mark.parametrize("files,argv,where", [
        ({"spec.csv": "axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1e5,nan,0.01\n"},
         ("fit", "--model", "fano", "--input", "{tmp}/spec.csv"), "spec.csv"),
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
        ({"scans/scan.json": "[" * 100_000 + "]" * 100_000},
         ("energy-map", "--scan-dir", "{tmp}/scans"), "scans/scan.json"),
    ], ids=["csv-nan", "json-inf", "json-string", "linear-csv-nan", "resonance-m-1.7",
            "registry-window_G", "linear-csv-leading-nan", "species-row-nan",
            "species-ground_F-3.7", "registry-E0-nan", "registry-window_G-nan",
            "lz-branch-0.6", "json-field-string", "json-field-nan", "json-metadata-list",
            "json-deep-nesting"])
    def test_data_file_exit_two(self, tmp_path, capsys, files, argv, where):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text.replace("{tmp}", str(tmp_path)))
        code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert f"{tmp_path}/{where}:" in err


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

    def test_stderr_is_the_error_line_alone(self):
        """A fresh `python -m modfesh.cli` prints no numpy overflow warning
        ahead of the error line."""
        src = str(Path(modfesh.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for verb, argv in OVERFLOW.items():
            proc = subprocess.run([sys.executable, "-m", "modfesh.cli", *argv], env=env,
                                  capture_output=True, text=True, check=False)
            assert proc.returncode == 3, verb
            assert proc.stdout == ""
            assert proc.stderr.startswith("domain error: ") and \
                proc.stderr.count("\n") == 1, proc.stderr


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
        (tmp_path / "freq.cfg").write_text(FREQ_SCAN_CONFIG.replace("m = 1.7", "m = 1"))
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
