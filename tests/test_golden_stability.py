"""The energy-map goldens under a one-ulp change of their input spectra.

Each trial moves 10% of the y values of every golden scan by one ulp, up or
down, and re-runs `energy-map` on them.  Rounding must not decide the result:
the exit code, the rows, their labels and notes stay those of the golden, and
every printed number stays within STABLE_RTOL of it.  A fit that the grid does
not resolve (a spike one sample wide, whose center stderr rounding decides)
carries the sampling sigma instead, so that its weight in the shift
compensation cannot jump.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from modfesh.cli import run
from modfesh.spectra import read_spectrum_json, write_spectrum
from test_golden import GOLDEN_DIR, _energy_map_scans, _max_rel_diff

STABLE_RTOL = 1e-8
SHARE = 0.1    # of each spectrum's y values moved in a trial
# seeds of default_rng; while the spike fits' stderrs weighted the shift
# compensation, 265 moved the m = -2 row's sigma by a factor ~3e9 and 365
# turned that row into an unmatched one (exit 3)
TRIALS = (265, 365, *range(18))


def perturb(scan_dir: Path, trial: int):
    """Move SHARE of the y values of each scan by one ulp, up or down, with
    default_rng(trial) choosing the samples and the directions."""
    rng = np.random.default_rng(trial)
    for path in sorted(scan_dir.glob("*.json")):
        spec = read_spectrum_json(path)
        picked = rng.choice(len(spec), size=int(SHARE * len(spec)), replace=False)
        toward = np.where(rng.random(picked.size) < 0.5, -np.inf, np.inf)
        spec.y[picked] = np.nextafter(spec.y[picked], toward)
        write_spectrum(spec, path.with_suffix(""))
        path.with_suffix(".csv").unlink()


@pytest.fixture(scope="module")
def golden_scans(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("golden")
    _energy_map_scans(tmp)
    return tmp / "scans"


@pytest.mark.parametrize("trial", TRIALS)
def test_energy_map_ignores_one_ulp(trial, golden_scans, tmp_path, capsys):
    scan_dir = tmp_path / "scans"
    scan_dir.mkdir()
    for path in golden_scans.glob("*.json"):
        (scan_dir / path.name).write_bytes(path.read_bytes())
    perturb(scan_dir, trial)
    capsys.readouterr()
    code = run(["energy-map", "--scan-dir", str(scan_dir), "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    diff = _max_rel_diff((GOLDEN_DIR / "energy-map-csv.stdout").read_text(encoding="utf-8"), out)
    assert diff is not None, out          # rows, labels and notes as in the golden
    assert diff <= STABLE_RTOL, out
