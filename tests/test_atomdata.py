import math
from fractions import Fraction

import numpy as np
import pytest

from modfesh import atomdata
from modfesh.atomdata import (MolecularState, bare_energy, cesium, cesium_states,
                              crossing_branches, load_species, load_state_registry,
                              molecular_energy, save_species, save_state_registry)
from modfesh.errors import ConfigError, DomainError


class TestCesiumTable:
    def test_five_transitions(self):
        cs = cesium()
        assert len(cs.transitions) == 5
        assert sum(t.line == "D1" for t in cs.transitions) == 2
        assert sum(t.line == "D2" for t in cs.transitions) == 3

    def test_reference_line(self):
        cs = cesium()
        ref = cs.reference_transition()
        assert ref.line == "D2" and ref.F == 3 and ref.F_prime == 4
        assert ref.frequency == 351.73090217e12
        assert ref.reduced_dipole == 3.7971e-29

    def test_ground_state(self):
        cs = cesium()
        assert cs.ground_F == 3
        assert cs.ground_gF == -0.25
        assert cs.nuclear_spin == Fraction(7, 2)

    def test_decay_rates(self):
        cs = cesium()
        d1 = next(t for t in cs.transitions if t.line == "D1")
        d2 = next(t for t in cs.transitions if t.line == "D2")
        assert d1.decay_rate == pytest.approx(2 * math.pi * 4.5612e6)
        assert d2.decay_rate == pytest.approx(2 * math.pi * 5.2227e6)

    def test_decay_dipole_consistency(self):
        # Gamma = w^3 / (3 pi eps0 hbar c^3) * (2J+1)/(2J'+1) * d^2 must hold
        # for the tabulated values (this pins the matrix-element convention)
        eps0 = 1.0 / (atomdata.MU0 * atomdata.C_LIGHT ** 2)
        cs = cesium()
        for tr in cs.transitions:
            w = tr.angular_frequency
            g_pred = (w ** 3 / (3 * math.pi * eps0 * atomdata.HBAR * atomdata.C_LIGHT ** 3)
                      * (2 * tr.J + 1) / (2 * tr.J_prime + 1) * tr.reduced_dipole ** 2)
            assert g_pred == pytest.approx(tr.decay_rate, rel=2e-3)


class TestMolecularEnergy:
    def test_reference_point(self):
        st = MolecularState("x", E0=-100e3, mu_rel=500e3, B_ref=20.0)
        assert molecular_energy(st, 20.0) == -100e3

    def test_linear_model(self):
        st = MolecularState("x", E0=-100e3, mu_rel=500e3, B_ref=20.0)
        assert molecular_energy(st, 21.0) == pytest.approx(400e3)
        assert bare_energy(st, 19.0) == pytest.approx(-600e3)

    def test_window_enforced(self):
        st = MolecularState("x", E0=-100e3, mu_rel=500e3, B_ref=20.0)
        with pytest.raises(DomainError):
            molecular_energy(st, 51.0)
        with pytest.raises(DomainError):
            molecular_energy(st, 3.0)

    def test_mu_rel_bound(self):
        with pytest.raises(DomainError):
            MolecularState("x", E0=0.0, mu_rel=2.4e6, B_ref=20.0)

    def test_unresolved_partner(self):
        st = MolecularState("x", E0=0.0, mu_rel=1e5, B_ref=20.0,
                            crossing_partner=("ghost", 10e3))
        with pytest.raises(ConfigError):
            molecular_energy(st, 20.0, registry=(st,))

    def _crossing_pair(self, v=25e3):
        a = MolecularState("steep", E0=-200e3, mu_rel=-1.0e6, B_ref=18.66,
                           crossing_partner=("flat", v))
        b = MolecularState("flat", E0=-200e3, mu_rel=-10e3, B_ref=18.66,
                           crossing_partner=("steep", v))
        return a, b

    def test_minimum_gap_is_coupling(self):
        a, b = self._crossing_pair()
        reg = (a, b)
        # exactly at the crossing of the bare lines the branch splitting
        # equals the coupling
        bc = ((b.E0 - b.mu_rel * b.B_ref) - (a.E0 - a.mu_rel * a.B_ref)) / (a.mu_rel - b.mu_rel)
        lower, upper = crossing_branches(a, bc, reg)
        assert upper - lower == pytest.approx(25e3, rel=1e-9)
        # a dense scan approaches it from above (grid never hits bc exactly)
        bs = np.linspace(18.0, 19.4, 3001)
        gaps = np.abs([molecular_energy(a, x, reg) - molecular_energy(b, x, reg)
                       for x in bs])
        assert gaps.min() >= 25e3 * (1 - 1e-12)
        assert gaps.min() == pytest.approx(25e3, rel=1e-4)
        assert bs[np.argmin(gaps)] == pytest.approx(bc, abs=1e-3)

    def test_branches_never_closer_than_coupling(self):
        a, b = self._crossing_pair()
        reg = (a, b)
        for x in np.linspace(18.0, 19.4, 500):
            upper = max(molecular_energy(a, x, reg), molecular_energy(b, x, reg))
            lower = min(molecular_energy(a, x, reg), molecular_energy(b, x, reg))
            assert upper - lower >= 25e3 * (1 - 1e-12)

    def test_decoupled_limit(self):
        a, b = self._crossing_pair(v=0.0)
        reg = (a, b)
        for x in (18.2, 18.66, 19.1):
            assert molecular_energy(a, x, reg) in (
                pytest.approx(bare_energy(a, x)), pytest.approx(bare_energy(b, x)))
            # far from the crossing the branch follows its own line exactly
        assert molecular_energy(a, 18.2, reg) == pytest.approx(bare_energy(a, 18.2))
        assert molecular_energy(b, 18.2, reg) == pytest.approx(bare_energy(b, 18.2))

    def test_far_from_crossing_deviation_bound(self):
        a, b = self._crossing_pair()
        reg = (a, b)
        v = 25e3
        for x in (18.05, 19.3):
            diff = abs(bare_energy(a, x) - bare_energy(b, x))
            assert diff >= 20 * v
            dev = abs(molecular_energy(a, x, reg) - bare_energy(a, x))
            assert dev < v ** 2 / (4 * diff) * 1.1

    def test_tie_takes_branch_joined_above(self):
        # both states share (E0, B_ref), so at B = B_ref the bare energies are
        # bit-identical: each keeps the branch it joins just above the center,
        # the upper one for the larger mu_rel, and for equal slopes the larger label
        a, b = self._crossing_pair()
        reg = (a, b)
        assert molecular_energy(a, 18.66, reg) == -200e3 - 12.5e3
        assert molecular_energy(b, 18.66, reg) == -200e3 + 12.5e3
        assert molecular_energy(a, 18.6601, reg) < molecular_energy(b, 18.6601, reg)
        x, y = (MolecularState(label, E0=-200e3, mu_rel=-10e3, B_ref=18.66,
                               crossing_partner=(other, 25e3))
                for label, other in (("x", "y"), ("y", "x")))
        assert molecular_energy(x, 18.66, (x, y)) == -200e3 - 12.5e3
        assert molecular_energy(y, 18.66, (x, y)) == -200e3 + 12.5e3

    def test_default_registry(self):
        states = cesium_states()
        labels = {s.label for s in states}
        assert labels == {"4g(4)", "4d", "6s", "6g(6)"}
        st = next(s for s in states if s.label == "4g(4)")
        assert molecular_energy(st, 19.41, states) == pytest.approx(-228.7e3)
        # threshold crossing calibrated at 19.84 G
        assert molecular_energy(st, 19.84, states) == pytest.approx(0.0, abs=1.0)
        # 6s/6g(6) minimum gap is the fitted 25 kHz coupling
        s6 = next(s for s in states if s.label == "6s")
        lower, upper = crossing_branches(s6, 18.66, states)
        assert upper - lower == pytest.approx(25e3, rel=1e-12)


def reference_energy(state, b, registry):
    """Per-point reference: the two-level branch choice with math.hypot."""
    e_own = state.E0 + state.mu_rel * (b - state.B_ref)
    if state.crossing_partner is None:
        return e_own
    label, v = state.crossing_partner
    other = next(s for s in registry if s.label == label)
    e_other = other.E0 + other.mu_rel * (b - other.B_ref)
    mean = 0.5 * (e_own + e_other)
    gap = 0.5 * math.hypot(e_own - e_other, v)
    if e_own == e_other:   # the tie: the branch the state joins just above the center
        upper = (state.mu_rel, state.label) > (other.mu_rel, other.label)
    else:
        upper = e_own > e_other
    return mean + gap if upper else mean - gap


class TestMolecularEnergyArray:
    """A field array gives bit for bit the scalar loop's energies."""

    def test_matches_scalar_loop(self):
        states = cesium_states()
        for st in states:
            lo, hi = st.window
            b = np.linspace(lo, hi, 2001)
            if lo <= 18.66 <= hi:   # the 6s/6g(6) crossing center: bare lines tie
                b = np.append(b, 18.66)
            out = molecular_energy(st, b, states)
            assert isinstance(out, np.ndarray) and out.shape == b.shape
            assert out.tolist() == [molecular_energy(st, float(x), states) for x in b]
            assert out.tolist() == [reference_energy(st, float(x), states) for x in b]

    def test_scalar_in_float_out(self):
        states = cesium_states()
        assert type(molecular_energy(states[2], 18.66, states)) is float
        lower, upper = crossing_branches(states[2], 18.66, states)
        assert type(lower) is float and type(upper) is float

    def test_tie_takes_branch_joined_above_in_array(self):
        a = MolecularState("steep", E0=-200e3, mu_rel=-1.0e6, B_ref=18.66,
                           crossing_partner=("flat", 25e3))
        b = MolecularState("flat", E0=-200e3, mu_rel=-10e3, B_ref=18.66,
                           crossing_partner=("steep", 25e3))
        reg = (a, b)
        grid = np.array([18.6, 18.66, 18.7])
        e_a, e_b = molecular_energy(a, grid, reg), molecular_energy(b, grid, reg)
        assert (e_a[1], e_b[1]) == (-200e3 - 12.5e3, -200e3 + 12.5e3)
        assert e_a.tolist() == [molecular_energy(a, x, reg) for x in grid]
        assert e_b.tolist() == [molecular_energy(b, x, reg) for x in grid]

    def test_crossing_branches_array(self):
        states = cesium_states()
        b = np.linspace(18.0, 19.4, 301)
        lower, upper = crossing_branches(states[2], b, states)
        ref = [crossing_branches(states[2], float(x), states) for x in b]
        assert lower.tolist() == [r[0] for r in ref]
        assert upper.tolist() == [r[1] for r in ref]

    def test_window_error_names_first_offending_field(self):
        st = MolecularState("x", E0=-100e3, mu_rel=500e3, B_ref=20.0)
        b = np.array([20.0, 51.0, 3.0, 60.0])
        with pytest.raises(DomainError) as from_array:
            molecular_energy(st, b)
        with pytest.raises(DomainError) as from_scalar:
            molecular_energy(st, 51.0)
        assert str(from_array.value) == str(from_scalar.value)
        assert "51.0" in str(from_array.value)
        with pytest.raises(DomainError):
            molecular_energy(st, np.array([20.0, np.nan]))


class TestSpeciesIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cs.species"
        save_species(cesium(), path)
        loaded = load_species(path)
        assert loaded == cesium()

    def test_partial_override(self, tmp_path):
        path = tmp_path / "override.species"
        path.write_text(
            "[transitions]\n"
            "D2 3 4 351.73090300e12 3.7971e-29 32815178.0\n",
            encoding="utf-8")
        sp = load_species(path)
        ref = sp.reference_transition()
        assert ref.frequency == 351.73090300e12
        assert len(sp.transitions) == 5   # others kept from the defaults
        d1 = next(t for t in sp.transitions if t.line == "D1" and t.F_prime == 3)
        assert d1.frequency == 335.12056284e12

    def test_checked_after_every_row(self, tmp_path):
        """ground_F = 4 is refused without its D2 4->5 reference line and
        accepted when a later row supplies it."""
        path = tmp_path / "f4.species"
        path.write_text("[species]\nground_F = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1: species 'cesium-133' lacks the D2 F=4"):
            load_species(path)
        path.write_text("[species]\nground_F = 4\n[transitions]\n"
                        "D2 4 5 351721960590000.0 3.7971e-29 32815191.9\n", encoding="utf-8")
        assert load_species(path).reference_transition().F_prime == 5

    def test_scalar_override(self, tmp_path):
        path = tmp_path / "g.species"
        path.write_text("[species]\nground_gF = -0.2503\n", encoding="utf-8")
        sp = load_species(path)
        assert sp.ground_gF == -0.2503
        assert sp.mass == cesium().mass

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "bad.species"
        path.write_text("[species]\nmass_kg = heavy\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_species(path)
        assert "line 2" in str(err.value)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad2.species"
        path.write_text("[transitions]\nD2 3 4 351.7e12\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_species(path)
        assert "6 columns" in str(err.value)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad3.species"
        path.write_text("[species]\ncolor = blue\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_species(path)


class TestRegistryIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "states.cfg"
        save_state_registry(cesium_states(), path)
        loaded = load_state_registry(path)
        assert loaded == cesium_states()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[state x]\nE0_Hz = -100e3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_state_registry(path)

    def test_partner_must_resolve(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text(
            "[state x]\nE0_Hz = -100e3\nmu_rel_Hz_per_G = 10e3\nB_ref_G = 20\n"
            "crossing_partner = ghost\nV_ij_Hz = 25e3\n",
            encoding="utf-8")
        with pytest.raises(ConfigError):
            load_state_registry(path)


# the bytes save_species(cesium()) and save_state_registry(cesium_states())
# write: floats as repr, the spin as a Fraction, a blank line before each section
SAVED_SPECIES = """\
# species file: SI units except where the key name states otherwise
# transitions columns: line F F' frequency_Hz reduced_dipole_Cm decay_rad_s

[species]
name = cesium-133
mass_kg = 2.2069465e-25
nuclear_spin = 7/2
ground_F = 3
ground_gF = -0.25

[transitions]
D1 3 3 335120562840000.0 2.698e-29 28658864.82310753
D1 3 4 335121730520000.0 2.698e-29 28658864.82310753
D2 3 2 351730549720000.0 3.7971e-29 32815191.903806824
D2 3 3 351730700920000.0 3.7971e-29 32815191.903806824
D2 3 4 351730902170000.0 3.7971e-29 32815191.903806824
"""
SAVED_REGISTRY = """\
# molecular-state registry: energies in Hz relative to threshold (negative = bound), fields in Gauss

[state 4g(4)]
E0_Hz = -228700.0
mu_rel_Hz_per_G = 531860.4651162794
B_ref_G = 19.41
window_G = 15.0 50.0

[state 4d]
E0_Hz = -450000.0
mu_rel_Hz_per_G = 760000.0
B_ref_G = 47.36
window_G = 45.0 50.0

[state 6s]
E0_Hz = -182000.0
mu_rel_Hz_per_G = -1350000.0
B_ref_G = 18.66
window_G = 15.0 50.0
crossing_partner = 6g(6)
V_ij_Hz = 25000.0

[state 6g(6)]
E0_Hz = -182000.0
mu_rel_Hz_per_G = -8000.0
B_ref_G = 18.66
window_G = 15.0 50.0
crossing_partner = 6s
V_ij_Hz = 25000.0
"""


@pytest.mark.parametrize("save,value,expected", [
    (save_species, cesium(), SAVED_SPECIES),
    (save_state_registry, cesium_states(), SAVED_REGISTRY),
], ids=["species", "registry"])
def test_saved_bytes(tmp_path, save, value, expected):
    """The savers write their canonical text byte for byte."""
    save(value, tmp_path / "saved")
    assert (tmp_path / "saved").read_bytes() == expected.encode("utf-8")
