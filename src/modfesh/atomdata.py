"""Physical constants, the cesium D-line transition table, and molecular-state models.

Magnetic fields are in Gauss at every interface (matching the experimental
literature for cesium); energies of molecular states are in Hz relative to the
two-atom scattering threshold, negative below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .keyvalue import Section, finite, format_keyvalue, load_keyvalue, write_text
from .specfun import HalfInt

__all__ = [
    "Transition", "AtomSpecies", "MolecularState",
    "cesium", "cesium_states",
    "bare_energy", "molecular_energy", "crossing_field",
    "load_species", "save_species", "load_state_registry", "save_state_registry",
]

# CODATA 2018
H_PLANCK = 6.62607015e-34       # J s
HBAR = 1.054571817e-34          # J s
C_LIGHT = 299792458.0           # m/s
MU0 = 1.25663706212e-6          # N/A^2
KB = 1.380649e-23               # J/K
MU_BOHR = 9.2740100783e-24      # J/T
A_BOHR = 5.29177210903e-11      # m

CS_MASS = 2.20694650e-25        # kg, cesium-133

GAUSS_TO_TESLA = 1e-4

# experimental bound on differential magnetic moments of the probed states
MAX_MU_REL_HZ_PER_G = 2.3e6

DEFAULT_FIELD_WINDOW_G = (15.0, 50.0)


@dataclass(frozen=True)
class Transition:
    """One hyperfine component of an optical line.

    frequency is the transition frequency omega_{F'F}/2pi in Hz;
    reduced_dipole is <J||d||J'> in C m; decay_rate is the line Gamma in rad/s.
    """

    line: str                 # "D1" or "D2"
    F: int
    F_prime: int
    frequency: float          # Hz
    reduced_dipole: float     # C m
    J: HalfInt
    J_prime: HalfInt
    decay_rate: float         # rad/s

    def __post_init__(self):
        if self.line not in ("D1", "D2"):
            raise DomainError(f"unknown line {self.line!r}")
        if self.frequency <= 0:
            raise DomainError("transition frequency must be positive")
        if self.reduced_dipole <= 0:
            raise DomainError("reduced dipole must be positive")
        if abs(self.F - self.F_prime) > 1:
            raise DomainError("electric dipole requires |F - F'| <= 1")

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * self.frequency


@dataclass(frozen=True)
class AtomSpecies:
    name: str
    mass: float               # kg
    nuclear_spin: HalfInt
    ground_F: int
    ground_gF: float
    transitions: tuple

    def __post_init__(self):
        if not self.transitions:
            raise DomainError("species needs at least one transition")

    @property
    def reduced_mass(self) -> float:
        """Two identical colliding partners."""
        return self.mass / 2.0

    def reference_transition(self) -> Transition:
        """The D2 F -> F'=F+1 line that detunings are quoted against."""
        for tr in self.transitions:
            if tr.line == "D2" and tr.F == self.ground_F and tr.F_prime == self.ground_F + 1:
                return tr
        raise ConfigError(
            f"species {self.name!r} lacks the D2 F={self.ground_F}->F'={self.ground_F + 1} "
            "reference transition")


def cesium() -> AtomSpecies:
    """Cesium-133 with the five D1/D2 hyperfine components from F = 3."""
    j_half = HalfInt(1)   # 1/2
    j_three_half = HalfInt(3)
    g_d1 = 2.0 * math.pi * 4.5612e6   # rad/s
    g_d2 = 2.0 * math.pi * 5.2227e6   # rad/s
    d_d1 = 2.6980e-29                 # C m
    d_d2 = 3.7971e-29                 # C m
    transitions = (
        Transition("D1", 3, 3, 335.12056284e12, d_d1, j_half, j_half, g_d1),
        Transition("D1", 3, 4, 335.12173052e12, d_d1, j_half, j_half, g_d1),
        Transition("D2", 3, 2, 351.73054972e12, d_d2, j_half, j_three_half, g_d2),
        Transition("D2", 3, 3, 351.73070092e12, d_d2, j_half, j_three_half, g_d2),
        Transition("D2", 3, 4, 351.73090217e12, d_d2, j_half, j_three_half, g_d2),
    )
    return AtomSpecies(
        name="cesium-133",
        mass=CS_MASS,
        nuclear_spin=HalfInt(7),      # 7/2
        ground_F=3,
        ground_gF=-0.25,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Molecular states: locally linear E(B) with an optional single avoided crossing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MolecularState:
    """Labeled collisional level with a linear E(B) model near B_ref.

    E0 is the energy at B_ref relative to the scattering threshold (Hz,
    negative = bound); mu_rel is the differential magnetic moment against the
    threshold (Hz/G).  crossing_partner = (label, V_ij in Hz) adds a two-level
    avoided crossing with the named state.
    """

    label: str
    E0: float                  # Hz at B_ref, signed
    mu_rel: float              # Hz/G
    B_ref: float               # G
    window: tuple = DEFAULT_FIELD_WINDOW_G
    crossing_partner: tuple | None = None   # (label, V_ij Hz)

    def __post_init__(self):
        if abs(self.mu_rel) > MAX_MU_REL_HZ_PER_G:
            raise DomainError(
                f"|mu_rel| = {abs(self.mu_rel):.3g} Hz/G exceeds the experimental "
                f"bound {MAX_MU_REL_HZ_PER_G:.2g} Hz/G")
        if self.window[0] >= self.window[1]:
            raise DomainError("field window must be (low, high) with low < high")
        if self.crossing_partner is not None:
            _, v = self.crossing_partner
            if v < 0:
                raise DomainError("coupling V_ij must be non-negative")


def cesium_states() -> tuple:
    """Default registry of the four probed cesium states.

    E0/mu_rel are calibration values anchored to the measured resonance
    positions (4g(4): 228.7 kHz binding at 19.41 G with threshold crossing at
    19.84 G; 6s-6g(6) crossing at 18.66 G with a 25 kHz gap); they are local
    linear models, not coupled-channels results.
    """
    mu_4g4 = 228.7e3 / (19.84 - 19.41)   # Hz/G, pins the threshold crossing
    return (
        MolecularState("4g(4)", E0=-228.7e3, mu_rel=mu_4g4, B_ref=19.41),
        MolecularState("4d", E0=-450.0e3, mu_rel=760.0e3, B_ref=47.36,
                       window=(45.0, 50.0)),
        MolecularState("6s", E0=-182.0e3, mu_rel=-1.35e6, B_ref=18.66,
                       crossing_partner=("6g(6)", 25.0e3)),
        MolecularState("6g(6)", E0=-182.0e3, mu_rel=-8.0e3, B_ref=18.66,
                       crossing_partner=("6s", 25.0e3)),
    )


def bare_energy(state: MolecularState, B):
    """Linear model without any crossing, Hz (B scalar or array)."""
    return state.E0 + state.mu_rel * (B - state.B_ref)


def _resolve_partner(state: MolecularState, registry) -> MolecularState:
    label, _ = state.crossing_partner
    for other in registry:
        if other.label == label:
            return other
    raise ConfigError(f"crossing partner {label!r} of state {state.label!r} "
                      "not found in the registry")


# math.hypot elementwise: np.hypot rounds differently by an ulp, which the
# branch energies next to a crossing amplify to ~1e-13 relative
_HYPOT = np.frompyfunc(math.hypot, 2, 1)


def _branches(state: MolecularState, B, registry) -> tuple:
    """(own, lower, upper) branch energies in Hz at field(s) B, floats for a
    scalar B; all three are the linear model without a crossing partner.  The
    first field outside the validity window raises DomainError."""
    b = np.asarray(B, dtype=float)
    lo, hi = state.window
    outside = ~((lo <= b) & (b <= hi))
    if outside.any():
        bad = B if b.ndim == 0 else float(b[outside][0])
        raise DomainError(
            f"B = {bad} G outside validity window [{lo}, {hi}] G of state {state.label!r}")
    own = lower = upper = bare_energy(state, b)
    if state.crossing_partner is not None:
        _, v = state.crossing_partner
        e_other = bare_energy(_resolve_partner(state, registry), b)
        mean = 0.5 * (own + e_other)
        gap = 0.5 * np.asarray(_HYPOT(own - e_other, v), dtype=float)
        lower, upper = mean - gap, mean + gap
        own = np.where(own > e_other, upper, lower)
    return (float(own), float(lower), float(upper)) if b.ndim == 0 else (own, lower, upper)


def molecular_energy(state: MolecularState, B, registry=()):
    """State energy at field B in Hz relative to the scattering threshold.

    B may be a scalar (float out) or an array (array out).  With a crossing
    partner, returns the avoided-crossing branch adiabatically connected to
    this state's own linear model away from the crossing; exactly at the
    crossing center the lower branch is returned (deterministic tie).
    """
    return _branches(state, B, registry)[0]


def crossing_branches(state: MolecularState, B, registry) -> tuple:
    """(lower, upper) avoided-crossing branch energies in Hz at field(s) B."""
    if state.crossing_partner is None:
        raise DomainError(f"state {state.label!r} has no crossing partner")
    return _branches(state, B, registry)[1:]


def crossing_field(state: MolecularState, registry) -> float:
    """Field (G) where the two bare linear models intersect."""
    if state.crossing_partner is None:
        raise DomainError(f"state {state.label!r} has no crossing partner")
    partner = _resolve_partner(state, registry)
    denom = state.mu_rel - partner.mu_rel
    if denom == 0:
        raise DomainError("parallel levels never cross")
    num = (partner.E0 - partner.mu_rel * partner.B_ref) - (state.E0 - state.mu_rel * state.B_ref)
    return num / denom


# ---------------------------------------------------------------------------
# File I/O: species and molecular-state registry files
# ---------------------------------------------------------------------------

def load_species(path) -> AtomSpecies:
    """Load a species file on top of the embedded cesium defaults.

    [species] keys override scalar fields; [transitions] rows replace the
    matching (line, F, F') entry or append a new one.  Row columns:
    line F F' frequency_Hz reduced_dipole_Cm decay_rad_s
    (raw SI values so that save/load round trips are bit-exact).
    """
    base = cesium()
    sections = load_keyvalue(path)
    updates = {}
    transitions = {(t.line, t.F, t.F_prime): t for t in base.transitions}
    for sec in sections:
        if sec.name == "species":
            if "name" in sec.values:
                updates["name"] = sec.values["name"]
            if "mass_kg" in sec.values:
                updates["mass"] = sec.get_float("mass_kg")
            if "nuclear_spin" in sec.values:
                try:
                    updates["nuclear_spin"] = HalfInt.coerce(sec.values["nuclear_spin"])
                except (DomainError, ValueError):
                    raise ConfigError(
                        f"nuclear_spin: cannot parse {sec.values['nuclear_spin']!r}",
                        path, sec.value_lines["nuclear_spin"]) from None
            if "ground_F" in sec.values:
                updates["ground_F"] = sec.get_int("ground_F")
            if "ground_gF" in sec.values:
                updates["ground_gF"] = sec.get_float("ground_gF")
            for key in sec.values:
                if key not in ("name", "mass_kg", "nuclear_spin", "ground_F", "ground_gF"):
                    raise ConfigError(f"unknown key {key!r} in [species]",
                                      path, sec.value_lines[key])
        elif sec.name == "transitions":
            for lineno, tokens in sec.rows:
                if len(tokens) != 6:
                    raise ConfigError(
                        "transition row needs 6 columns: line F F' freq_Hz dipole_Cm decay_rad_s",
                        path, lineno)
                line_name = tokens[0]
                try:
                    f_lo = int(tokens[1])
                    f_hi = int(tokens[2])
                    freq, dip, gam = map(finite, tokens[3:])
                except ValueError:
                    raise ConfigError("cannot parse transition row numbers",
                                      path, lineno) from None
                j_prime = HalfInt(1) if line_name == "D1" else HalfInt(3)
                try:
                    transitions[(line_name, f_lo, f_hi)] = Transition(
                        line_name, f_lo, f_hi, freq, dip, HalfInt(1), j_prime, gam)
                except DomainError as exc:
                    raise ConfigError(str(exc), path, lineno) from None
        else:
            raise ConfigError(f"unknown section [{sec.name}]", path, sec.line)
    ordered = tuple(sorted(transitions.values(), key=lambda t: (t.line, t.F, t.F_prime)))
    return replace(base, transitions=ordered, **updates)


def save_species(species: AtomSpecies, path) -> None:
    sec_sp = Section("species", 0, values={
        "name": species.name,
        "mass_kg": repr(species.mass),
        "nuclear_spin": str(species.nuclear_spin),
        "ground_F": str(species.ground_F),
        "ground_gF": repr(species.ground_gF),
    })
    sec_tr = Section("transitions", 0)
    for t in sorted(species.transitions, key=lambda t: (t.line, t.F, t.F_prime)):
        sec_tr.rows.append((0, [t.line, t.F, t.F_prime,
                                repr(t.frequency),
                                repr(t.reduced_dipole),
                                repr(t.decay_rate)]))
    write_text(format_keyvalue([sec_sp, sec_tr], header_comment=(
        "species file: SI units except where the key name states otherwise\n"
        "transitions columns: line F F' frequency_Hz reduced_dipole_Cm decay_rad_s")), path)


def load_state_registry(path) -> tuple:
    """Registry file: one [state <label>] section per molecular state."""
    sections = load_keyvalue(path)
    states = []
    for sec in sections:
        if not sec.name.startswith("state"):
            raise ConfigError(f"unknown section [{sec.name}] (expected [state <label>])",
                              path, sec.line)
        label = sec.name[len("state"):].strip()
        if not label:
            raise ConfigError("state section needs a label: [state 4g(4)]", path, sec.line)
        e0 = sec.get_float("E0_Hz")
        mu = sec.get_float("mu_rel_Hz_per_G")
        b_ref = sec.get_float("B_ref_G")
        window = DEFAULT_FIELD_WINDOW_G
        if "window_G" in sec.values:
            tokens = sec.values["window_G"].split()
            if len(tokens) != 2:
                raise ConfigError("window_G needs two values: low high",
                                  path, sec.value_lines["window_G"])
            try:
                window = (finite(tokens[0]), finite(tokens[1]))
            except ValueError:
                raise ConfigError(f"window_G: cannot parse {sec.values['window_G']!r}",
                                  path, sec.value_lines["window_G"]) from None
        partner = None
        if "crossing_partner" in sec.values:
            v = sec.get_float("V_ij_Hz")
            partner = (sec.values["crossing_partner"], v)
        elif "V_ij_Hz" in sec.values:
            raise ConfigError("V_ij_Hz given without crossing_partner",
                              path, sec.value_lines["V_ij_Hz"])
        try:
            states.append(MolecularState(label, e0, mu, b_ref, window, partner))
        except DomainError as exc:
            raise ConfigError(str(exc), path, sec.line) from None
    for st in states:
        if st.crossing_partner is not None:
            _resolve_partner(st, states)
    return tuple(states)


def save_state_registry(states, path) -> None:
    sections = []
    for st in states:
        sec = Section(f"state {st.label}", 0, values={
            "E0_Hz": repr(st.E0),
            "mu_rel_Hz_per_G": repr(st.mu_rel),
            "B_ref_G": repr(st.B_ref),
            "window_G": f"{st.window[0]!r} {st.window[1]!r}",
        })
        if st.crossing_partner is not None:
            sec.values["crossing_partner"] = st.crossing_partner[0]
            sec.values["V_ij_Hz"] = repr(st.crossing_partner[1])
        sections.append(sec)
    write_text(format_keyvalue(sections, header_comment=(
        "molecular-state registry: energies in Hz relative to threshold "
        "(negative = bound), fields in Gauss")), path)
