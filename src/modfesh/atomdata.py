"""Physical constants, the cesium D-line transition table, and molecular-state models.

Magnetic fields are in Gauss at every interface (matching the experimental
literature for cesium); energies of molecular states are in Hz relative to the
two-atom scattering threshold, negative below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError
from .keyvalue import REQUIRED, Section, finite, load_keyvalue, parse_fields, write_text
from .specfun import half_integer

__all__ = [
    "Transition", "AtomSpecies", "MolecularState",
    "cesium", "cesium_states",
    "bare_energy", "molecular_energy", "crossing_branches",
    "load_species", "save_species", "load_state_registry", "save_state_registry",
]

# CODATA 2018
HBAR = 1.054571817e-34          # J s
C_LIGHT = 299792458.0           # m/s
MU0 = 1.25663706212e-6          # N/A^2
KB = 1.380649e-23               # J/K
MU_BOHR = 9.2740100783e-24      # J/T
A_BOHR = 5.29177210903e-11      # m

CS_MASS = 2.20694650e-25        # kg, cesium-133

# experimental bound on differential magnetic moments of the probed states
MAX_MU_REL_HZ_PER_G = 2.3e6

DEFAULT_FIELD_WINDOW_G = (15.0, 50.0)


@dataclass(frozen=True)
class Transition:
    """One hyperfine component of an alkali D line, S1/2 -> P1/2 (D1) or P3/2 (D2).

    frequency is the transition frequency omega_{F'F}/2pi in Hz;
    reduced_dipole is <J||d||J'> in C m; decay_rate is the line Gamma in rad/s.
    """

    line: str                 # "D1" or "D2"
    F: int
    F_prime: int
    frequency: float          # Hz
    reduced_dipole: float     # C m
    decay_rate: float         # rad/s

    J = Fraction(1, 2)        # the S1/2 ground state of both lines

    def __post_init__(self):
        if self.line not in ("D1", "D2"):
            raise DomainError(f"unknown line {self.line!r}")
        for name in ("frequency", "reduced_dipole", "decay_rate"):
            if getattr(self, name) <= 0:
                raise DomainError(f"transition {name} must be positive")
        if abs(self.F - self.F_prime) > 1:
            raise DomainError("electric dipole requires |F - F'| <= 1")

    @property
    def J_prime(self) -> Fraction:
        return Fraction(1 if self.line == "D1" else 3, 2)

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * self.frequency


def _check_levels(tr: Transition, i_nuc) -> None:
    """DomainError unless F and F' lie within |I - J|..I + J for nuclear spin I."""
    for name, f, j in (("F", tr.F, tr.J), ("F'", tr.F_prime, tr.J_prime)):
        if not abs(i_nuc - j) <= f <= i_nuc + j:
            raise DomainError(f"{tr.line} {tr.F}->{tr.F_prime}: {name} outside "
                              f"|I - J|..I + J = {abs(i_nuc - j)}..{i_nuc + j}")


@dataclass(frozen=True)
class AtomSpecies:
    """An alkali species; construction refuses unphysical values (DomainError)."""

    name: str
    mass: float               # kg
    nuclear_spin: Fraction    # I, a half-integer
    ground_F: int
    ground_gF: float
    transitions: tuple

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < abs(self.ground_gF) < math.inf:
            raise DomainError(f"ground_gF must be non-zero and finite, got {self.ground_gF}")
        if not (self.nuclear_spin >= 0 and abs(self.ground_F - self.nuclear_spin) == 0.5):
            raise DomainError(f"need I >= 0 and ground_F = I +- 1/2, got I = {self.nuclear_spin}, "
                              f"ground_F = {self.ground_F}")
        for tr in self.transitions:
            _check_levels(tr, self.nuclear_spin)
        self.reference_transition()

    def reference_transition(self) -> Transition:
        """The D2 F -> F'=F+1 line that detunings are quoted against."""
        for tr in self.transitions:
            if tr.line == "D2" and tr.F == self.ground_F and tr.F_prime == self.ground_F + 1:
                return tr
        raise DomainError(
            f"species {self.name!r} lacks the D2 F={self.ground_F}->F'={self.ground_F + 1} "
            "reference transition")


def cesium() -> AtomSpecies:
    """Cesium-133 with the five D1/D2 hyperfine components from F = 3."""
    g_d1 = 2.0 * math.pi * 4.5612e6   # rad/s
    g_d2 = 2.0 * math.pi * 5.2227e6   # rad/s
    d_d1 = 2.6980e-29                 # C m
    d_d2 = 3.7971e-29                 # C m
    transitions = (
        Transition("D1", 3, 3, 335.12056284e12, d_d1, g_d1),
        Transition("D1", 3, 4, 335.12173052e12, d_d1, g_d1),
        Transition("D2", 3, 2, 351.73054972e12, d_d2, g_d2),
        Transition("D2", 3, 3, 351.73070092e12, d_d2, g_d2),
        Transition("D2", 3, 4, 351.73090217e12, d_d2, g_d2),
    )
    return AtomSpecies(
        name="cesium-133",
        mass=CS_MASS,
        nuclear_spin=Fraction(7, 2),
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
        label, v = state.crossing_partner
        partner = next((other for other in registry if other.label == label), None)
        if partner is None:
            raise ConfigError(f"crossing partner {label!r} of state {state.label!r} "
                              "not found in the registry")
        e_other = bare_energy(partner, b)
        mean = 0.5 * (own + e_other)
        gap = 0.5 * np.asarray(_HYPOT(own - e_other, v), dtype=float)
        lower, upper = mean - gap, mean + gap
        # where the bare lines tie, the branch this state joins just above the center
        above = (state.mu_rel, state.label) > (partner.mu_rel, partner.label)
        own = np.where((own > e_other) | ((own == e_other) & above), upper, lower)
    return (float(own), float(lower), float(upper)) if b.ndim == 0 else (own, lower, upper)


def molecular_energy(state: MolecularState, B, registry=()):
    """State energy at field B in Hz relative to the scattering threshold.

    B may be a scalar (float out) or an array (array out).  With a crossing
    partner, returns the avoided-crossing branch adiabatically connected to
    this state's own linear model away from the crossing.  Where the bare
    lines tie, each partner takes the branch it joins just above the center:
    the partner with the larger mu_rel (then the larger label) the upper one.
    """
    return _branches(state, B, registry)[0]


def crossing_branches(state: MolecularState, B, registry) -> tuple:
    """(lower, upper) avoided-crossing branch energies in Hz at field(s) B."""
    if state.crossing_partner is None:
        raise DomainError(f"state {state.label!r} has no crossing partner")
    return _branches(state, B, registry)[1:]


# ---------------------------------------------------------------------------
# File I/O: species and molecular-state registry files
# ---------------------------------------------------------------------------

# [species] keys: (AtomSpecies field, key, parser)
_SPECIES_KEYS = (("name", "name", str), ("mass", "mass_kg", finite),
                 ("nuclear_spin", "nuclear_spin", half_integer),
                 ("ground_F", "ground_F", int), ("ground_gF", "ground_gF", finite))


def load_species(path) -> AtomSpecies:
    """Load a species file on top of the embedded cesium defaults.

    The one [species] section's keys override scalar fields; each [transitions]
    row (line F F' frequency_Hz reduced_dipole_Cm decay_rad_s, raw SI values for
    bit-exact save/load round trips) replaces the entry with its (line, F, F')
    or adds one.  A second [species] section or (line, F, F') row, or a value
    that Transition or AtomSpecies refuses, is a ConfigError at its line.
    """
    species = cesium()
    sections = load_keyvalue(path, ("species", "transitions"))
    head, *extra = sections["species"] or [Section("species", None)]
    if extra:
        raise ConfigError("a species file holds one [species] section", path, extra[0].line)
    fields = {name: head.get(key, parse, getattr(species, name))
              for name, key, parse in _SPECIES_KEYS}
    head.done()
    in_file = {}
    for sec in sections["transitions"]:
        for lineno, (line_name, f_lo, f_hi, freq, dip, gam) in sec.take_rows(
                (str, int, int, finite, finite, finite),
                "transition row (line F F' freq_Hz dipole_Cm decay_rad_s)"):
            key = (line_name, f_lo, f_hi)
            if key in in_file:
                raise ConfigError(f"repeated transition {line_name} {f_lo} {f_hi}", path, lineno)
            try:
                in_file[key] = Transition(line_name, f_lo, f_hi, freq, dip, gam)
                _check_levels(in_file[key], fields["nuclear_spin"])
            except DomainError as exc:
                raise ConfigError(str(exc), path, lineno) from None
        sec.done()
    transitions = {(t.line, t.F, t.F_prime): t for t in species.transitions} | in_file
    ordered = tuple(sorted(transitions.values(), key=lambda t: (t.line, t.F, t.F_prime)))
    try:
        return replace(species, **fields, transitions=ordered)
    except DomainError as exc:
        raise ConfigError(str(exc), path, head.line) from None


def save_species(species: AtomSpecies, path) -> None:
    """Write species in the form load_species reads, each float as its repr."""
    lines = ["# species file: SI units except where the key name states otherwise",
             "# transitions columns: line F F' frequency_Hz reduced_dipole_Cm decay_rad_s",
             "", "[species]"]
    for name, key, _ in _SPECIES_KEYS:
        value = getattr(species, name)
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    lines += ["", "[transitions]"]
    for t in sorted(species.transitions, key=lambda t: (t.line, t.F, t.F_prime)):
        lines.append(f"{t.line} {t.F} {t.F_prime} {t.frequency!r} {t.reduced_dipole!r} "
                     f"{t.decay_rate!r}")
    write_text("\n".join(lines) + "\n", path)


def load_state_registry(path) -> tuple:
    """Registry file: one [state <label>] section per molecular state."""
    states = []
    sections = load_keyvalue(path, ("state <label>",))["state"]
    for sec in sections:
        if any(st.label == sec.label for st in states):
            raise ConfigError(f"duplicate state label {sec.label!r}", path, sec.line)
        e0 = sec.get("E0_Hz", finite, REQUIRED)
        mu = sec.get("mu_rel_Hz_per_G", finite, REQUIRED)
        b_ref = sec.get("B_ref_G", finite, REQUIRED)
        window = sec.get("window_G", lambda text: parse_fields(
            text.split(), (finite, finite), "window (<low> <high>)"), DEFAULT_FIELD_WINDOW_G)
        partner = sec.get("crossing_partner", str, None)
        if partner is not None:
            partner = (partner, sec.get("V_ij_Hz", finite, REQUIRED))
        sec.done()
        try:
            states.append(MolecularState(sec.label, e0, mu, b_ref, window, partner))
        except DomainError as exc:
            raise ConfigError(str(exc), path, sec.line) from None
    named = {st.label: st.crossing_partner for st in states}
    for st, sec in zip(states, sections):
        if st.crossing_partner is not None:
            label, v = st.crossing_partner
            if label == st.label or named.get(label) != (st.label, v):
                raise ConfigError(f"crossing partner {label!r} of state {st.label!r} must be "
                                  f"another state naming it back with V_ij_Hz = {v!r}",
                                  path, sec.line)
    return tuple(states)


def save_state_registry(states, path) -> None:
    """Write states in the form load_state_registry reads, each float as its repr."""
    lines = ["# molecular-state registry: energies in Hz relative to threshold "
             "(negative = bound), fields in Gauss"]
    for st in states:
        lines += ["", f"[state {st.label}]", f"E0_Hz = {st.E0!r}",
                  f"mu_rel_Hz_per_G = {st.mu_rel!r}", f"B_ref_G = {st.B_ref!r}",
                  f"window_G = {st.window[0]!r} {st.window[1]!r}"]
        if st.crossing_partner is not None:
            lines += [f"crossing_partner = {st.crossing_partner[0]}",
                      f"V_ij_Hz = {st.crossing_partner[1]!r}"]
    write_text("\n".join(lines) + "\n", path)
