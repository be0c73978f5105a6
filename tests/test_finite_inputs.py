"""The library's input contract: a NaN input, an infinite one where the value
must be finite, or one outside the range a function takes, is a DomainError
(a PoleError on a vanishing denominator) at the function that takes it, not a
NaN or a traceback further down."""

import math
from fractions import Fraction

import numpy as np
import pytest

from modfesh.atomdata import (A_BOHR, CS_MASS, HBAR, AtomSpecies, Transition, cesium_states,
                              crossing_branches)
from modfesh.errors import DomainError, PoleError
from modfesh.fitting import weighted_linear_fit
from modfesh.floquet import (DrivenTwoLevel, avoided_crossing_gap, floquet_spectrum,
                             resonance_frequencies)
from modfesh.scattering import (DressedChannelModel, ResonanceModel, dressed_alpha_beta,
                                inelastic_channel_scaling, loss_rate_proxy, width_from_coupling)
from modfesh.specfun import bessel_j, half_integer
from modfesh.spectra import (AXIS_FREQ, Spectrum, find_peaks, fit_fano, fit_landau_zener,
                             synthesize_field_scan, synthesize_spectrum)

NAN = math.nan
X, Y = [0.4, 0.8, 1.2], [227.9e3, 227.1e3, 226.3e3]
DRESSED_FIELDS = dict(a_bk=200.0, delta_m=3e3, gamma_in=300.0, omega_b=1.4e6, delta_shift=0.0,
                      m=1)


@pytest.mark.parametrize("call", [
    lambda: ResonanceModel(a_bk=NAN, delta_m=1e4, omega0=1e6, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=NAN, omega0=1e6, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=1e4, omega0=math.inf, m=-1),
    lambda: ResonanceModel(a_bk=200.0, delta_m=1e4, omega0=np.array([1e6, NAN]), m=-1),
    lambda: weighted_linear_fit([0.4, NAN, 1.2], Y),
    lambda: weighted_linear_fit(X, [227.9e3, NAN, 226.3e3]),
    lambda: weighted_linear_fit(X, Y, [50.0, NAN, 60.0]),
    lambda: resonance_frequencies(NAN, 3),
    lambda: loss_rate_proxy(300.0, density=NAN),
    *[lambda field=field, value=value: DressedChannelModel(**{**DRESSED_FIELDS, field: value})
      for field, value in (("a_bk", NAN), ("delta_m", NAN), ("gamma_in", NAN),
                           ("omega_b", math.inf), ("delta_shift", -math.inf))],
], ids=["model-a_bk", "model-delta_m", "model-omega0", "model-omega0-array",
        "linear-x", "linear-y", "linear-sigma", "resonance-omega_b", "loss-density",
        "dressed-a_bk", "dressed-delta_m", "dressed-gamma_in", "dressed-omega_b",
        "dressed-delta_shift"])
def test_non_finite_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_infinite_alpha_is_clipped():
    """An exact pole gives alpha = +-inf, which the unitarity cap clips."""
    rate = loss_rate_proxy(np.array([math.inf, -math.inf, 300.0]), density=1e13)
    assert np.isfinite(rate).all() and rate[0] == rate[1] > rate[2]


def _dressed_on_both_poles():
    """dressed_alpha_beta at k > 0 where bracket = kappa + Delta = 0 and, with
    a_bk < 0, gamma_el = -gamma: both finite-k denominators vanish."""
    k, a_bk, delta_m = 1e6, -200.0, 1e3
    kappa = HBAR * k ** 2 / CS_MASS
    gamma = -2.0 * k * (a_bk * A_BOHR) * delta_m
    model = DressedChannelModel(a_bk=a_bk, delta_m=delta_m, gamma_in=gamma, omega_b=0.0,
                                delta_shift=0.0, m=1)
    return dressed_alpha_beta(model, kappa, k=k)


SPECTRUM = Spectrum(AXIS_FREQ, np.linspace(1e5, 2e5, 9), np.full(9, 0.9), np.full(9, 0.01))
A_GRID = np.geomspace(1e-3, 1e-1, 8)
B_GRID = np.linspace(19.2, 20.5, 9)
LINE = ResonanceModel(a_bk=200.0, delta_m=2e4, omega0=1.4e6, m=-1)


def _field_scan(b_grid=B_GRID, **options):
    """A 4g(4) field-axis scan at 150 kHz with one first-order width."""
    registry = cesium_states()
    return synthesize_field_scan(registry[0], registry, 150e3, b_grid, {1: 3e3}, **options)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Transition("D3", 3, 4, 351.7e12, 3.8e-29, 3.3e7), DomainError,
     "unknown line 'D3'"),
    (lambda: AtomSpecies("empty", CS_MASS, Fraction(7, 2), 3, -0.25, ()), DomainError,
     "species 'empty' lacks the D2 F=3->F'=4 reference transition"),
    (lambda: crossing_branches(cesium_states()[0], 19.41, cesium_states()), DomainError,
     r"state '4g\(4\)' has no crossing partner"),
    (lambda: weighted_linear_fit([0.4], [227.9e3]), DomainError,
     r"need at least two \(x, y\) points"),
    (lambda: floquet_spectrum(DrivenTwoLevel(0.0, -1.0, 0.02, 1.0, 0.0)), DomainError,
     "omega_mod must be positive"),
    (lambda: avoided_crossing_gap(DrivenTwoLevel(0.0, -1.0, 0.02, 1.0, 1.0), 0, (0.98, 1.02)),
     DomainError, "m must be non-zero"),
    (lambda: width_from_coupling(1e-60, 1.0, 0.0, -1, 200.0), DomainError,
     "modulation frequency must be positive"),
    (lambda: width_from_coupling(-1e-60, 1.0, 1.0, -1, 200.0), DomainError,
     "squared matrix element must be non-negative"),
    (_dressed_on_both_poles, PoleError, "dressed scattering length denominator vanished"),
    (lambda: inelastic_channel_scaling(A_GRID, 0, 1.0), DomainError, "m must be non-zero"),
    (lambda: inelastic_channel_scaling(A_GRID, 1, 0.0), DomainError,
     "omega_mod must be positive"),
    (lambda: inelastic_channel_scaling(A_GRID[:3], 1, 1.0), DomainError,
     "need at least 4 grid points"),
    (lambda: inelastic_channel_scaling(np.r_[0.0, A_GRID], 1, 1.0), DomainError,
     "A grid must be positive"),
    (lambda: half_integer(1j), DomainError, r"cannot interpret 1j as a half-integer"),
    (lambda: bessel_j(0.5, 1.0), DomainError, "Bessel order must be an integer, got 0.5"),
    (lambda: Spectrum(AXIS_FREQ, [1e5, 2e5], [0.9], [0.01, 0.01]), DomainError,
     "x, y, sigma must have equal length"),
    (lambda: synthesize_spectrum([], SPECTRUM.x), DomainError,
     "need at least one resonance model"),
    (lambda: _field_scan(hold_time=0.0), DomainError, "hold time must be positive"),
    (lambda: _field_scan(hold_time=-5e-3), DomainError, "hold time must be positive"),
    (lambda: synthesize_spectrum([LINE], SPECTRUM.x[::-1]), DomainError,
     "scan grid must have at least 2 increasing points"),
    (lambda: _field_scan(B_GRID[::-1]), DomainError,
     "scan grid must have at least 2 increasing points"),
    (lambda: find_peaks(Spectrum(AXIS_FREQ, [], [], []), 0.05, 1e3), DomainError,
     "empty spectrum"),
    (lambda: fit_fano(SPECTRUM, window=(2e5, 1e5)), DomainError, "window must satisfy lo < hi"),
    (lambda: fit_landau_zener([(18.6, -1.8e5, 1)] * 4), DomainError,
     "need at least 5 samples"),
], ids=["transition-line", "species-no-transitions", "branches-no-partner",
        "linear-one-point", "spectrum-omega_mod-0", "gap-m-0", "width-omega-0",
        "width-matrix-element", "dressed-finite-k-pole", "scaling-m-0", "scaling-omega_mod-0",
        "scaling-three-points", "scaling-A-0", "halfint-complex", "bessel-order-0.5",
        "spectrum-lengths", "synthesize-no-resonance", "field-scan-hold-0",
        "field-scan-hold-negative", "freq-grid-decreasing", "field-grid-decreasing",
        "peaks-empty", "fano-window", "lz-four-samples"])
def test_out_of_range_input_is_refused(call, error, message):
    """Each guard on outside input refuses the input with its own message."""
    with pytest.raises(error, match=message):
        call()
