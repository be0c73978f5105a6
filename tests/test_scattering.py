import math

import numpy as np
import pytest

from modfesh.atomdata import A_BOHR, cesium_states, crossing_branches, molecular_energy
from modfesh.errors import DomainError, PoleError
from modfesh.scattering import (K3_COEFF, DressedChannelModel, ResonanceModel,
                                dressed_alpha_beta, inelastic_channel_scaling, loss_rate_proxy,
                                pole_frequency, scattering_length,
                                width_from_coupling)
from modfesh.specfun import bessel_j
from modfesh.spectra import fano_profile


class TestScatteringLength:
    def model(self, a_bk=200.0, delta_m=2 * math.pi * 1e3,
              omega0=2 * math.pi * 228.7e3, m=-1):
        return ResonanceModel(a_bk=a_bk, delta_m=delta_m, omega0=omega0, m=m)

    def test_far_detuned_background(self):
        m = self.model()
        omega = pole_frequency(m) + 1e6 * m.delta_m
        assert scattering_length(m, omega) == pytest.approx(200.0, rel=1e-5)

    def test_zero_crossing_exact(self):
        # binary-friendly values make -m w - omega0 == delta_m exactly
        m = ResonanceModel(a_bk=128.0, delta_m=0.25e6, omega0=1.0e6, m=-1)
        assert scattering_length(m, 1.25e6) == 0.0

    def test_decoupled_limit(self):
        m = self.model(delta_m=0.0)
        for omega in np.linspace(0.5, 2.0, 7) * pole_frequency(m):
            if omega == pole_frequency(m):
                continue
            assert scattering_length(m, omega) == 200.0

    def test_pole_raises_with_location(self):
        m = ResonanceModel(a_bk=200.0, delta_m=1e3, omega0=1.0e6, m=-1)
        with pytest.raises(PoleError) as err:
            scattering_length(m, 1.0e6)
        assert err.value.location == 1.0e6

    def test_pole_zero_ordering(self):
        # a_s vanishes at -m omega = omega0 + delta_m: the zero sits delta_m
        # above the pole in the -m omega variable
        for m_order in (-2, -1, 1, 2):
            m = ResonanceModel(a_bk=-50.0, delta_m=7.5e3, omega0=3.0e5, m=m_order)
            zero = (m.omega0 + m.delta_m) / (-m_order)
            assert scattering_length(m, zero) == pytest.approx(0.0, abs=1e-9)
            assert (-m_order * zero) - (-m_order * pole_frequency(m)) == pytest.approx(7.5e3)

    def test_vectorized(self):
        m = self.model()
        grid = np.linspace(1.1, 2.0, 50) * pole_frequency(m)
        vals = scattering_length(m, grid)
        assert vals.shape == grid.shape
        assert np.all(np.isfinite(vals))

    def test_validation(self):
        with pytest.raises(DomainError):
            ResonanceModel(a_bk=0.0, delta_m=1.0, omega0=1.0, m=1)
        with pytest.raises(DomainError):
            ResonanceModel(a_bk=100.0, delta_m=1.0, omega0=1.0, m=0)


class TestWidthFromCoupling:
    def test_no_drive_no_width(self):
        assert width_from_coupling(1e-60, A=0.0, omega=1e6, m=1, a_bk=200.0) == 0.0

    def test_quadratic_smalldrive_scaling(self):
        # Delta_{+-1} ~ A^2: log-log slope 2 within 0.02 over two decades
        omega = 2 * math.pi * 150e3
        a_grid = np.logspace(-3, -1, 25) * omega
        widths = [width_from_coupling(1e-60, A=a, omega=omega, m=1, a_bk=200.0)
                  for a in a_grid]
        slope = np.polyfit(np.log(a_grid), np.log(widths), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)
        widths_m1 = [width_from_coupling(1e-60, A=a, omega=omega, m=-1, a_bk=200.0)
                     for a in a_grid]
        slope_m1 = np.polyfit(np.log(a_grid), np.log(widths_m1), 1)[0]
        assert slope_m1 == pytest.approx(2.0, abs=0.02)

    def test_order_ratio_is_bessel_ratio(self):
        omega = 1e6
        a = 0.7e6
        w1 = width_from_coupling(3e-60, a, omega, 1, 150.0)
        w2 = width_from_coupling(3e-60, a, omega, 2, 150.0)
        expected = (bessel_j(2, a / omega) / bessel_j(1, a / omega)) ** 2
        assert w2 / w1 == pytest.approx(expected, rel=1e-12)

    def test_zero_background_rejected(self):
        with pytest.raises(DomainError):
            width_from_coupling(1e-60, 1.0, 1e6, 1, 0.0)

    def test_tiny_drive_keeps_the_power_law(self):
        # J_1(1e-60) once came out nan: one Bessel recurrence step overflowed
        w_small = width_from_coupling(1e-60, A=1e-60, omega=1.0, m=1, a_bk=200.0)
        w_ref = width_from_coupling(1e-60, A=1e-6, omega=1.0, m=1, a_bk=200.0)
        assert w_small / w_ref == pytest.approx(1e-108, rel=1e-12)


class TestDressedAlphaBeta:
    def model(self, a_bk=200.0, delta_m=2 * math.pi * 500.0,
              gamma_in=2 * math.pi * 50.0, omega_b=2 * math.pi * 228.7e3,
              delta_shift=0.0, m=1):
        return DressedChannelModel(a_bk=a_bk, delta_m=delta_m, gamma_in=gamma_in,
                                   omega_b=omega_b, delta_shift=delta_shift, m=m)

    def omega_at(self, model, detuning):
        # Delta = omega_b - m w - delta_shift  ->  w for requested Delta
        return (model.omega_b - model.delta_shift - detuning) / model.m

    def test_extreme_values(self):
        m = self.model()
        for sign in (+1, -1):
            delta = sign * m.gamma_in / 2.0
            alpha, beta = dressed_alpha_beta(m, self.omega_at(m, delta))
            assert alpha - m.a_bk == pytest.approx(sign * m.a_bk * m.delta_m / m.gamma_in,
                                                   rel=1e-12)
            assert beta == pytest.approx(m.a_bk * m.delta_m / m.gamma_in, rel=1e-12)

    def test_far_detuned_asymptotics(self):
        m = self.model()
        delta = 100.0 * m.gamma_in
        alpha, beta = dressed_alpha_beta(m, self.omega_at(m, delta))
        assert alpha - m.a_bk == pytest.approx(m.a_bk * m.delta_m / delta, rel=0.05)
        assert beta == pytest.approx(0.5 * m.a_bk * m.delta_m * m.gamma_in / delta ** 2,
                                     rel=0.05)

    def test_two_channel_reduction(self):
        # gamma_in -> 0 reproduces the plain resonance form on a dense grid
        m = self.model(gamma_in=0.0, delta_shift=2 * math.pi * 12.0)
        eq = ResonanceModel(m.a_bk, m.delta_m, m.omega_b - m.delta_shift, -m.m)
        omega = np.linspace(0.2, 3.0, 1000) * (m.omega_b / abs(m.m))
        omega = omega[np.abs(m.omega_b - m.m * omega - m.delta_shift) > 1e3]
        alpha, beta = dressed_alpha_beta(m, omega)
        ref = scattering_length(eq, omega)
        assert np.max(np.abs(alpha - ref) / np.abs(ref)) < 1e-8
        assert np.all(beta == 0.0)

    def test_beta_positive(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = self.model(delta_m=float(rng.uniform(0, 1e4)),
                           gamma_in=float(rng.uniform(0, 1e4)),
                           m=int(rng.choice([-2, -1, 1, 2])))
            w = float(rng.uniform(0.1, 3.0)) * abs(m.omega_b / m.m)
            _, beta = dressed_alpha_beta(m, w)
            assert beta >= 0.0

    def test_alpha_deviation_odd_about_resonance(self):
        m = self.model()
        for delta in (0.3, 1.0, 7.7):
            d = delta * m.gamma_in
            a_plus, _ = dressed_alpha_beta(m, self.omega_at(m, +d))
            a_minus, _ = dressed_alpha_beta(m, self.omega_at(m, -d))
            assert a_plus - m.a_bk == pytest.approx(-(a_minus - m.a_bk), rel=1e-10)

    def test_pole_error_when_undamped(self):
        m = self.model(gamma_in=0.0)
        with pytest.raises(PoleError):
            dressed_alpha_beta(m, self.omega_at(m, 0.0))

    def test_vanishing_k_bits(self):
        """At k = 0 the one expression is the vanishing-k closed form bit for
        bit, and a zero beta is +0.0 whatever the sign of a_bk."""
        def closed_form(model, omega):
            delta = model.omega_b - model.m * omega - model.delta_shift
            denom = delta ** 2 + 0.25 * model.gamma_in ** 2
            alpha = model.a_bk * (1.0 + model.delta_m * delta / denom)
            if model.delta_m * model.gamma_in == 0.0:
                return alpha, np.zeros_like(delta)
            return alpha, model.a_bk * model.delta_m * (0.5 * model.gamma_in) / denom

        rng = np.random.default_rng(36)
        negative_a_zero_beta = 0
        for i in range(2000):
            # i % 4 runs through (delta_m, gamma_in) zero/non-zero pairs
            m = self.model(a_bk=float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3000.0)),
                           delta_m=float(i % 2 and rng.uniform(0.0, 2 * math.pi * 5e3)),
                           gamma_in=float(i // 2 % 2 and rng.uniform(0.0, 2 * math.pi * 5e3)),
                           omega_b=2 * math.pi * float(rng.uniform(1e4, 5e5)),
                           delta_shift=2 * math.pi * float(rng.uniform(-1e3, 1e3)),
                           m=int(rng.choice([-2, -1, 1, 2])))
            omega = self.omega_at(m, 2 * math.pi * rng.normal(0.0, 3e3, 50))
            alpha, beta = dressed_alpha_beta(m, omega)
            ref_alpha, ref_beta = closed_form(m, omega)
            assert alpha.tobytes() == ref_alpha.tobytes()
            assert beta.tobytes() == ref_beta.tobytes()
            # a scalar gives the bits of the same value inside the array
            assert (np.array(dressed_alpha_beta(m, float(omega[0]))).tobytes()
                    == np.array([alpha[0], beta[0]]).tobytes())
            negative_a_zero_beta += m.a_bk < 0 and m.delta_m * m.gamma_in == 0.0
        assert negative_a_zero_beta > 500

    def test_finite_k_continuity(self):
        m = self.model()
        w = self.omega_at(m, 3.0 * m.gamma_in)
        a0, b0 = dressed_alpha_beta(m, w, k=0.0)
        ak, bk = dressed_alpha_beta(m, w, k=1.0)
        assert ak == pytest.approx(a0, rel=1e-6)
        assert bk == pytest.approx(b0, rel=1e-6)

    def test_finite_k_conventions(self):
        """The one finite-k convention, the collision energy hbar k^2 / (2 mu)."""
        m = self.model()
        w = self.omega_at(m, 5.0 * m.gamma_in)
        a_en, b_en = dressed_alpha_beta(m, w, k=1e5)
        assert math.isfinite(a_en) and math.isfinite(b_en)


class TestInelasticScaling:
    def test_emission_side_quartic(self):
        grid = np.logspace(-3, -1, 30) * 1e6
        assert inelastic_channel_scaling(grid, m=1, omega_mod=1e6) == pytest.approx(4.0, abs=0.05)

    def test_absorption_side_flat(self):
        grid = np.logspace(-3, -1, 30) * 1e6
        assert inelastic_channel_scaling(grid, m=-1, omega_mod=1e6) == pytest.approx(0.0, abs=0.05)

    def test_second_order(self):
        grid = np.logspace(-3, -1, 30) * 1e6
        assert inelastic_channel_scaling(grid, m=2, omega_mod=1e6) == pytest.approx(6.0, abs=0.1)

    def test_narrow_grid_rejected(self):
        with pytest.raises(DomainError):
            inelastic_channel_scaling(np.linspace(1e4, 2e4, 10), m=1, omega_mod=1e6)

    def test_large_drive_rejected(self):
        with pytest.raises(DomainError):
            inelastic_channel_scaling(np.logspace(-2, 0, 10) * 1e6, m=1, omega_mod=1e6)


class TestLossRateProxy:
    def test_no_channels_no_loss(self):
        assert loss_rate_proxy(0.0, 1e13) == 0.0

    def test_density_power_laws(self):
        r3 = loss_rate_proxy(500.0, 1e13)
        assert loss_rate_proxy(500.0, 2e13) == pytest.approx(4 * r3, rel=1e-12)

    def test_unitarity_cap(self):
        huge = 1e9                      # far beyond 1/k in Bohr radii
        capped = loss_rate_proxy(huge, 1e13)
        assert capped < K3_COEFF * huge ** 4 * 1e26
        a_max = 1.0 / (7.0e6 * A_BOHR)
        assert capped == pytest.approx(K3_COEFF * a_max ** 4 * 1e26, rel=1e-12)

    def test_cap_symmetric_in_sign(self):
        assert loss_rate_proxy(-1e9, 1e13) == loss_rate_proxy(1e9, 1e13)


RES = ResonanceModel(200.0, 2 * math.pi * 3e3, 2 * math.pi * 228.7e3, -1)
DRESSED = DressedChannelModel(200.0, 2 * math.pi * 500.0, 2 * math.pi * 50.0,
                              2 * math.pi * 228.7e3, 0.0, 1)
STATES = cesium_states()
SIX_S = next(s for s in STATES if s.label == "6s")
# function of one float or an array -> (numpy draw of its inputs): a numpy
# scalar's ** goes through libm pow and an array's through numpy's own loop,
# so a square or fourth power written with ** made some of these differ
SCALAR_ARRAY_CASES = {
    "scattering_length": (lambda x: scattering_length(RES, x),
                          lambda rng, n: 2 * math.pi * rng.uniform(200e3, 260e3, n)),
    "dressed_alpha_beta-k0": (lambda x: np.array(dressed_alpha_beta(DRESSED, x)),
                              lambda rng, n: 2 * math.pi * rng.normal(228.7e3, 2e3, n)),
    "dressed_alpha_beta-k3e6": (lambda x: np.array(dressed_alpha_beta(DRESSED, x, k=3e6)),
                                lambda rng, n: 2 * math.pi * rng.normal(228.7e3, 2e3, n)),
    "loss_rate_proxy": (lambda x: loss_rate_proxy(x, 3e12),
                        lambda rng, n: rng.uniform(-3000.0, 3000.0, n)),
    "fano_profile": (lambda x: fano_profile(x, 228.7e3, 3e3, -3.0, 1.0, 0.0),
                     lambda rng, n: rng.uniform(200e3, 260e3, n)),
    "molecular_energy": (lambda x: molecular_energy(SIX_S, x, STATES),
                         lambda rng, n: rng.uniform(18.0, 19.4, n)),
    "crossing_branches": (lambda x: np.array(crossing_branches(SIX_S, x, STATES)),
                          lambda rng, n: rng.uniform(18.0, 19.4, n)),
}


@pytest.mark.parametrize("name", SCALAR_ARRAY_CASES)
def test_scalar_rounds_as_array(name):
    """f(float(x)) has the bits of f(array)[j] for 5,000 seeded draws."""
    f, draw = SCALAR_ARRAY_CASES[name]
    x = draw(np.random.default_rng(2), 5000)
    array = np.asarray(f(x))
    differ = [j for j, v in enumerate(x.tolist())
              if np.asarray(f(v)).tobytes() != array[..., j].tobytes()]
    assert differ == []
