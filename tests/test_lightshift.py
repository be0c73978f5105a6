import math

import numpy as np
import pytest

from modfesh.atomdata import cesium
from modfesh.errors import DomainError
from modfesh.lightshift import (LightField, Polarization, fictitious_field,
                                heating_rate, level_modulation_amplitude,
                                scattering_rate, vector_polarizability)

# frozen reference values, computed independently with sympy Wigner symbols
# and cross-checked against second-order perturbation theory over the full
# |F, m> manifold (and, for the rate, against the Kramers-Heisenberg form):
#   - fictitious field, sigma-, 0.87 W/cm^2, 23 GHz red of D2 F=3->F'=4
#   - scattering rate and recoil heating, sigma-, |3,3>, 24 GHz red, 1 W/cm^2
B_FICT_REF_MG = 28.613289       # mG  (the paper's prose quotes 35.6 mG; see notes)
ALPHA_V_REF = -1.21444201e-35   # SI (C^2 m^2 / J)
R_S_REF = 165.861               # Hz per W/cm^2
HEAT_REF = 10.9643              # nK/ms per W/cm^2


@pytest.fixture(scope="module")
def cs():
    return cesium()


class TestPolarization:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            Polarization(1.0, 1.0, 0.0)

    def test_circularity(self):
        assert Polarization.sigma_minus().circularity == -1.0
        assert Polarization.sigma_plus().circularity == 1.0
        assert Polarization.linear().circularity == pytest.approx(0.0, abs=1e-15)
        assert Polarization.pi().circularity == 0.0

    def test_linear_splits_evenly(self):
        for angle in (0.0, 0.4, 1.1):
            p = Polarization.linear(angle)
            assert p.component_weight(+1) == pytest.approx(0.5)
            assert p.component_weight(-1) == pytest.approx(0.5)

    def test_swap(self):
        p = Polarization.sigma_minus()
        assert p.swapped().circularity == -p.circularity


class TestVectorPolarizability:
    def test_reference_value(self, cs):
        omega = 2 * math.pi * (351.73090217e12 - 23e9)
        assert vector_polarizability(cs, 3, omega) == pytest.approx(ALPHA_V_REF, rel=1e-6)

    def test_far_detuned_vanishes_monotonically(self, cs):
        f_ref = 351.73090217e12
        vals = [abs(vector_polarizability(cs, 3, 2 * math.pi * (f_ref + d)))
                for d in (-0.2e12, -0.5e12, -1.0e12, -2.0e12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_red_blue_sign_flip_near_line(self, cs):
        # equal magnitude red vs blue around the (dominant) D2 group
        f_ref = 351.73090217e12
        red = vector_polarizability(cs, 3, 2 * math.pi * (f_ref - 20e9))
        blue = vector_polarizability(cs, 3, 2 * math.pi * (f_ref + 20e9))
        assert red * blue < 0

    def test_near_resonance_guard(self, cs):
        omega = 2 * math.pi * (351.73090217e12 + 10e6)   # 10 MHz from the line
        with pytest.raises(DomainError):
            vector_polarizability(cs, 3, omega)

    def test_unknown_manifold(self, cs):
        with pytest.raises(DomainError):
            vector_polarizability(cs, 4, 2 * math.pi * 330e12)


class TestFictitiousField:
    def field(self, intensity=0.87, detuning=-23e9, pol=None):
        return LightField(intensity=intensity, detuning=detuning,
                          polarization=pol or Polarization.sigma_minus())

    def test_benchmark_magnitude(self, cs):
        b = fictitious_field(self.field(), cs, 3)
        assert abs(b) * 1e3 == pytest.approx(B_FICT_REF_MG, rel=1e-6)

    def test_linear_polarization_zero(self, cs):
        b = fictitious_field(self.field(pol=Polarization.linear()), cs, 3)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_zero_intensity(self, cs):
        assert fictitious_field(self.field(intensity=0.0), cs, 3) == 0.0

    def test_odd_under_polarization_swap(self, cs):
        b_minus = fictitious_field(self.field(), cs, 3)
        b_plus = fictitious_field(self.field(pol=Polarization.sigma_plus()), cs, 3)
        assert b_plus == pytest.approx(-b_minus, rel=1e-14)

    def test_linear_in_intensity(self, cs):
        vals = [fictitious_field(self.field(intensity=i), cs, 3) for i in (0.4, 0.8, 1.6)]
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-12)
        assert vals[2] / vals[0] == pytest.approx(4.0, rel=1e-12)

    def test_wrong_manifold(self, cs):
        with pytest.raises(DomainError):
            fictitious_field(self.field(), cs, 4)


class TestScatteringRate:
    def field(self, intensity=1.0, detuning=-24e9, pol=None):
        return LightField(intensity=intensity, detuning=detuning,
                          polarization=pol or Polarization.sigma_minus())

    def test_benchmark(self, cs):
        # published benchmark: 167 Hz/(W/cm^2) within 5 %
        rs = scattering_rate(self.field(), cs, 3, 3)
        assert rs == pytest.approx(R_S_REF, rel=1e-5)
        assert rs == pytest.approx(167.0, rel=0.05)

    def test_zero_intensity(self, cs):
        assert scattering_rate(self.field(intensity=0.0), cs, 3, 3) == 0.0

    def test_inverse_square_detuning(self, cs):
        r1 = scattering_rate(self.field(detuning=-24e9), cs, 3, 3)
        r2 = scattering_rate(self.field(detuning=-48e9), cs, 3, 3)
        # 1/Delta^2 per line; the 0.15-0.35 GHz hyperfine spread of the D2
        # components moves the aggregate ratio ~1.3 % off the ideal 4
        assert r1 / r2 == pytest.approx(4.0, rel=0.02)

    def test_mf_range_check(self, cs):
        with pytest.raises(DomainError):
            scattering_rate(self.field(), cs, 3, 4)

    def test_near_resonance_guard(self, cs):
        with pytest.raises(DomainError):
            scattering_rate(self.field(detuning=-1e6), cs, 3, 3)

    def test_linear_in_intensity(self, cs):
        vals = [scattering_rate(self.field(intensity=i), cs, 3, 3) for i in (0.5, 1.0, 2.0)]
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-12)
        assert vals[2] / vals[0] == pytest.approx(4.0, rel=1e-12)

    def test_red_blue_rates_close_fields_opposite(self, cs):
        # the red/blue symmetry statement holds about the strength-weighted
        # center of the D2 hyperfine components (the reference line sits
        # 0.2-0.35 GHz above the others, which matters at 10 GHz detuning)
        from modfesh.lightshift import _hyperfine_me_sq
        d2 = [t for t in cs.transitions if t.line == "D2"]
        w = [_hyperfine_me_sq(t, cs.nuclear_spin, 3, 3, -1) * t.decay_rate for t in d2]
        centroid = sum(wi * t.frequency for wi, t in zip(w, d2)) / sum(w)
        f_ref = cs.reference_transition().frequency
        for det in (10e9, 20e9, 40e9):
            red = self.field(detuning=centroid - det - f_ref)
            blue = self.field(detuning=centroid + det - f_ref)
            r_red = scattering_rate(red, cs, 3, 3)
            r_blue = scattering_rate(blue, cs, 3, 3)
            assert r_blue == pytest.approx(r_red, rel=0.05)
            b_red = fictitious_field(red, cs, 3)
            b_blue = fictitious_field(blue, cs, 3)
            assert b_red * b_blue < 0
            assert abs(b_blue) == pytest.approx(abs(b_red), rel=0.35)

    def test_field_to_rate_ratio_grows_with_detuning(self, cs):
        ratios = []
        for det in np.linspace(10e9, 40e9, 7):
            f = self.field(detuning=-det)
            ratios.append(abs(fictitious_field(f, cs, 3)) / scattering_rate(f, cs, 3, 3))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestHeatingRate:
    def field(self, intensity=1.0):
        return LightField(intensity=intensity, detuning=-24e9,
                          polarization=Polarization.sigma_minus())

    def test_benchmark(self, cs):
        # published benchmark: 11.0 nK/ms per W/cm^2 within 5 % (the measured
        # 11.7 nK/ms is an experimental anchor, not a test target)
        h = heating_rate(self.field(), cs, 3, 3)
        assert h == pytest.approx(HEAT_REF, rel=1e-5)
        assert h == pytest.approx(11.0, rel=0.05)

    def test_proportional_to_scattering(self, cs):
        assert heating_rate(self.field(intensity=0.0), cs, 3, 3) == 0.0
        h1 = heating_rate(self.field(intensity=1.0), cs, 3, 3)
        h3 = heating_rate(self.field(intensity=3.0), cs, 3, 3)
        assert h3 / h1 == pytest.approx(3.0, rel=1e-12)


class TestLevelModulation:
    def field(self, depth, intensity=1.0):
        return LightField(intensity=intensity, detuning=-23e9,
                          polarization=Polarization.sigma_minus(),
                          modulation_depth=depth)

    def test_zero_depth_pure_dc(self):
        drive = level_modulation_amplitude(self.field(0.0), shift_slope=1e3)
        assert drive.amplitude == 0.0
        assert drive.dc == pytest.approx(2 * math.pi * 1e3)

    def test_raised_cosine_convention(self):
        # I(t) = I_pk [(1-d) + d (1+cos wt)/2]: cosine amplitude d/2, DC 1 - d/2
        drive = level_modulation_amplitude(self.field(0.86), shift_slope=1.0)
        assert drive.amplitude == pytest.approx(2 * math.pi * 0.43)
        assert drive.dc == pytest.approx(2 * math.pi * 0.57)

    def test_sign_carries_through(self):
        drive = level_modulation_amplitude(self.field(0.5), shift_slope=-2e3)
        assert drive.amplitude < 0
        assert drive.dc < 0

    def test_depth_validated(self):
        with pytest.raises(DomainError):
            LightField(1.0, -23e9, Polarization.sigma_minus(), modulation_depth=1.4)

    def test_slope_must_be_finite(self):
        with pytest.raises(DomainError):
            level_modulation_amplitude(self.field(0.5), shift_slope=math.inf)

    def test_linear_in_intensity(self):
        drives = [level_modulation_amplitude(self.field(0.86, intensity=i), 1.5e3)
                  for i in (0.3, 0.6, 1.2)]
        assert drives[1].amplitude / drives[0].amplitude == pytest.approx(2.0, rel=1e-12)
        assert drives[2].dc / drives[0].dc == pytest.approx(4.0, rel=1e-12)


class TestIntensityArray:
    """An intensity array gives bit for bit the per-intensity scalar results."""

    INTENSITY = np.linspace(0.05, 3.0, 37)

    @pytest.mark.parametrize("pol", ["sigma_minus", "sigma_plus", "linear", "pi"])
    @pytest.mark.parametrize("detuning", [-40e9, -23e9, 12e9])
    def test_matches_scalar_calls(self, cs, pol, detuning):
        polarization = getattr(Polarization, pol)()

        def field(intensity):
            return LightField(intensity, detuning, polarization)

        grid = field(self.INTENSITY)
        points = [field(float(i)) for i in self.INTENSITY]
        assert fictitious_field(grid, cs, 3).tolist() == [
            fictitious_field(f, cs, 3) for f in points]
        for m_f in (-3, 0, 3):
            assert scattering_rate(grid, cs, 3, m_f).tolist() == [
                scattering_rate(f, cs, 3, m_f) for f in points]
            assert heating_rate(grid, cs, 3, m_f).tolist() == [
                heating_rate(f, cs, 3, m_f) for f in points]

    def test_list_is_stored_as_array(self):
        field = LightField([0.5, 1.0], -23e9, Polarization.sigma_minus())
        assert isinstance(field.intensity, np.ndarray)

    @pytest.mark.parametrize("intensity", [-0.1, math.nan, math.inf,
                                           [0.5, -0.1], [0.5, math.nan], [0.5, math.inf]])
    def test_rejects_negative_or_non_finite(self, intensity):
        with pytest.raises(DomainError):
            LightField(intensity, -23e9, Polarization.sigma_minus())

    def test_rejects_non_finite_detuning(self):
        with pytest.raises(DomainError):
            LightField(1.0, math.nan, Polarization.sigma_minus())
