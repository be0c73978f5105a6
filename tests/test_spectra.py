import json
import math
import warnings

import numpy as np
import pytest

from modfesh.atomdata import MolecularState, cesium_states, molecular_energy
from modfesh.errors import ConfigError, ConvergenceError, DomainError, PoleError
from modfesh.fitting import COST_RTOL, levenberg_marquardt, weighted_linear_fit
from modfesh import fitting, spectra
from modfesh.scattering import (DressedChannelModel, ResonanceModel, dressed_alpha_beta,
                                equivalent_resonance_model, loss_rate_proxy)
from modfesh.spectra import (AXIS_FREQ, Spectrum, assemble_energy_map,
                             fano_profile, find_peaks, fit_fano, fit_landau_zener,
                             read_spectrum_csv, read_spectrum_json,
                             synthesize_field_scan, synthesize_spectrum, write_spectrum)
from test_acceptance import _lz_synthetic

TWO_PI = 2 * math.pi


def bound_resonance(f_hz, width_hz, order=1, a_bk=200.0):
    """Bound-state resonance model of the given order: loss peak at f_hz/order."""
    return ResonanceModel(a_bk=a_bk, delta_m=TWO_PI * width_hz,
                          omega0=TWO_PI * f_hz, m=-order)


class TestSpectrumType:
    def test_sorted_on_construction(self):
        s = Spectrum(AXIS_FREQ, [3.0, 1.0, 2.0], [0.9, 1.0, 0.95], [0.0, 0.0, 0.0])
        assert list(s.x) == [1.0, 2.0, 3.0]
        assert list(s.y) == [1.0, 0.95, 0.9]

    def test_range_validated(self):
        with pytest.raises(DomainError):
            Spectrum(AXIS_FREQ, [1.0], [1.3], [0.0])
        with pytest.raises(DomainError):
            Spectrum(AXIS_FREQ, [1.0], [-0.1], [0.0])
        with pytest.raises(DomainError):
            Spectrum("bogus_axis", [1.0], [1.0], [0.0])


class TestSynthesize:
    def test_flat_when_no_width(self):
        spec = synthesize_spectrum([bound_resonance(200e3, 0.0)],
                                   np.linspace(150e3, 250e3, 101))
        assert np.all(spec.y == 1.0)

    def test_seeded_determinism(self):
        grid = np.linspace(150e3, 250e3, 201)
        a = synthesize_spectrum([bound_resonance(200e3, 2e3)], grid,
                                noise_sigma=0.01, seed=42)
        b = synthesize_spectrum([bound_resonance(200e3, 2e3)], grid,
                                noise_sigma=0.01, seed=42)
        assert np.array_equal(a.y, b.y)
        c = synthesize_spectrum([bound_resonance(200e3, 2e3)], grid,
                                noise_sigma=0.01, seed=43)
        assert not np.array_equal(a.y, c.y)

    def test_three_order_dips(self):
        # bound state at 228.7 kHz with three drive orders (Fig. 3a analog)
        f1 = 228.7e3
        models = [bound_resonance(f1, 3e3, order=1),
                  bound_resonance(f1, 2e3, order=2),
                  bound_resonance(f1, 1.5e3, order=3)]
        grid = np.linspace(60e3, 250e3, 1500)
        spec = synthesize_spectrum(models, grid)
        peaks = find_peaks(spec, min_depth=0.05, min_separation=8e3)
        assert len(peaks) == 3
        positions = sorted(peaks)
        assert positions[0] == pytest.approx(f1 / 3, rel=0.02)
        assert positions[1] == pytest.approx(f1 / 2, rel=0.02)
        assert positions[2] == pytest.approx(f1, rel=0.02)

    def test_pole_on_grid_stays_finite(self):
        m = bound_resonance(200e3, 1e3)
        grid = np.array([150e3, 200e3, 250e3])   # middle point is the exact pole
        spec = synthesize_spectrum([m], grid)
        assert np.all(np.isfinite(spec.y))
        assert spec.y[1] < 0.9

    def test_dressed_models_accepted(self):
        m = DressedChannelModel(a_bk=200.0, delta_m=TWO_PI * 1e3,
                                gamma_in=TWO_PI * 200.0, omega_b=TWO_PI * 200e3,
                                delta_shift=0.0, m=1)
        spec = synthesize_spectrum([m], np.linspace(150e3, 250e3, 301))
        assert np.all(np.isfinite(spec.y))
        assert spec.y.min() < 0.99

    def test_lossless_dressed_model_is_its_resonance_model(self):
        """gamma_in = 0 with a grid point exactly on the bare pole: the dressed
        formula would raise PoleError there, so the synthesis uses the
        equivalent two-channel model, whose pole the unitarity cap clips."""
        m = DressedChannelModel(a_bk=200.0, delta_m=TWO_PI * 3e3, gamma_in=0.0,
                                omega_b=TWO_PI * 200e3, delta_shift=0.0, m=1)
        grid = np.array([150e3, 200e3, 250e3])
        with pytest.raises(PoleError):
            dressed_alpha_beta(m, TWO_PI * grid)
        spec = synthesize_spectrum([m], grid)
        ref = synthesize_spectrum([equivalent_resonance_model(m)], grid)
        assert spec.y.tobytes() == ref.y.tobytes() and spec.y[1] < 0.9

    def test_field_scan_dips(self):
        # fixed drive frequency, sweep B through the threshold crossing:
        # bound-side and continuum-side first-order resonances appear
        st = MolecularState("t", E0=0.0, mu_rel=530e3, B_ref=19.84)
        spec = synthesize_field_scan(st, (st,), f_mod_hz=150e3,
                                     b_grid=np.linspace(19.3, 20.4, 1101),
                                     widths_hz={1: 3e3})
        peaks = find_peaks(spec, min_depth=0.05, min_separation=0.05)
        assert len(peaks) == 2
        b_lo, b_hi = sorted(peaks)
        assert b_lo == pytest.approx(19.84 - 150e3 / 530e3, abs=5e-3)
        assert b_hi == pytest.approx(19.84 + 150e3 / 530e3, abs=5e-3)


def reference_field_scan(state, registry, f_mod_hz, b_grid, widths_hz, *, a_bk=200.0,
                         dc_shift_hz=0.0, hold_time=5e-3, density=1e13,
                         noise_sigma=0.0, seed=None):
    """Per-point loop: scalar molecular energy, one ResonanceModel per order
    (m = -|m| below threshold) and one loss-rate call per field point."""
    omega = TWO_PI * f_mod_hz
    rate_bg = loss_rate_proxy(a_bk, 0.0, density)
    y = np.empty(len(b_grid))
    for i, b in enumerate(b_grid):
        omega_b = -TWO_PI * (molecular_energy(state, float(b), registry) + dc_shift_hz)
        alpha = np.float64(a_bk)
        for k in sorted(widths_hz):
            model = ResonanceModel(a_bk, TWO_PI * widths_hz[k], omega_b,
                                   -k if omega_b > 0 else k)
            if model.delta_m != 0.0:
                with np.errstate(divide="ignore"):
                    alpha += -a_bk * model.delta_m / (-model.m * omega - model.omega0)
        y[i] = math.exp(-(loss_rate_proxy(alpha, 0.0, density) - rate_bg) * hold_time)
    if noise_sigma > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_sigma, size=y.size)
    return np.clip(y, 0.0, 1.2)


class TestFieldScanVectorized:
    REGISTRY = cesium_states()
    # (state, f_mod, field range): 6s spans its crossing with 6g(6) at 18.66 G
    CASES = [("6s", 95e3, (18.3, 19.0)), ("6g(6)", 95e3, (18.4, 18.9)),
             ("4g(4)", 120e3, (19.0, 20.4)), ("4d", 225e3, (46.5, 48.5))]

    @pytest.mark.parametrize("label,f_mod,b_range", CASES)
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
    def test_matches_per_point_loop(self, label, f_mod, b_range, noise_sigma):
        state = next(s for s in self.REGISTRY if s.label == label)
        b = np.linspace(*b_range, 800)
        widths = {1: 20e3, 2: 15e3}
        spec = synthesize_field_scan(state, self.REGISTRY, f_mod, b, widths,
                                     dc_shift_hz=-1.5e3, density=2e13,
                                     noise_sigma=noise_sigma, seed=7)
        ref = reference_field_scan(state, self.REGISTRY, f_mod, b, widths,
                                   dc_shift_hz=-1.5e3, density=2e13,
                                   noise_sigma=noise_sigma, seed=7)
        assert spec.y.min() < 0.5   # the grid crosses at least one resonance
        assert np.all(np.abs(spec.y - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("widths,a_bk", [({0: 3e3}, 200.0), ({1: 3e3, 0: 2e3}, 200.0),
                                             ({1: 3e3}, 0.0)])
    def test_model_checks_kept(self, widths, a_bk):
        state = self.REGISTRY[0]
        with pytest.raises(DomainError):
            synthesize_field_scan(state, self.REGISTRY, 150e3, np.linspace(19.2, 20.5, 50),
                                  widths, a_bk=a_bk)

    @pytest.mark.parametrize("points", [80, 800])
    def test_work_count(self, monkeypatch, points):
        """One array evaluation per scan, whatever its length."""
        calls = {"loss_rate_proxy": 0, "molecular_energy": 0}

        def counted(name):
            fn = getattr(spectra, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(spectra, name, counted(name))
        state = self.REGISTRY[2]
        synthesize_field_scan(state, self.REGISTRY, 95e3, np.linspace(18.3, 19.0, points),
                              {1: 20e3, 2: 15e3})
        assert calls["loss_rate_proxy"] <= 2
        assert calls["molecular_energy"] == 1


class TestFindPeaks:
    def test_flat_spectrum_empty(self):
        spec = Spectrum(AXIS_FREQ, np.linspace(0, 1, 50), np.ones(50), np.zeros(50))
        assert find_peaks(spec, 0.05, 0.1) == []

    def test_single_dip(self):
        grid = np.linspace(150e3, 250e3, 501)
        spec = synthesize_spectrum([bound_resonance(200e3, 2e3)], grid)
        peaks = find_peaks(spec, 0.05, 5e3)
        assert len(peaks) == 1
        assert abs(peaks[0] - 200e3) <= (grid[1] - grid[0])

    def test_ordered_by_depth(self):
        x = np.linspace(0, 10, 101)
        y = np.ones_like(x)
        y[20] = 0.5
        y[70] = 0.2
        spec = Spectrum(AXIS_FREQ, x, y, np.zeros_like(x))
        peaks = find_peaks(spec, 0.1, 1.0)
        assert peaks[0] == pytest.approx(x[70])
        assert peaks[1] == pytest.approx(x[20])

    def test_separation_filter(self):
        x = np.linspace(0, 10, 101)
        y = np.ones_like(x)
        y[50] = 0.2
        y[52] = 0.4
        spec = Spectrum(AXIS_FREQ, x, y, np.zeros_like(x))
        assert len(find_peaks(spec, 0.1, 1.0)) == 1
        assert len(find_peaks(spec, 0.1, 0.1)) == 2

    @staticmethod
    def loop_candidates(spec, min_depth):
        """(y, x) of each dip by the per-point loop that find_peaks replaced."""
        x, y = spec.x, spec.y
        return [(float(y[i]), float(x[i])) for i in range(1, len(x) - 1)
                if y[i] < y[i - 1] and y[i] <= y[i + 1] and y[i] <= 1.0 - min_depth]

    @classmethod
    def loop_peaks(cls, spec, min_depth, min_separation):
        """find_peaks as the per-point loop computed it: the reference."""
        candidates = cls.loop_candidates(spec, min_depth)
        candidates.sort(key=lambda c: (c[0], c[1]))
        kept = []
        for _, xc in candidates:
            if all(abs(xc - xk) >= min_separation for xk in kept):
                kept.append(xc)
        return kept

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop(self, seed):
        """Seeded noisy spectra with flat-bottomed dips, quantized to steps of
        0.02 so that depths tie: the kept list equals the loop's."""
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 100.0, 500)
        y = 1.0 + rng.normal(0.0, 0.03, x.size)
        for center in rng.uniform(5.0, 95.0, 6):
            y -= rng.uniform(0.1, 0.6) / (1.0 + ((x - center) / rng.uniform(0.3, 2.0)) ** 2)
            bottom = int(np.argmin(np.abs(x - center)))
            y[bottom:bottom + rng.integers(2, 6)] = y[bottom]    # flat bottom
        y = np.clip(np.round(y / 0.02) * 0.02, 0.0, 1.2)
        spec = Spectrum(AXIS_FREQ, x, y, np.zeros_like(x))
        depths = [c[0] for c in self.loop_candidates(spec, 0.0)]
        assert len(set(depths)) < len(depths)                      # tied depths
        assert np.any((y[1:-2] < y[:-3]) & (y[1:-2] == y[2:-1]))   # a flat bottom
        for min_depth, min_separation in ((0.0, 0.0), (0.05, 1.0), (0.1, 5.0), (0.4, 20.0)):
            assert find_peaks(spec, min_depth, min_separation) == \
                self.loop_peaks(spec, min_depth, min_separation)


class TestFanoFit:
    TRUE = dict(center=200e3, width=4e3, q=1.8, amplitude=0.5, offset=1.0)

    def spectrum(self, noise=0.0, seed=None, n=200, span=40e3):
        x = np.linspace(self.TRUE["center"] - span / 2, self.TRUE["center"] + span / 2, n)
        y = fano_profile(x, **self.TRUE)
        sigma = np.full_like(x, noise)
        if noise:
            y = y + np.random.default_rng(seed).normal(0, noise, x.size)
        return Spectrum(AXIS_FREQ, x, np.clip(y, 0, 1.2), sigma)

    def test_noiseless_roundtrip(self):
        fit = fit_fano(self.spectrum())
        assert fit.center == pytest.approx(self.TRUE["center"], rel=1e-6)
        assert fit.width == pytest.approx(self.TRUE["width"], rel=1e-6)
        assert fit.q == pytest.approx(self.TRUE["q"], rel=1e-6)
        assert fit.amplitude == pytest.approx(self.TRUE["amplitude"], rel=1e-6)
        assert fit.offset == pytest.approx(self.TRUE["offset"], rel=1e-6)

    def test_symmetric_limit_center_at_minimum(self):
        x = np.linspace(180e3, 220e3, 200)
        y = fano_profile(x, 200e3, 5e3, 500.0, 0.4, 1.0)   # q -> inf: Lorentzian dip
        spec = Spectrum(AXIS_FREQ, x, y, np.zeros_like(x))
        fit = fit_fano(spec)
        assert fit.center == pytest.approx(x[np.argmin(y)], abs=2 * (x[1] - x[0]))

    def test_monte_carlo_center_recovery(self):
        # 1 % noise, 50 points: center within width/10 in >= 95 % of 100 seeds
        hits = 0
        for seed in range(100):
            spec = self.spectrum(noise=0.01, seed=seed, n=50)
            try:
                fit = fit_fano(spec)
            except ConvergenceError:
                continue
            if abs(fit.center - self.TRUE["center"]) < self.TRUE["width"] / 10:
                hits += 1
        assert hits >= 95

    def test_translation_and_scale_covariance(self):
        spec = self.spectrum()
        fit = fit_fano(spec)
        a, b = 2.5, -7e4
        moved = Spectrum(AXIS_FREQ, a * spec.x + b, spec.y, spec.sigma)
        fit2 = fit_fano(moved)
        assert fit2.center == pytest.approx(a * fit.center + b, rel=1e-6)
        assert fit2.width == pytest.approx(a * fit.width, rel=1e-6)
        assert fit2.q == pytest.approx(fit.q, rel=1e-5)
        assert fit2.residual_norm == pytest.approx(fit.residual_norm, abs=1e-8)

    def test_window_too_small(self):
        spec = self.spectrum()
        with pytest.raises(DomainError):
            fit_fano(spec, window=(199.9e3, 200.1e3))

    def test_window_without_spread(self):
        flat = Spectrum(AXIS_FREQ, np.full(10, 1000.0), np.linspace(0.9, 1.0, 10),
                        np.full(10, 0.01))
        with pytest.raises(DomainError, match="no spread"):
            fit_fano(flat)

    def test_profile_properties(self):
        # dip depth is exactly the amplitude; maximum value is the offset
        x = np.linspace(100e3, 300e3, 400001)
        y = fano_profile(x, **self.TRUE)
        assert y.min() == pytest.approx(self.TRUE["offset"] - self.TRUE["amplitude"],
                                        abs=1e-6)
        assert y.max() <= self.TRUE["offset"] + 1e-12

    @staticmethod
    def lm_iterations(monkeypatch):
        """The iteration count of every LM run that spectra starts from now on."""
        iterations = []

        def counted(model, x0, **kwargs):
            result = lm(model, x0, **kwargs)
            iterations.append(result.iterations)
            return result

        lm = spectra.levenberg_marquardt
        monkeypatch.setattr(spectra, "levenberg_marquardt", counted)
        return iterations

    def test_zero_width_trial_builds_no_jacobian(self, monkeypatch):
        """At zero width the projection fails and the residual is infinite, so
        LM rejects the trial; the model builds no Jacobian from the infinite
        coefficients and raises no RuntimeWarning."""
        lm, trials = spectra.levenberg_marquardt, []

        def probed(model, x0, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                r, _ = model(np.array([x0[0] + 0.5, 0.0]))   # off the grid: no 0/0
            trials.append((0.5 * float(r @ r), len(caught)))
            return lm(model, x0, **kwargs)

        monkeypatch.setattr(spectra, "levenberg_marquardt", probed)
        fit_fano(self.spectrum())
        cost, n_warnings = trials[0]
        assert not cost < math.inf
        assert n_warnings == 0

    def test_work_count(self, monkeypatch):
        """One LM start per fit, and few iterations on the Monte-Carlo set."""
        iterations = self.lm_iterations(monkeypatch)
        for seed in range(100):
            fit_fano(self.spectrum(noise=0.01, seed=seed, n=50))
            assert len(iterations) == seed + 1
        assert np.mean(iterations) <= 12

    @staticmethod
    def large_residual_windows():
        """24 energy-map-like fit windows: loss spectra of a bound state seen
        at drive orders 1 and 2 (150 Hz spacing, 1 % noise), +-20 kHz around
        each dip.  The Fano line is not the synthesized lineshape, so the
        whitened cost is ~170-800 over ~267 points: a large-residual problem."""
        windows = []
        for energy in (128.37e3, 171.93e3, 236.11e3, 297.52e3):
            grid = np.arange(energy / 2 - 22e3, energy + 22e3, 150.0)
            models = [bound_resonance(energy, width, order)
                      for width, order in ((3e3, 1), (4e3, 2))]
            for seed in range(3):
                spec = synthesize_spectrum(models, grid, density=2.5e12, noise_sigma=0.01,
                                           seed=seed)
                windows += [(spec, (xc - 20e3, xc + 20e3))
                            for xc in find_peaks(spec, 0.05, 8e3)]
        assert len(windows) == 24
        return windows

    def test_large_residual_work_count(self, monkeypatch):
        """Without the secant term of the Hessian, LM converges only linearly
        on these windows (10.7 accepted steps a fit on average); with it, 6.6."""
        iterations = self.lm_iterations(monkeypatch)
        for spec, window in self.large_residual_windows():
            fit_fano(spec, window=window)
        assert len(iterations) == 24
        assert np.mean(iterations) <= 10

    def test_large_residual_oracle(self):
        """scipy's least_squares on the five-parameter profile, started from
        the reported fit, finds no better center."""
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        for spec, (lo, hi) in self.large_residual_windows():
            fit = fit_fano(spec, window=(lo, hi))
            mask = (spec.x >= lo) & (spec.x <= hi)
            x, y, w = spec.x[mask], spec.y[mask], 1.0 / spec.sigma[mask]
            ref = least_squares(lambda p: (fano_profile(x, *p) - y) * w,
                                [fit.center, fit.width, fit.q, fit.amplitude, fit.offset],
                                jac=lambda p: spectra._fano_jacobian(x, p) * w[:, None],
                                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            assert abs(ref.x[0] - fit.center) < 0.01 * fit.stderr[0]

    @pytest.mark.parametrize("q", [0.5, 2.0, -3.0, spectra.Q_SYMMETRIC])
    @pytest.mark.parametrize("width", [300.0, 1500.0, 4000.0])
    def test_small_residual_exact_and_quick(self, q, width):
        """Noiseless dips: the secant term, which starts at zero, neither
        spoils the center nor slows a zero-residual fit much."""
        center = 200037.0
        x = np.arange(180e3, 220e3 + 1.0, 150.0)
        spec = Spectrum(AXIS_FREQ, x, fano_profile(x, center, width, q, 0.5, 1.0),
                        np.zeros_like(x))
        fit = fit_fano(spec)
        assert fit.center == pytest.approx(center, abs=1e-6)
        assert fit.iterations <= 12

    def test_large_residual_crawl_converges(self):
        """A noisy dip ~2.4 grid steps wide, dominated by noise (cost ~1060 over
        267 points): Gauss-Newton converges only linearly along a valley there,
        and the fit ran to max_iter before LM stopped on a negligible predicted
        cost decrease.  The spectrum is the frequency scan at 1.2 W/cm^2 of a
        4g(4) energy-map job at 19.5318 G, dip at 81,102.9 Hz."""
        dc_shift = -1689.7609795573153
        models = [ResonanceModel(a_bk=200.0, delta_m=TWO_PI * width,
                                 omega0=TWO_PI * (163919.395348837 + dc_shift), m=m)
                  for width, m in ((3e3, -1), (4e3, -2))]
        spec = synthesize_spectrum(models, np.linspace(59959.697674418494, 185919.395348837, 841),
                                   density=2.5e12, noise_sigma=0.01, seed=865538242)
        xc = find_peaks(spec, 0.05, 8e3)[0]
        assert xc == pytest.approx(81102.9, abs=0.1)
        fit = fit_fano(spec, window=(xc - 20e3, xc + 20e3))
        assert fit.stop == "decrease"
        assert abs(fit.center - xc) < 4e3 and fit.amplitude > 0.05
        assert 2 * (spec.x[1] - spec.x[0]) < fit.width < 3 * (spec.x[1] - spec.x[0])

    def test_symmetric_dip_has_finite_q(self):
        # b2 == 0 exactly is q = +-inf; it is reported as the finite Q_SYMMETRIC
        b0, b1, center, width = 1.0, -0.4, 200e3, 5e3
        a, q, offset = spectra._fano_from_linear(b0, b1, 0.0)
        assert (a, q, offset) == (0.4, spectra.Q_SYMMETRIC, 1.0)
        assert json.loads(json.dumps(q)) == q
        x = np.linspace(180e3, 220e3, 401)
        h, dx = width / 2, x - center
        lorentzian = b0 + b1 * h ** 2 / (h ** 2 + dx ** 2)
        curve = fano_profile(x, center, width, q, a, offset)
        assert np.max(np.abs(curve - lorentzian)) <= 4 * np.finfo(float).eps
        # an exact Lorentzian dip fits to a finite q and the same curve
        spec = Spectrum(AXIS_FREQ, x, lorentzian, np.zeros_like(x))
        fit = fit_fano(spec)
        assert math.isfinite(fit.q) and abs(fit.q) > 1e6
        assert fit.center == pytest.approx(center, rel=1e-12)
        fitted = fano_profile(x, fit.center, fit.width, fit.q, fit.amplitude, fit.offset)
        assert np.max(np.abs(fitted - lorentzian)) < 1e-10

    def test_flat_window_raises_domain_error(self):
        with pytest.raises(DomainError):
            spectra._fano_from_linear(1.0, 0.0, 0.0)
        x = np.linspace(180e3, 220e3, 50)
        with pytest.raises(DomainError):
            fit_fano(Spectrum(AXIS_FREQ, x, np.zeros_like(x), np.full_like(x, 0.01)))

    def test_covariance_from_five_parameter_jacobian(self):
        spec = self.spectrum(noise=0.01, seed=4, n=80)
        fit = fit_fano(spec)
        x, w = spec.x, 1.0 / spec.sigma
        c, width, q, a = fit.center, fit.width, fit.q, fit.amplitude
        # analytic derivatives of offset - a u^2 / (k d), u = q w/2 + dx
        dx = x - c
        u = q * width / 2 + dx
        k = 1 + q ** 2
        d = (width / 2) ** 2 + dx ** 2
        jac = np.column_stack([2 * a * u * (d - u * dx) / (k * d ** 2),
                               -a * (u * q * d - u ** 2 * width / 2) / (k * d ** 2),
                               -a * (u * width * k - 2 * q * u ** 2) / (k ** 2 * d),
                               -u ** 2 / (k * d), np.ones_like(x)]) * w[:, None]
        r = (fano_profile(x, c, width, q, a, fit.offset) - spec.y) * w
        assert fit.residual_norm == pytest.approx(math.sqrt(r @ r), rel=1e-12)
        s2 = (r @ r) / (x.size - 5)
        cov = s2 * np.linalg.inv(jac.T @ jac)
        assert fit.covariance.shape == (5, 5)
        assert fit.stderr[0] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-9)
        assert np.allclose(fit.covariance, cov, rtol=1e-7, atol=0)


class TestPoleOffset:
    """README "What omega_res_Hz estimates": a Fano center estimates the center of
    the loss feature, which lies below the pole E/|m| of the m = -1 line
    (E = 228.7 kHz; widths 3 and 4 kHz, 2.5e12 cm^-3, noiseless, +-20 kHz
    window) by ~15 Hz.  At 150 Hz spacing the grid phase scatters it by
    +-8 Hz about that."""

    E_HZ = 228.7e3

    def offsets(self, spacing, phases):
        """Fitted m = -1 center minus the pole, one per grid phase (the pole's
        offset from the grid in units of spacing, up to a constant)."""
        models = [bound_resonance(self.E_HZ, 3e3, 1), bound_resonance(self.E_HZ, 4e3, 2)]
        window = (self.E_HZ - 20e3, self.E_HZ + 20e3)
        steps = np.arange(int(40e3 / spacing) + 1)
        offsets = []
        for phase in phases:
            spec = synthesize_spectrum(models, window[0] + spacing * (phase + steps),
                                       density=2.5e12)
            offsets.append(fit_fano(spec, window=window).center - self.E_HZ)
        return offsets

    def test_resolved_offset(self):
        assert all(-20.0 <= d <= -8.0 for d in self.offsets(15.0, (0.0, 0.5)))

    def test_offset_at_workload_spacing(self):
        offsets = self.offsets(150.0, np.arange(10) / 10)
        assert -20.0 <= np.mean(offsets) <= -8.0
        assert all(-25.0 <= d <= -5.0 for d in offsets)


class TestLinearShift:
    """Shift compensation: the zero-intensity intercept of weighted_linear_fit
    through (intensity, center) points."""

    def test_exact_recovery(self):
        intensity = np.array([0.4, 0.8, 1.2])
        fit = weighted_linear_fit(intensity, 228.7e3 - intensity * 2e3)
        assert fit.intercept == pytest.approx(228.7e3, rel=1e-12)
        assert fit.slope == pytest.approx(-2e3, rel=1e-12)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-6)

    def test_weighted_outlier(self):
        fit = weighted_linear_fit([0.2, 0.6, 1.0], [100e3, 104e3, 150e3],
                                  sigma=[0.1e3, 0.1e3, 50e3])
        assert fit.intercept == pytest.approx(98e3, rel=1e-3)
        assert fit.slope == pytest.approx(10e3, rel=2e-2)

    def test_validation(self):
        with pytest.raises(DomainError, match="rank-deficient"):
            weighted_linear_fit([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(DomainError, match="rank-deficient"):
            weighted_linear_fit([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])


def lz_branches(v_hz=25e3, noise=0.0, seed=None, b0=18.66,
                slope_i=-1.35e6, slope_j=-8e3, e0=-182e3):
    bs = np.linspace(b0 - 0.1, b0 + 0.1, 21)
    e_i = e0 + slope_i * (bs - b0)
    e_j = e0 + slope_j * (bs - b0)
    root = np.sqrt((e_i - e_j) ** 2 + v_hz ** 2)
    upper = 0.5 * (e_i + e_j + root)
    lower = 0.5 * (e_i + e_j - root)
    rng = np.random.default_rng(seed)
    data = []
    for b, e in zip(bs, upper):
        data.append((float(b), float(e + (rng.normal(0, noise) if noise else 0.0)), +1))
    for b, e in zip(bs, lower):
        data.append((float(b), float(e + (rng.normal(0, noise) if noise else 0.0)), -1))
    return data


class TestLandauZener:
    def test_noiseless_recovery(self):
        fit = fit_landau_zener(lz_branches())
        assert fit.v_ij == pytest.approx(25e3, rel=1e-8)
        assert {round(fit.slope_i), round(fit.slope_j)} == {-1.35e6, -8e3}

    def test_noisy_recovery(self):
        fit = fit_landau_zener(lz_branches(noise=0.5e3, seed=11))
        assert fit.v_ij == pytest.approx(25e3, abs=1.5e3)

    def test_zero_coupling(self):
        fit = fit_landau_zener(lz_branches(v_hz=0.0, noise=0.05e3, seed=3))
        assert abs(fit.v_ij) < 0.5e3

    def test_branch_label_swap_invariant(self):
        data = lz_branches(noise=0.3e3, seed=7)
        swapped = [(b, e, -s) for b, e, s in data]
        f1 = fit_landau_zener(data)
        f2 = fit_landau_zener(swapped)
        assert f2.v_ij == pytest.approx(f1.v_ij, rel=1e-6)

    def test_common_linear_background_invariant(self):
        data = lz_branches(noise=0.2e3, seed=5)
        shifted = [(b, e + 40e3 + 12e3 * (b - 18.66), s) for b, e, s in data]
        f1 = fit_landau_zener(data)
        f2 = fit_landau_zener(shifted)
        assert f2.v_ij == pytest.approx(f1.v_ij, rel=1e-6)

    def test_single_branch_not_spanning_warns(self):
        data = [d for d in lz_branches() if d[2] > 0 and d[0] < 18.64]
        if len(data) < 5:
            data = lz_branches()[:5]
        fit = fit_landau_zener(data)
        assert fit.condition > 1e10

    @pytest.mark.parametrize("data,v_hz", [
        ([d for d in lz_branches() if d[2] > 0 and d[0] < 18.64], 25e3),
        (lz_branches()[:5], 25e3),
        (lz_branches()[21:26], 25e3),
        ([d for d in lz_branches(v_hz=0.0) if d[2] > 0], None),
        (lz_branches()[10::21] * 3, None),
        (lz_branches(slope_i=-8e3), None),
        (lz_branches(v_hz=0.0, slope_i=-8e3), None),
    ], ids=["upper-left-of-crossing", "first-five", "five-lower", "v0-one-branch",
            "one-field", "parallel-lines", "equal-lines"])
    def test_degenerate_inputs(self, data, v_hz):
        """Noiseless degenerate geometries are fitted exactly in a few
        iterations, report a condition above 1e10 exactly where J^T J at the
        solution is ill-conditioned, and single-branch data still determines
        the coupling."""
        fit = fit_landau_zener(data)
        assert fit.iterations <= 10
        assert fit.residual_norm < 1e-6
        b = np.array([d[0] for d in data]) - fit.b_center
        params = [fit.e_i0, fit.slope_i, fit.e_j0, fit.slope_j, fit.v_ij]
        _, jac = spectra._lz_model_and_jacobian(params, b, np.array([d[2] for d in data]))
        assert (fit.condition > 1e10) == (np.linalg.cond(jac.T @ jac) > 1e10)
        if v_hz is not None:
            assert fit.v_ij == pytest.approx(v_hz, rel=1e-6)

    def test_non_finite_sample_is_a_domain_error(self, capfd):
        for row in ((18.6, math.nan, 1), (math.inf, -182e3, -1)):
            data = lz_branches()
            data[7] = row
            with pytest.raises(DomainError, match="sample 7 is not finite"):
                fit_landau_zener(data)
        assert capfd.readouterr().err == ""

    def test_work_count(self, monkeypatch):
        """About three LM iterations per fit on criterion 08's 100 seeds (the
        branch-pairing start this conic replaced took 3.96)."""
        iterations = TestFanoFit.lm_iterations(monkeypatch)
        for seed in range(100):
            fit_landau_zener(_lz_synthetic(seed))
        assert len(iterations) == 100
        assert np.mean(iterations) <= 3.5

    def test_one_model_evaluation_per_trial_point(self, monkeypatch):
        """On criterion 08's 100 seeds, with and without noise, each fit
        evaluates _lz_model_and_jacobian exactly as often as LM calls its
        model: about three times a fit (separate residual and Jacobian
        callbacks took 5.52)."""
        lz, lm = spectra._lz_model_and_jacobian, spectra.levenberg_marquardt
        calls = {"lz": 0, "model": 0}

        def counted_lz(*args):
            calls["lz"] += 1
            return lz(*args)

        def counted_lm(model, x0, **kwargs):
            def counted_model(p):
                calls["model"] += 1
                return model(p)
            return lm(counted_model, x0, **kwargs)

        monkeypatch.setattr(spectra, "_lz_model_and_jacobian", counted_lz)
        monkeypatch.setattr(spectra, "levenberg_marquardt", counted_lm)
        per_fit = []
        for noise in (0.5e3, 0.0):
            for seed in range(100):
                calls.update(lz=0, model=0)
                fit_landau_zener(_lz_synthetic(seed, noise=noise))
                assert calls["lz"] == calls["model"] > 0
                per_fit.append(calls["lz"])
        assert np.mean(per_fit) < 3.5


def _predicted_decrease(jac, r):
    """0.5 g^T (J^T J)^-1 g with g = J^T r, the cost drop the undamped
    Gauss-Newton step predicts: half the squared projection of r onto the
    range of J, by an SVD least-squares solve."""
    step = np.linalg.lstsq(jac, r, rcond=None)[0]
    return 0.5 * float(np.sum((jac @ step) ** 2))


def _uncentered_conic_start(b, e):
    """spectra._lz_initial_guess without centering E (e_mid = 0)."""
    b_scale, e_scale = np.max(np.abs(b)), np.max(np.abs(e))
    x, y = b / b_scale, e / e_scale
    design = np.column_stack([y, y * x, np.ones_like(x), x, x * x])
    c1, c2, c3, c4, c5 = np.linalg.lstsq(design, -y * y, rcond=None)[0]
    m0, m1 = -0.5 * c1, -0.5 * c2
    d1 = 2.0 * math.sqrt(max(m1 * m1 - c5, 0.0))
    d0 = (4.0 * m0 * m1 - 2.0 * c4) / d1 if d1 > 0 else 0.0
    v = math.sqrt(abs(4.0 * (m0 * m0 - c3) - d0 * d0))
    slope = e_scale / b_scale
    return np.array([(m0 + 0.5 * d0) * e_scale, (m1 + 0.5 * d1) * slope,
                     (m0 - 0.5 * d0) * e_scale, (m1 - 0.5 * d1) * slope, v * e_scale])


class TestStopReason:
    """A fit is converged only on the decrease or the precision test of
    levenberg_marquardt, and it passed the test it names."""

    def test_noisy_fano_fits_stop_on_decrease(self):
        for spec, (lo, hi) in TestFanoFit.large_residual_windows():
            fit = fit_fano(spec, window=(lo, hi))
            assert fit.stop == "decrease"
            mask = (spec.x >= lo) & (spec.x <= hi)
            x, y, w = spec.x[mask], spec.y[mask], 1.0 / spec.sigma[mask]
            params = (fit.center, fit.width, fit.q, fit.amplitude, fit.offset)
            r = (fano_profile(x, *params) - y) * w
            jac = spectra._fano_jacobian(x, params) * w[:, None]
            assert _predicted_decrease(jac, r) <= COST_RTOL * 0.5 * float(r @ r)

    @pytest.mark.parametrize("noise,stop", [(0.5e3, "decrease"), (0.0, "precision")])
    def test_criterion_08_lz_fits(self, noise, stop):
        for seed in range(100):
            data = _lz_synthetic(seed, noise=noise)
            fit = fit_landau_zener(data)
            assert fit.stop == stop
            if stop == "decrease":
                b, e, sgn = (np.array(column, dtype=float) for column in zip(*data))
                params = [fit.e_i0, fit.slope_i, fit.e_j0, fit.slope_j, fit.v_ij]
                model, jac = spectra._lz_model_and_jacobian(params, b - fit.b_center, sgn)
                r = model - e
                assert _predicted_decrease(jac, r) <= COST_RTOL * 0.5 * float(r @ r)
            else:
                assert fit.residual_norm < 1e-6

    def test_uncentered_start_is_not_called_converged(self):
        """From this start the equal-lines row's V has a J^T J diagonal of
        8.9e-11 against 0.08-21 for the others, so LM damped by
        lambda diag(J^T J) steps V hugely until lambda ~ 1e13.  A stop on a
        negligible actual cost drop ends that fit after one step at residual
        1.25e6 Hz; the fit must instead be exact, or raise."""
        data = lz_branches(v_hz=0.0, slope_i=-8e3)
        b, e, sgn = (np.array(column, dtype=float) for column in zip(*data))
        b -= b.mean()

        def model(p):
            fitted, jac = spectra._lz_model_and_jacobian(p, b, sgn)
            return fitted - e, jac

        try:
            result = levenberg_marquardt(model, _uncentered_conic_start(b, e))
        except ConvergenceError:
            return
        assert result.residual_norm < 1e-6


class TestSpectrumIO:
    def make(self):
        grid = np.linspace(150e3, 250e3, 101)
        return synthesize_spectrum([bound_resonance(200e3, 2e3)], grid,
                                   noise_sigma=0.01, seed=1,
                                   metadata={"field_G": 19.41, "intensity_W_cm2": 0.87})

    def test_csv_bit_exact_roundtrip(self, tmp_path):
        spec = self.make()
        write_spectrum(spec, tmp_path / "spec")
        loaded = read_spectrum_csv(tmp_path / "spec.csv")
        assert np.array_equal(loaded.x, spec.x)
        assert np.array_equal(loaded.y, spec.y)
        assert np.array_equal(loaded.sigma, spec.sigma)
        assert loaded.axis == spec.axis
        # writing again reproduces identical bytes
        write_spectrum(loaded, tmp_path / "spec2")
        assert (tmp_path / "spec.csv").read_bytes() == (tmp_path / "spec2.csv").read_bytes()

    def test_json_roundtrip(self, tmp_path):
        spec = self.make()
        write_spectrum(spec, tmp_path / "spec")
        loaded = read_spectrum_json(tmp_path / "spec.json")
        assert np.array_equal(loaded.x, spec.x)
        assert np.array_equal(loaded.y, spec.y)
        assert np.array_equal(loaded.sigma, spec.sigma)
        assert loaded.metadata["field_G"] == 19.41
        assert loaded.metadata == spec.metadata

    @pytest.mark.parametrize("columns", [
        (np.array([1.5, -0.0, 5e-324]), [1, -2, 3], ["a", "b,c", 'q"'],
         [np.float64(0.1), 2.5e-300, 1.7976931348623157e308]),
        (np.array([60000.0, 1e22]), np.array([0.9, 1.0]), [0, 1], ["4g(4)", ""]),
        ([], [], [], []),
    ])
    def test_render_matches_reference(self, columns):
        """render agrees with json.dumps and with the per-cell rule it replaced."""
        header = ["x", "m", "label", "y"]
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
        assert spectra.render("json", header, columns) == json.dumps(
            {"columns": header, "rows": rows, "schema_version": spectra.SCHEMA_VERSION},
            indent=2, sort_keys=True) + "\n"
        csv = [f"# schema_version={spectra.SCHEMA_VERSION}", ",".join(header)]
        table = ["  ".join(h.ljust(14) for h in header)]
        for row in rows:
            csv.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                for v in row))
            table.append("  ".join((f"{v:.9g}" if isinstance(v, float) else str(v)).ljust(14)
                                   for v in row))
        assert spectra.render("csv", header, columns) == "\n".join(csv) + "\n"
        assert spectra.render("table", header, columns) == "\n".join(table) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("columns,name", [
        ((np.array([1.5, -np.inf, np.nan]), [1, -2, 3]), "x"),
        ((np.array([1.5, 2.5]), [np.float64(0.1), float("inf")]), "y"),
    ])
    def test_render_refuses_non_finite(self, fmt, columns, name):
        """A float column, array or list, with a NaN or an infinity is refused
        in every format, naming the column."""
        with pytest.raises(DomainError, match=f"^{name} is not finite for these inputs$"):
            spectra.render(fmt, ["x", "y"], columns)

    def test_write_spectrum_formats_each_column_once(self, tmp_path, monkeypatch):
        """One write_spectrum formats x, y and sigma once for both files; the
        csv holds the bytes render gives for it and the json the bytes of
        json.dumps."""
        spec = Spectrum(AXIS_FREQ, np.linspace(150e3, 250e3, 7),
                        [0.1, 1.2, 0.0, 5e-324, 0.3, 1.0, 0.7],
                        [1e22, 5e-324, 0.1, 0.0, 0.01, 2.5e-300, 1 / 3],
                        {"field_G": 19.41, "intensity_W_cm2": 0.87})
        cells, calls = spectra._cells, []

        def counted(column, fmt):
            calls.append(fmt)
            return cells(column, fmt)

        monkeypatch.setattr(spectra, "_cells", counted)
        write_spectrum(spec, tmp_path / "spec")
        monkeypatch.undo()
        assert len(calls) == 3   # x, y, sigma; the separate csv and json writers made 7
        csv = spectra.render("csv", spectra._CSV_HEADER.split(","),
                             ([spec.axis] * len(spec), spec.x, spec.y, spec.sigma))
        js = json.dumps({"axis": spec.axis, "kind": "spectrum", "metadata": spec.metadata,
                         "points": np.column_stack([spec.x, spec.y, spec.sigma]).tolist(),
                         "schema_version": spectra.SCHEMA_VERSION},
                        indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "spec.csv").read_bytes() == csv.encode()
        assert (tmp_path / "spec.json").read_bytes() == js.encode()

    def test_csv_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("axis,value,relative_atoms,sigma\nmodulation_freq_Hz,1,bogus,0\n")
        with pytest.raises(ConfigError) as err:
            read_spectrum_csv(path)
        assert "line 2" in str(err.value)

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("modulation_freq_Hz,1,0.9,0\n")
        with pytest.raises(ConfigError):
            read_spectrum_csv(path)


class TestEnergyMapAssembly:
    def synth_scans(self, state, registry, intensities=(0.4, 0.8, 1.2),
                    b_field=19.41, orders=(1, 2), widths=(3e3, 4e3),
                    shift_slope=-2e3, noise=0.01, seed0=100):
        """Frequency scans at one field, several intensities, DC-shifted.

        The grid is fine (50 Hz) around each expected feature, the way an
        actual scan would resolve the loss peaks.
        """
        e_hz = molecular_energy(state, b_field, registry)
        omega_b = -TWO_PI * e_hz
        segments = [np.linspace(abs(e_hz) / k - 20e3, abs(e_hz) / k + 20e3, 801)
                    for k in orders]
        grid = np.unique(np.concatenate(segments))
        scans = []
        for i, intensity in enumerate(intensities):
            models = []
            dc = TWO_PI * shift_slope * intensity * (1 - 0.86 / 2)
            for k, w in zip(orders, widths):
                m = -k if omega_b > 0 else k
                models.append(ResonanceModel(a_bk=200.0, delta_m=TWO_PI * w,
                                             omega0=omega_b + dc, m=m))
            spec = synthesize_spectrum(models, grid, density=2.5e12,
                                       noise_sigma=noise, seed=seed0 + i,
                                       metadata={"field_G": b_field,
                                                 "intensity_W_cm2": intensity})
            scans.append((b_field, spec, intensity))
        return scans

    def test_closed_loop_association(self):
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        scans = self.synth_scans(state, registry)
        points = assemble_energy_map(scans, registry)
        assert len(points) == 2
        by_order = {abs(p.order_m): p for p in points}
        assert set(by_order) == {1, 2}
        truth = abs(molecular_energy(state, 19.41, registry))
        for k, p in by_order.items():
            assert p.state_label == "4g(4)"
            assert p.bound is True
            assert p.order_m == -k
            assert p.omega_res < 0           # bound states plot on the inverted axis
            assert abs(p.omega_res) == pytest.approx(truth / k, rel=0.01)
            assert not p.flagged

    def test_one_covariance_per_fano_fit(self, monkeypatch):
        """Each Fano fit forms its covariance once, from its five-parameter
        Jacobian; the LM engine forms none."""
        fits, covariances = [], []
        fano, covariance = spectra.fit_fano, fitting._covariance
        monkeypatch.setattr(spectra, "fit_fano", lambda *a, **k: fits.append(a) or fano(*a, **k))
        for module in (spectra, fitting):
            monkeypatch.setattr(module, "_covariance",
                                lambda *a: covariances.append(a) or covariance(*a))
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        assert len(assemble_energy_map(self.synth_scans(state, registry), registry)) == 2
        assert len(covariances) == len(fits) == 6

    def test_subharmonic_maps_to_same_state(self):
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        scans = self.synth_scans(state, registry, orders=(1, 2), widths=(3e3, 2e3))
        points = assemble_energy_map(scans, registry)
        labels = {p.state_label for p in points}
        assert labels == {"4g(4)"}

    def test_unmatched_peak_flagged(self):
        registry = cesium_states()
        # 150 kHz sits > 3 % away from every |E(19.41 G)|/|m| the registry
        # predicts (228.7/114.4/76.2, 1194.7/597.3/398.2, 187.8/93.9/62.6 kHz)
        models = [bound_resonance(150e3, 3e3)]
        grid = np.linspace(100e3, 200e3, 600)
        spec = synthesize_spectrum(models, grid, density=3e12, noise_sigma=0.0,
                                   metadata={})
        points = assemble_energy_map([(19.41, spec, 0.8)], registry)
        assert len(points) == 1
        assert points[0].flagged
        assert points[0].state_label == ""

    def test_two_states_within_tolerance_flagged(self):
        # a 200 kHz line is a's fundamental and 2 % from b's: both explain it
        registry = (MolecularState("a", -200e3, 0.0, 19.41),
                    MolecularState("b", -204e3, 0.0, 19.41))
        spec = synthesize_spectrum([bound_resonance(200e3, 3e3)],
                                   np.linspace(150e3, 250e3, 600), density=3e12)
        [point] = assemble_energy_map([(19.41, spec, 0.8)], registry)
        assert (point.state_label, point.order_m, point.flagged) == ("a", -1, True)
        assert point.note == "single intensity; uncompensated center; ambiguous with ['b']"

    def test_fit_that_raises_is_dropped(self):
        # a 6 kHz grid leaves 7 samples in the +-20 kHz fit window of a deep
        # dip, and the 40 kHz line makes both neighbours of its deepest sample
        # deep enough to be fitted
        spec = synthesize_spectrum([bound_resonance(200e3, 40e3)],
                                   np.arange(150e3, 250.1e3, 6e3), density=3e12)
        assert find_peaks(spec, 0.05, 8e3) == [198e3]
        assert max(spec.y[7], spec.y[9]) < 0.95
        with pytest.raises(DomainError, match="only 7 points"):
            fit_fano(spec, window=(178e3, 218e3))
        assert assemble_energy_map([(19.41, spec, 0.8)], cesium_states()) == []

    def test_one_sample_dip_is_not_fitted(self, monkeypatch):
        # the 20 kHz line's deepest sample stands alone: both neighbours lie
        # within min_depth of the baseline
        spec = synthesize_spectrum([bound_resonance(200e3, 20e3)],
                                   np.arange(150e3, 250.1e3, 6e3), density=3e12)
        assert find_peaks(spec, 0.05, 8e3) == [198e3]
        assert min(spec.y[7], spec.y[9]) > 0.95

        def not_fitted(*args, **kwargs):
            raise AssertionError("a one-sample dip was fitted")

        monkeypatch.setattr(spectra, "fit_fano", not_fitted)
        assert assemble_energy_map([(19.41, spec, 0.8)], cesium_states()) == []

    def test_fit_that_does_not_converge_is_dropped(self, monkeypatch):
        x = np.arange(190e3, 210e3, 50.0)
        spec = Spectrum(AXIS_FREQ, x, fano_profile(x, 200e3, 3e3, 1.0, 0.4, 1.0),
                        np.zeros_like(x))
        registry = (MolecularState("c", -200e3, 0.0, 19.41),)
        assert len(assemble_energy_map([(19.41, spec, 0.8)], registry)) == 1

        def no_convergence(*args, **kwargs):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(spectra, "fit_fano", no_convergence)
        assert assemble_energy_map([(19.41, spec, 0.8)], registry) == []

    def test_state_at_threshold_is_skipped(self):
        # state t has E = 0 at its B_ref: it predicts no line, and the
        # association must not divide by its zero energy
        registry = (MolecularState("t", 0.0, 1.35e6, 19.41),
                    MolecularState("a", -200e3, 0.0, 19.41))
        assert molecular_energy(registry[0], 19.41, registry) == 0.0
        spec = synthesize_spectrum([bound_resonance(200e3, 3e3)],
                                   np.linspace(150e3, 250e3, 600), density=3e12)
        [point] = assemble_energy_map([(19.41, spec, 0.8)], registry)
        assert (point.state_label, point.order_m, point.flagged) == ("a", -1, False)

    def test_fit_off_its_dip_is_dropped(self):
        # the deepest sample of a q = 1 Fano dip lies w/(2q) = 1.5 kHz from its
        # center: within min_separation_hz/2 at 8 kHz, beyond it at 2 kHz
        x = np.arange(190e3, 210e3, 50.0)
        spec = Spectrum(AXIS_FREQ, x, fano_profile(x, 200e3, 3e3, 1.0, 0.4, 1.0),
                        np.zeros_like(x))
        registry = (MolecularState("c", -200e3, 0.0, 19.41),)
        [point] = assemble_energy_map([(19.41, spec, 0.8)], registry)
        assert point.omega_res == pytest.approx(-200e3, rel=1e-9)
        assert assemble_energy_map([(19.41, spec, 0.8)], registry, min_separation_hz=2e3) == []

    def test_two_intensity_notes(self):
        # both intensities see the m = -1 line, only 0.4 W/cm^2 the m = -2 line
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        scans = (self.synth_scans(state, registry, intensities=(0.4,))
                 + self.synth_scans(state, registry, intensities=(0.8,), orders=(1,),
                                    widths=(3e3,), seed0=101))
        points = assemble_energy_map(scans, registry)
        assert [(p.order_m, p.note) for p in points] == [
            (-2, "peak seen at a single intensity; left uncompensated"),
            (-1, "shift compensation from only two intensities")]
        assert all(p.state_label == "4g(4)" and not p.flagged for p in points)

    def test_deterministic(self):
        registry = cesium_states()
        state = next(s for s in registry if s.label == "4g(4)")
        scans = self.synth_scans(state, registry)
        p1 = assemble_energy_map(scans, registry)
        p2 = assemble_energy_map(scans, registry)
        assert [(q.B, q.omega_res, q.order_m, q.state_label) for q in p1] == \
               [(q.B, q.omega_res, q.order_m, q.state_label) for q in p2]
