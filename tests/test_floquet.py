import math
from dataclasses import replace

import numpy as np
import pytest

from modfesh import cli, floquet
from modfesh.errors import ConvergenceError, DomainError
from modfesh.floquet import (DrivenTwoLevel, avoided_crossing_gap, effective_coupling,
                             floquet_spectrum, resonance_frequencies)
from modfesh.specfun import bessel_j

from oracles import bessel_series, floquet_matrix_pair, magnus_sequential_propagator


def model(omega_b=1.0, Omega=0.02, A=1.0, omega_mod=1.0):
    return DrivenTwoLevel(omega_alpha=0.0, omega_beta=-omega_b, Omega=Omega,
                          A=A, omega_mod=omega_mod)


class TestEffectiveCoupling:
    def test_no_drive_kills_sidebands(self):
        assert effective_coupling(model(A=0.0), 1) == 0.0

    def test_no_drive_keeps_carrier(self):
        assert effective_coupling(model(A=0.0, Omega=0.37), 0) == pytest.approx(0.37)

    def test_bessel_weight(self):
        m = model(Omega=0.5, A=1.0, omega_mod=1.0)
        expected = -0.5 * bessel_series(1, 1.0)   # (-1)^1 Omega J_1(1)
        assert effective_coupling(m, 1) == pytest.approx(expected, rel=1e-12)

    def test_requires_positive_modulation(self):
        bad = DrivenTwoLevel(0.0, -1.0, 0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            effective_coupling(bad, 1)


class TestResonanceFrequencies:
    def test_fundamental_and_subharmonics(self):
        # 228.7 kHz binding: orders at 228.7, 114.35, 76.233... kHz
        omega_b = 2 * math.pi * 228.7e3
        res = resonance_frequencies(omega_b, 3)
        ms = [m for m, _ in res]
        freqs = [w / (2 * math.pi) for _, w in res]
        assert ms == [-1, -2, -3]
        assert freqs[0] == pytest.approx(228.7e3)
        assert freqs[1] == pytest.approx(114.35e3)
        assert freqs[2] == pytest.approx(228.7e3 / 3.0)
        # measured values quoted for this binding energy lie within 2 %
        assert abs(114.3e3 - freqs[1]) / freqs[1] < 0.02
        assert abs(75.0e3 - freqs[2]) / freqs[2] < 0.02

    def test_single_order(self):
        res = resonance_frequencies(-5.0, 1)
        assert res == [(1, 5.0)]

    def test_sign_flip(self):
        plus = resonance_frequencies(3.0, 3)
        minus = resonance_frequencies(-3.0, 3)
        assert [(-m, w) for m, w in plus] == minus

    def test_validation(self):
        with pytest.raises(DomainError):
            resonance_frequencies(0.0, 2)
        with pytest.raises(DomainError):
            resonance_frequencies(1.0, 0)


def zone_distance(x, y, omega):
    """Distance between quasi-energies x and y around the zone of width omega."""
    d = np.abs(np.asarray(x) - np.asarray(y)) % omega
    return np.minimum(d, omega - d)


class TestFloquetSpectrum:
    def test_bare_levels_when_uncoupled(self):
        m = DrivenTwoLevel(omega_alpha=0.31, omega_beta=-0.54, Omega=0.0, A=0.0,
                          omega_mod=1.0)
        sol = floquet_spectrum(m)
        # quasi-energies are the bare levels mod omega: -0.54 folds to +0.46
        assert list(sol.quasi_energies) == pytest.approx([0.31, 0.46], abs=1e-12)
        assert sol.gap == pytest.approx(0.15, abs=1e-12)   # 0.15 < 1 - 0.15
        assert np.all(sol.quasi_energies > -0.5)
        assert np.all(sol.quasi_energies <= 0.5)

    def test_gauge_shift(self):
        m1 = model(omega_b=1.0, Omega=0.02, A=1.0, omega_mod=0.995)
        shift = 0.4321
        m2 = DrivenTwoLevel(m1.omega_alpha + shift, m1.omega_beta + shift,
                            m1.Omega, m1.A, m1.omega_mod)
        s1 = floquet_spectrum(m1)
        s2 = floquet_spectrum(m2)
        # a common shift moves each quasi-energy by the shift, around the zone
        moved = zone_distance(s2.quasi_energies[:, None],
                              s1.quasi_energies[None, :] + shift, m1.omega_mod).min(axis=1)
        assert np.all(moved <= 1e-12)
        assert s2.gap == pytest.approx(s1.gap, abs=1e-12)

    def test_truncation_cap_checked_before_solving(self, monkeypatch):
        """A drive needing more than MAX_PROPAGATOR_STEPS Magnus steps is refused
        before any array is built: (|omega_b| + |A|)/w = 2048.5 at Omega/w = 0.02
        needs 32 * 2049 steps, one block above the cap."""
        def refuse(*args):
            raise AssertionError("propagator built")

        monkeypatch.setattr(floquet, "_interaction_propagators", refuse)
        assert floquet._step_count(model(A=2047.0), 1.0) == floquet.MAX_PROPAGATOR_STEPS
        with pytest.raises(DomainError):
            floquet_spectrum(model(A=2047.5))
        with pytest.raises(DomainError):
            floquet_spectrum(model(A=1.0, Omega=0.02 * 2048.0 ** 2))
        # the CLI reports it as a domain error (exit 3): a huge drive, Rabi
        # frequency or order
        gap = ["floquet-gap", "--omega-b-hz", "-150e3", "--rabi-hz", "3e3",
               "--amplitude-hz", "150e3", "--m", "1"]
        for flag, value in (("--amplitude-hz", 2047.5 * 150e3), ("--rabi-hz", 1e12),
                            ("--m", 3000)):
            argv = list(gap)
            argv[argv.index(flag) + 1] = str(value)
            assert cli.run(argv) == 3, flag

    def test_drive_parity(self):
        m_plus = model(A=1.3, omega_mod=0.98)
        m_minus = model(A=-1.3, omega_mod=0.98)
        s_plus = floquet_spectrum(m_plus)
        s_minus = floquet_spectrum(m_minus)
        assert s_minus.gap == pytest.approx(s_plus.gap, rel=1e-10)

    @pytest.mark.parametrize("rabi", [3.0, 30.0, 300.0])
    def test_strong_coupling_step_count(self, rabi):
        """Beyond the matrix oracle's reach (Omega >> w mixes the photon
        sectors): the step count's Omega factors keep the gap within 1e-9 w of
        the same propagator at 4x the steps."""
        m = model(omega_b=1.0, Omega=rabi, A=1.0, omega_mod=0.99)
        steps = floquet._step_count(m, m.omega_mod)
        (_, gap), (_, gap_4x) = (next(floquet._phases(m, k, [m.omega_mod]))
                                 for k in (steps, 4 * steps))
        assert abs(gap - gap_4x) <= 1e-9 * m.omega_mod

    def test_non_finite_model_refused(self):
        with pytest.raises(DomainError):
            model(A=math.nan)
        with pytest.raises(DomainError):
            model(omega_b=math.inf)


class TestMatrixAgreement:
    """The propagator against the truncated Floquet matrix (tests/oracles.py):
    gap and quasi-energies within 1e-9 w at 7 frequencies across each
    criterion-04-style window 1 +- 0.02/m, up to Omega/w = 0.6."""

    @pytest.mark.parametrize("rabi", [0.02, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize("ratio", [0.5, 0.7, 1.0, 2.0, 2.5, 3.0, 5.5, 8.7])
    @pytest.mark.parametrize("m_order", [1, 2, 3])
    def test_gap_matches_matrix(self, m_order, ratio, rabi):
        base = DrivenTwoLevel(0.0, float(m_order), rabi, ratio, 1.0)
        half = 0.02 / m_order
        for w in np.linspace(1.0 - half, 1.0 + half, 7):
            m = replace(base, omega_mod=float(w))
            sol = floquet_spectrum(m)
            e1, e2 = floquet_matrix_pair(m)
            assert abs(sol.gap - abs(e2 - e1)) <= 1e-9 * w
            folded = sorted(e - w * math.ceil(e / w - 0.5) for e in (e1, e2))
            assert np.all(zone_distance(sol.quasi_energies, folded, w) <= 1e-9 * w)


class TestAvoidedCrossingGap:
    def test_uncoupled_gap_vanishes(self):
        m = model(omega_b=1.0, Omega=0.0, A=1.0)
        gap, center = avoided_crossing_gap(m, -1, (0.98, 1.02))
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert center == pytest.approx(1.0, abs=1e-6)

    def test_weak_drive_first_order(self):
        m = model(omega_b=1.0, Omega=0.01, A=0.8)
        gap, center = avoided_crossing_gap(m, -1, (0.98, 1.02))
        expected = 0.01 * abs(bessel_j(1, 0.8 / center))
        assert gap == pytest.approx(expected, rel=1e-3)

    def test_gap_ratio_tracks_bessel(self):
        # gap(m)/gap(1) = |J_m / J_1| at the respective resonances
        omega_b = -1.0   # continuum-side state: m positive
        Om, A = 0.02, 1.0
        gaps = {}
        for m_order in (1, 2):
            m = DrivenTwoLevel(0.0, 1.0, Om, A, 1.0 / m_order)
            window = (1.0 / m_order * 0.99, 1.0 / m_order * 1.01)
            gaps[m_order], _ = avoided_crossing_gap(m, m_order, window)
        expected = abs(bessel_j(2, A / 0.5) / bessel_j(1, A / 1.0))
        assert gaps[2] / gaps[1] == pytest.approx(expected, rel=5e-3)

    def test_drive_induced_center_shift_power_law(self):
        # the gap center carries an A-independent Omega^2 repulsion plus a
        # drive-induced piece scaling as A^(2|m|); measure the m = 1 case
        om = 0.004
        shifts = {}
        for amp in (1e-3, 0.05, 0.1, 0.2, 0.4):
            m = DrivenTwoLevel(0.0, 1.0, om, amp, 1.0)
            _, center = avoided_crossing_gap(m, 1, (0.995, 1.005))
            shifts[amp] = center - 1.0
        base = shifts[1e-3]
        assert base == pytest.approx(om ** 2 / 2.0, rel=0.05)
        amps = np.array([0.05, 0.1, 0.2, 0.4])
        deltas = np.array([abs(shifts[a] - base) for a in amps])
        slope = np.polyfit(np.log(amps), np.log(deltas), 1)[0]
        assert 1.7 <= slope <= 2.1

    def test_window_must_bracket(self):
        m = model(omega_b=1.0)
        with pytest.raises(DomainError):
            avoided_crossing_gap(m, -1, (1.5, 2.0))

    def test_no_interior_minimum(self):
        # the window brackets w_expect = 1 but ends below the true minimum at
        # w ~ 1.0000504: gap^2 falls monotonically up to the right edge
        m = model(omega_b=1.0, Omega=0.01, A=0.8)
        with pytest.raises(DomainError):
            avoided_crossing_gap(m, -1, (0.98, 1.00003))

    def test_minimum_on_window_edge(self):
        # the window ends 2e-9 past the minimum at w ~ 1.0000503848: the vertex
        # settles inside the window but within 2 GAP_XTOL_REL of its edge
        m = model(omega_b=1.0, Omega=0.01, A=0.8)
        with pytest.raises(DomainError, match="^no interior minimum bracketed by the scan window$"):
            avoided_crossing_gap(m, -1, (0.98, 1.000050387))

    def test_minimum_near_window_edge(self):
        # the minimum sits 8e-5 inside the left edge, 0.4 % of the window
        # width, and is still interior
        m = model(omega_b=1.0, Omega=0.01, A=0.8)
        gap, center = avoided_crossing_gap(m, -1, (0.99997, 1.02))
        assert center == pytest.approx(1.0000504, abs=1e-7)
        assert gap == pytest.approx(0.0036883, rel=1e-4)

    def test_returns_plain_floats(self):
        gap, center = avoided_crossing_gap(model(), -1, (0.98, 1.02))
        assert type(gap) is float and type(center) is float


class TestRwaOracle:
    @pytest.mark.parametrize("m_order", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 3.0])
    def test_gap_matches_rwa(self, m_order, ratio):
        # continuum-side level, resonance at omega = 1
        omega_b = -float(m_order)
        Om = 0.02
        A = ratio
        m = DrivenTwoLevel(0.0, -omega_b, Om, A, 1.0)
        half = 0.02 / m_order
        gap, center = avoided_crossing_gap(m, m_order, (1.0 - half, 1.0 + half))
        rwa = Om * abs(bessel_j(m_order, A / center))
        assert abs(gap - rwa) <= 0.01 * rwa


class TestPaddedProduct:
    """The half-period, identity-padded pairwise product against a plain
    sequential product of the same Magnus steps over the whole period
    (tests/oracles.py), at step counts whose halves are not powers of two, and
    at Omega = 0, where |v| = 0 and every step is 1."""

    @pytest.mark.parametrize("steps", [96, 160, 224, 384, 4 * 96, 4 * 160, 4 * 224, 4 * 384])
    @pytest.mark.parametrize("setting", [(0.0, 3.0, 0.02, 8.7, 1.0 - 0.02 / 3),
                                         (0.0, 1.0, 0.6, 2.5, 0.98),
                                         (0.0, 2.0, 0.0, 1.0, 1.0)],
                             ids=["m3-A8.7", "strong-rabi", "Omega-0"])
    def test_matches_sequential_product(self, steps, setting):
        m = DrivenTwoLevel(*setting)
        (a, b), = floquet._interaction_propagators(m, steps, [m.omega_mod])
        a_ref, b_ref = magnus_sequential_propagator(m, steps)
        assert abs(a - a_ref) <= 1e-13 and abs(b - b_ref) <= 1e-13
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-13
        if m.Omega == 0.0:
            assert (a, b) == (1.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_equals_one_at_a_time(self, seed):
        """One call over several frequencies gives, bit for bit, what one call
        per frequency gives."""
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m_order = int(rng.integers(1, 4))
            m = DrivenTwoLevel(0.0, float(m_order), rng.uniform(0.001, 0.4),
                               rng.uniform(0.1, 9.0), 1.0)
            ws = list(1.0 + rng.uniform(-0.02, 0.02, int(rng.integers(2, 5))) / m_order)
            steps = floquet._step_count(m, min(ws))
            assert list(floquet._interaction_propagators(m, steps, ws)) == [
                next(floquet._interaction_propagators(m, steps, [w])) for w in ws]


def rwa_setting(m_order, ratio, rabi=0.02):
    """Continuum-side level resonant at omega = 1, Omega/omega = rabi, and the
    criterion-04 window 1 +- 0.02/m."""
    m = DrivenTwoLevel(0.0, float(m_order), rabi, ratio, 1.0)
    half = 0.02 / m_order
    return m, (1.0 - half, 1.0 + half)


class TestGapWorkCount:
    """Work count, not wall time: one-period propagator builds per gap search,
    Magnus steps per build, and drive-phase tables per search."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """[len(ws) of each _interaction_propagators call so far]: its sum counts
        the frequencies built, its length the builder calls."""
        calls = []
        build = floquet._interaction_propagators

        def counting_build(model, steps, ws):
            calls.append(len(ws))
            return build(model, steps, ws)

        monkeypatch.setattr(floquet, "_interaction_propagators", counting_build)
        return calls

    def test_propagator_builds_per_gap(self, calls):
        counts = []
        for m_order in (1, 2, 3):
            for ratio in (0.5, 1.0, 2.0, 3.0, 5.5, 8.7):
                m, window = rwa_setting(m_order, ratio)
                calls.clear()
                avoided_crossing_gap(m, m_order, window)
                counts.append(sum(calls))
        assert np.mean(counts) <= 4.5
        assert max(counts) <= 5

    def test_phase_table_built_once_per_search(self, calls):
        floquet._drive_phase.cache_clear()
        m, window = rwa_setting(3, 8.7)
        avoided_crossing_gap(m, 3, window)
        info = floquet._drive_phase.cache_info()
        assert len(calls) > 1
        assert info.misses == 1 and info.hits == len(calls) - 1

    def test_minimum_outside_window_raises_within_five_builds(self, calls):
        # at Omega/w = 0.4 and A/w = 0.5 the crossing lies past the window's
        # edge: one build at that edge confirms it, where halving toward it took 24
        m, window = rwa_setting(1, 0.5, rabi=0.4)
        with pytest.raises(DomainError, match="no interior minimum"):
            avoided_crossing_gap(m, 1, window)
        assert sum(calls) <= 5

    def test_magnus_steps_per_build(self, calls, monkeypatch):
        """A build forms steps/2 Magnus exponentials, one cos|v| each: the first
        half period of its 384 steps.  The three starting points share one call."""
        formed = []
        cos = np.cos

        def counting_cos(x, *args, **kwargs):
            formed.append(np.size(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counting_cos)
        m, window = rwa_setting(3, 8.7)
        assert floquet._step_count(m, window[0]) == 384
        avoided_crossing_gap(m, 3, window)
        assert calls == [3, 1] and formed == [3 * 192, 192]

    def test_strong_coupling_settles_in_eight_builds(self, calls):
        # near this minimum gap^2's rounding noise moves the vertex by ~4e-9,
        # more than GAP_XTOL_REL; the noise-scaled tolerance stops it (7 builds)
        m, window = rwa_setting(1, 2.0, rabi=0.4)
        avoided_crossing_gap(m, 1, window)
        assert sum(calls) <= 8

    def test_build_cap_raises(self, calls, monkeypatch):
        # the strong-coupling search below settles in 7 builds
        monkeypatch.setattr(floquet, "GAP_MAX_BUILDS", 6)
        m, window = rwa_setting(1, 2.0, rabi=0.4)
        with pytest.raises(ConvergenceError, match="6 propagator builds"):
            avoided_crossing_gap(m, 1, window)
        assert sum(calls) == 6

    def test_phase_table_is_read_only(self):
        for table in floquet._drive_phase(96):
            assert table.shape == (48, 2) and not table.flags.writeable


class TestIndependentMinimizer:
    """The gap search against scipy's bounded minimizer of the same gap^2,
    with the same step count, beyond criterion 04's A/w <= 3 and, at strong
    coupling, beyond the two-level parabola."""

    @staticmethod
    def scipy_minimum(m, window):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        steps = floquet._step_count(m, window[0])

        def gap_squared(w):
            _, gap = next(floquet._phases(m, steps, [w]))
            return gap ** 2

        ref = minimize_scalar(gap_squared, bounds=window, method="bounded",
                              options={"xatol": 1e-12})
        return math.sqrt(ref.fun), ref.x

    @pytest.mark.parametrize("m_order", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.7, 2.5, 5.5, 8.7])
    def test_matches_scipy_bounded(self, m_order, ratio):
        m, window = rwa_setting(m_order, ratio)
        gap, center = avoided_crossing_gap(m, m_order, window)
        ref_gap, ref_center = self.scipy_minimum(m, window)
        assert gap == pytest.approx(ref_gap, rel=1e-8)
        assert center == pytest.approx(ref_center, rel=1e-8)
        rwa = 0.02 * abs(bessel_j(m_order, ratio / center))
        assert abs(gap - rwa) <= 0.01 * rwa

    @pytest.mark.parametrize("m_order,rabi,ratio", [(1, 0.4, 2.0), (1, 0.2, 3.0),
                                                    (2, 0.2, 1.0), (3, 0.1, 5.5)])
    def test_strong_coupling_matches_scipy_bounded(self, m_order, rabi, ratio):
        # at (1, 0.4, 2.0) the minimum sits 1.2 % below w_expect, and there gap^2's
        # rounding noise bends the parabola through the nearest points, a few 1e-9
        # apart, the wrong way: the search takes a halfway step before it settles
        m, window = rwa_setting(m_order, ratio, rabi)
        gap, center = avoided_crossing_gap(m, m_order, window)
        ref_gap, ref_center = self.scipy_minimum(m, window)
        assert gap == pytest.approx(ref_gap, rel=1e-8)
        assert center == pytest.approx(ref_center, rel=1e-8)
