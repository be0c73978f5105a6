"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is expected to FAIL: the published prose value of 35.6 mG for the
fictitious-field benchmark is inconsistent with the published formula and
transition table it cites, which give 28.61 mG.  Two independent checks (direct
second-order perturbation theory over the |F, m> manifold, and the standard
far-detuned vector-shift formula) confirm 28.61 mG, so the library implements
the formula and the criterion is left honestly red.  See the reviewer notes.
"""

import math
import time

import numpy as np
import pytest

from modfesh.atomdata import cesium, cesium_states, molecular_energy
from modfesh.errors import ConvergenceError, PoleError
from modfesh.floquet import DrivenTwoLevel, avoided_crossing_gap, resonance_frequencies
from modfesh.lightshift import (LightField, Polarization, fictitious_field,
                                heating_rate, scattering_rate)
from modfesh.scattering import (DressedChannelModel, ResonanceModel,
                                dressed_alpha_beta, inelastic_channel_scaling,
                                scattering_length, width_from_coupling)
from modfesh.specfun import bessel_j, wigner_3j, wigner_6j
from modfesh.spectra import (assemble_energy_map, fit_landau_zener,
                             synthesize_spectrum, write_spectrum)

from oracles import wigner_3j_racah, wigner_6j_contraction

TWO_PI = 2 * math.pi


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_fictitious_field():
    """sigma-, 0.87 W/cm^2, 23 GHz red of D2 F=3->F'=4 -> 35.6 mG within 2 %."""
    t0 = time.time()
    field = LightField(0.87, -23e9, Polarization.sigma_minus())
    b_mg = abs(fictitious_field(field, cesium(), 3)) * 1e3
    elapsed = time.time() - t0
    ok = abs(b_mg - 35.6) / 35.6 <= 0.02 and elapsed < 1.0
    report(1, ok, f"computed {b_mg:.3f} mG vs quoted 35.6 mG +-2% "
                  f"({elapsed*1e3:.0f} ms; formula+table give 28.61 mG, "
                  "see decisions ledger)")
    assert elapsed < 1.0
    assert b_mg == pytest.approx(35.6, rel=0.02)


def test_criterion_02_scattering_and_heating_rates():
    """sigma-, 24 GHz red, |3,3>: 167 Hz/(W/cm^2) and 11.0 nK/ms, both +-5 %."""
    t0 = time.time()
    field = LightField(1.0, -24e9, Polarization.sigma_minus())
    cs = cesium()
    rs = scattering_rate(field, cs, 3, 3)
    heat = heating_rate(field, cs, 3, 3)
    elapsed = time.time() - t0
    ok = (abs(rs - 167.0) / 167.0 <= 0.05 and abs(heat - 11.0) / 11.0 <= 0.05
          and elapsed < 1.0)
    report(2, ok, f"R_s = {rs:.2f} Hz (167 +-5%), dT/dt = {heat:.3f} nK/ms "
                  f"(11.0 +-5%), {elapsed*1e3:.0f} ms")
    assert rs == pytest.approx(167.0, rel=0.05)
    assert heat == pytest.approx(11.0, rel=0.05)
    assert elapsed < 1.0


def test_criterion_03_higher_order_resonances():
    """|omega_b|/2pi = 228.7 kHz -> 228.7 / 114.35 / 76.23 kHz; measured
    114.3 and 75.0 kHz within 2 %."""
    res = resonance_frequencies(TWO_PI * 228.7e3, 3)
    freqs = [w / TWO_PI for _, w in res]
    ok = (freqs[0] == pytest.approx(228.7e3, rel=1e-12)
          and freqs[1] == pytest.approx(114.35e3, rel=1e-12)
          and freqs[2] == pytest.approx(76.2333e3, rel=1e-4)
          and abs(114.3e3 - freqs[1]) / freqs[1] <= 0.02
          and abs(75.0e3 - freqs[2]) / freqs[2] <= 0.02)
    report(3, ok, f"orders at {freqs[0]/1e3:.2f} / {freqs[1]/1e3:.2f} / "
                  f"{freqs[2]/1e3:.2f} kHz; measured 114.3 and 75.0 kHz within 2%")
    assert ok


def test_criterion_04_floquet_vs_rwa_oracle():
    """Omega/w = 0.02, A/w in {0.5, 1, 2, 3}, m in {1, 2, 3}: numerical gap
    within 1 % of Omega |J_m(A/w)|; < 30 s total."""
    t0 = time.time()
    worst = 0.0
    for m_order in (1, 2, 3):
        for ratio in (0.5, 1.0, 2.0, 3.0):
            model = DrivenTwoLevel(omega_alpha=0.0, omega_beta=float(m_order),
                                   Omega=0.02, A=ratio, omega_mod=1.0)
            half = 0.02 / m_order
            gap, center = avoided_crossing_gap(model, m_order,
                                               (1.0 - half, 1.0 + half))
            rwa = 0.02 * abs(bessel_j(m_order, ratio / center))
            worst = max(worst, abs(gap - rwa) / rwa)
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < 30.0
    report(4, ok, f"worst |gap - RWA|/RWA = {worst:.2e} over 12 settings "
                  f"(tolerance 1e-2), {elapsed:.1f} s")
    assert worst <= 0.01
    assert elapsed < 30.0


def test_criterion_05_resonance_form():
    """Pole at -m w = w0, zero at -m w = w0 + Delta_m (exact); far-detuned
    limit returns a_bk to 1e-5."""
    model = ResonanceModel(a_bk=160.0, delta_m=0.25e5, omega0=1.0e6, m=-1)
    with pytest.raises(PoleError) as err:
        scattering_length(model, 1.0e6)
    pole_ok = err.value.location == 1.0e6
    zero_val = scattering_length(model, 1.025e6)   # -m w - w0 == delta_m exactly
    far = scattering_length(model, 1.0e6 + 1e6 * model.delta_m)
    far_ok = abs(far - 160.0) / 160.0 <= 1e-5
    ok = pole_ok and zero_val == 0.0 and far_ok
    report(5, ok, f"pole raises at w0/(-m), zero crossing = {zero_val}, "
                  f"far-detuned a_s = {far:.6f} vs 160 (1e-5)")
    assert pole_ok and zero_val == 0.0 and far_ok


def test_criterion_06_dressed_extremes_and_asymptotics():
    """alpha - a_bk = +-a_bk Delta_m/gamma and beta = a_bk Delta_m/gamma at
    Delta = gamma/2 (1e-8 relative); far-detuned forms within 5 % at 100 gamma."""
    m = DressedChannelModel(a_bk=210.0, delta_m=TWO_PI * 430.0,
                            gamma_in=TWO_PI * 37.0, omega_b=TWO_PI * 228.7e3,
                            delta_shift=0.0, m=1)

    def omega_at(delta):
        return (m.omega_b - m.delta_shift - delta) / m.m

    scale = m.a_bk * m.delta_m / m.gamma_in
    worst_extreme = 0.0
    for sign in (+1, -1):
        alpha, beta = dressed_alpha_beta(m, omega_at(sign * m.gamma_in / 2))
        worst_extreme = max(worst_extreme,
                            abs((alpha - m.a_bk) - sign * scale) / scale,
                            abs(beta - scale) / scale)
    delta_far = 100.0 * m.gamma_in
    alpha_f, beta_f = dressed_alpha_beta(m, omega_at(delta_far))
    asym_alpha = m.a_bk * m.delta_m / delta_far
    asym_beta = 0.5 * m.a_bk * m.delta_m * m.gamma_in / delta_far ** 2
    far_alpha_err = abs((alpha_f - m.a_bk) - asym_alpha) / asym_alpha
    far_beta_err = abs(beta_f - asym_beta) / asym_beta
    ok = worst_extreme <= 1e-8 and far_alpha_err <= 0.05 and far_beta_err <= 0.05
    report(6, ok, f"extreme-value error {worst_extreme:.1e} (1e-8); far-detuned "
                  f"errors alpha {far_alpha_err:.2e}, beta {far_beta_err:.2e} (5%)")
    assert worst_extreme <= 1e-8
    assert far_alpha_err <= 0.05 and far_beta_err <= 0.05


def test_criterion_07_scaling_laws():
    """Delta_{+-1} ~ A^2 (2.00 +- 0.02); gamma(m=1) ~ A^4 (+-0.05);
    gamma(m=-1) ~ A^0 (+-0.05)."""
    omega = TWO_PI * 150e3
    a_grid = np.logspace(-3, -1, 25) * omega
    slopes = {}
    for order in (+1, -1):
        widths = [width_from_coupling(1e-60, A=a, omega=omega, m=order, a_bk=200.0)
                  for a in a_grid]
        slopes[order] = float(np.polyfit(np.log(a_grid), np.log(widths), 1)[0])
    g_plus = inelastic_channel_scaling(a_grid, m=1, omega_mod=omega)
    g_minus = inelastic_channel_scaling(a_grid, m=-1, omega_mod=omega)
    ok = (abs(slopes[+1] - 2.0) <= 0.02 and abs(slopes[-1] - 2.0) <= 0.02
          and abs(g_plus - 4.0) <= 0.05
          and abs(g_minus - 0.0) <= 0.05)
    report(7, ok, f"width slopes {slopes[+1]:.4f}/{slopes[-1]:.4f} (2 +- 0.02); "
                  f"inelastic exponents {g_plus:.4f} (4 +- 0.05), "
                  f"{g_minus:.4f} (0 +- 0.05)")
    assert abs(slopes[+1] - 2.0) <= 0.02
    assert abs(slopes[-1] - 2.0) <= 0.02
    assert abs(g_plus - 4.0) <= 0.05
    assert abs(g_minus - 0.0) <= 0.05


def _lz_synthetic(seed, v_hz=25e3, noise=0.5e3):
    rng = np.random.default_rng(seed)
    data = []
    for b in np.linspace(18.56, 18.76, 21):
        e_i = -182e3 - 1.35e6 * (b - 18.66)
        e_j = -182e3 - 8e3 * (b - 18.66)
        root = math.hypot(e_i - e_j, v_hz)
        data.append((b, 0.5 * (e_i + e_j + root) + rng.normal(0, noise), +1))
        data.append((b, 0.5 * (e_i + e_j - root) + rng.normal(0, noise), -1))
    return data


def test_criterion_08_landau_zener_pipeline():
    """V_ij/h = 25 kHz with 0.5 kHz noise recovered to 25 +- 1.5 kHz in
    >= 95 % of 100 seeds."""
    t0 = time.time()
    hits = 0
    for seed in range(100):
        try:
            fit = fit_landau_zener(_lz_synthetic(seed))
        except ConvergenceError:
            continue
        if abs(fit.v_ij - 25e3) <= 1.5e3:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 95
    report(8, ok, f"{hits}/100 seeds within 25 +- 1.5 kHz ({elapsed:.1f} s)")
    assert hits >= 95


def _feature_grid(freqs, halfwidth=20e3, points=801):
    """Fine scan segments around each expected loss feature (as an
    experimenter would scan), merged into one monotone grid."""
    segments = [np.linspace(f - halfwidth, f + halfwidth, points)
                for f in sorted(freqs)]
    return np.unique(np.concatenate(segments))


def _pipeline_scans(tag_seed, noise=0.01, shift_slopes=None):
    """Synthetic fig-2/3-style scans for four states from the builtin registry.

    Returns (scans, truth) where truth maps (B, state label) to the generating
    state energy at that field.
    """
    registry = cesium_states()
    shift_slopes = shift_slopes or {"4g(4)": -2.0e3, "4d": -3.0e3,
                                    "6s": -1.5e3, "6g(6)": -1.8e3}
    depth = 0.86
    plan = [
        # (label, B, orders with widths in Hz)
        ("4g(4)", 19.41, {1: 3e3, 2: 4e3}),
        ("4d", 47.50, {1: 3e3}),
        ("6g(6)", 18.20, {1: 2.5e3}),
        ("6s", 18.50, {1: 2.5e3}),
    ]
    scans = []
    truth = {}
    seed = tag_seed
    for label, b_field, widths in plan:
        state = next(s for s in registry if s.label == label)
        e_hz = molecular_energy(state, b_field, registry)
        omega_b = -TWO_PI * e_hz
        truth[(b_field, label)] = e_hz
        grid = _feature_grid([abs(e_hz) / k for k in widths])
        for intensity in (0.4, 0.8, 1.2):
            dc = TWO_PI * shift_slopes[label] * intensity * (1 - depth / 2)
            models = []
            for k, w in widths.items():
                m_signed = -k if omega_b > 0 else k
                models.append(ResonanceModel(a_bk=200.0, delta_m=TWO_PI * w,
                                             omega0=omega_b + dc, m=m_signed))
            seed += 1
            spec = synthesize_spectrum(models, grid, density=2.5e12,
                                       noise_sigma=noise, seed=seed,
                                       metadata={"field_G": b_field,
                                                 "intensity_W_cm2": intensity})
            scans.append((b_field, spec, intensity))
    return scans, truth


def test_criterion_09_full_pipeline_round_trip(tmp_path):
    """Registry -> synthetic spectra -> peaks -> Fano -> shift compensation ->
    energy map: 100 % correct state/m association, centers recovered within
    fit uncertainty, byte-identical reruns, < 2 min."""
    t0 = time.time()
    scans, truth = _pipeline_scans(tag_seed=1000)
    points = assemble_energy_map(scans, cesium_states())

    # noiseless, unshifted reference pipeline pins the zero-intensity centers
    scans_ref, _ = _pipeline_scans(tag_seed=5000, noise=0.0,
                                   shift_slopes={k: 0.0 for k in
                                                 ("4g(4)", "4d", "6s", "6g(6)")})
    points_ref = assemble_energy_map(scans_ref, cesium_states())
    ref_centers = {(p.B, p.state_label, abs(p.order_m)): abs(p.omega_res)
                   for p in points_ref}

    expected = {
        (19.41, "4g(4)", 1): (True, -1), (19.41, "4g(4)", 2): (True, -2),
        (47.50, "4d", 1): (True, -1),
        (18.20, "6g(6)", 1): (True, -1),
        (18.50, "6s", 1): (False, +1),
    }
    keys = {(p.B, p.state_label, abs(p.order_m)) for p in points}
    association_ok = keys == set(expected) and not any(p.flagged for p in points)
    center_ok = True
    worst = 0.0
    for p in points:
        key = (p.B, p.state_label, abs(p.order_m))
        bound_exp, m_exp = expected[key]
        association_ok &= (p.bound == bound_exp and p.order_m == m_exp)
        association_ok &= (p.omega_res < 0) == bound_exp
        ref = ref_centers[key]
        # fit uncertainty of the compensated center, with a small numerical
        # floor against underestimated 3-point intercept errors
        tol = max(5.0 * p.sigma, 50.0)
        worst = max(worst, abs(abs(p.omega_res) - ref) / max(tol, 1e-9))
        center_ok &= abs(abs(p.omega_res) - ref) <= tol
        # the compensated center also sits within the resonance width of the
        # generating pole (line-shape offset is bounded by the width)
        e_true = truth[(p.B, p.state_label)]
        center_ok &= abs(abs(p.omega_res) - abs(e_true) / abs(p.order_m)) \
            <= 4e3 / abs(p.order_m) + 5.0 * p.sigma

    # determinism: identical seeds give byte-identical spectra files
    scans_again, _ = _pipeline_scans(tag_seed=1000)
    f1, f2 = tmp_path / "a", tmp_path / "b"
    write_spectrum(scans[0][1], f1)
    write_spectrum(scans_again[0][1], f2)
    repro_ok = all(f1.with_suffix(ext).read_bytes() == f2.with_suffix(ext).read_bytes()
                   for ext in (".csv", ".json"))
    for (b1, s1, i1), (b2, s2, i2) in zip(scans, scans_again):
        repro_ok &= np.array_equal(s1.y, s2.y) and i1 == i2

    elapsed = time.time() - t0
    ok = association_ok and center_ok and repro_ok and elapsed < 120.0
    report(9, ok, f"{len(points)} peaks, association "
                  f"{'100%' if association_ok else 'WRONG'}, worst center "
                  f"deviation {worst:.2f}x tolerance, reruns "
                  f"{'byte-identical' if repro_ok else 'DIFFER'}, {elapsed:.1f} s")
    assert association_ok
    assert center_ok
    assert repro_ok
    assert elapsed < 120.0


def test_criterion_10_special_functions():
    """3-j/6-j match brute-force Racah/contraction oracles to 1e-12 on 500
    random small-j inputs; Bessel recurrence and sum rule to 1e-10."""
    rng = np.random.default_rng(2024)

    def random_j(top=4.0):
        return int(rng.integers(0, int(2 * top) + 1)) / 2.0

    def random_m(j):
        twice = int(round(2 * j))
        return (-twice + 2 * int(rng.integers(0, twice + 1))) / 2.0

    worst_3j = 0.0
    n_3j = 0
    while n_3j < 300:
        j1, j2 = random_j(), random_j()
        choices = np.arange(abs(j1 - j2), j1 + j2 + 0.5, 1.0)
        j3 = float(rng.choice(choices))
        m1, m2 = random_m(j1), random_m(j2)
        m3 = -m1 - m2
        if abs(m3) > j3:
            continue
        ref = wigner_3j_racah(j1, j2, j3, m1, m2, m3)
        val = wigner_3j(j1, j2, j3, m1, m2, m3)
        worst_3j = max(worst_3j, abs(val - ref) / max(1.0, abs(ref)))
        n_3j += 1

    worst_6j = 0.0
    n_6j = 0
    while n_6j < 200:
        j1, j2 = random_j(3.0), random_j(3.0)
        j3 = float(rng.choice(np.arange(abs(j1 - j2), j1 + j2 + 0.5, 1.0)))
        j4, j5 = random_j(3.0), random_j(3.0)
        lo = max(abs(j1 - j5), abs(j4 - j2))
        hi = min(j1 + j5, j4 + j2)
        cand = [x for x in np.arange(lo, hi + 0.5, 0.5)
                if (j1 + j5 + x) % 1 == 0 and (j4 + j2 + x) % 1 == 0]
        if not cand:
            continue
        j6 = float(rng.choice(cand))
        ref = wigner_6j_contraction(j1, j2, j3, j4, j5, j6)
        val = wigner_6j(j1, j2, j3, j4, j5, j6)
        worst_6j = max(worst_6j, abs(val - ref) / max(1.0, abs(ref)))
        n_6j += 1

    worst_rec = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        x = float(rng.uniform(0.1, 30.0))
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = 2.0 * n / x * bessel_j(n, x)
        worst_rec = max(worst_rec, abs(lhs - rhs) / max(1.0, abs(rhs)))

    worst_sum = 0.0
    for x in (0.5, 3.0, 12.0, 30.0, 50.0):
        total = bessel_j(0, x) ** 2 + 2.0 * sum(
            bessel_j(n, x) ** 2 for n in range(1, int(x) + 60))
        worst_sum = max(worst_sum, abs(total - 1.0))

    ok = worst_3j <= 1e-12 and worst_6j <= 1e-12 and worst_rec <= 1e-10 \
        and worst_sum <= 1e-10
    report(10, ok, f"3j err {worst_3j:.1e}, 6j err {worst_6j:.1e} (1e-12); "
                   f"recurrence {worst_rec:.1e}, sum rule {worst_sum:.1e} (1e-10)")
    assert worst_3j <= 1e-12
    assert worst_6j <= 1e-12
    assert worst_rec <= 1e-10
    assert worst_sum <= 1e-10
