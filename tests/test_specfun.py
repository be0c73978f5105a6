import math

import numpy as np
import pytest

from modfesh.errors import DomainError
from modfesh.specfun import WIGNER_MAX_J, HalfInt, bessel_j, wigner_3j, wigner_6j

from oracles import bessel_series, wigner_3j_racah, wigner_6j_contraction

# frozen from the power-series oracle (bessel_series(2, 1.0), 30-digit mpmath
# agrees: 0.114903484931900480...)
J2_AT_1 = 0.11490348493190048
J1_AT_1 = 0.44005058574493352


class TestHalfInt:
    def test_coerce_forms(self):
        assert HalfInt.coerce(3).twice == 6
        assert HalfInt.coerce(np.int64(3)) == HalfInt(6)
        assert type(HalfInt.coerce(np.int64(3)).twice) is int
        assert HalfInt.coerce(3.5).twice == 7
        assert HalfInt.coerce("7/2").twice == 7
        assert HalfInt.coerce(HalfInt(5)).twice == 5

    def test_rejects_non_half_integers(self):
        with pytest.raises(DomainError):
            HalfInt.coerce(0.3)
        with pytest.raises(DomainError):
            HalfInt.coerce("1/3")
        for value in (math.nan, math.inf, -math.inf, "abc", "1/0", "1e400000"):
            with pytest.raises(DomainError):
                HalfInt.coerce(value)

    def test_str(self):
        assert str(HalfInt(7)) == "7/2"
        assert str(HalfInt(6)) == "3"


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_jn_at_zero(self):
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(7, 0.0) == 0.0

    def test_against_series_oracle(self):
        assert bessel_j(2, 1.0) == pytest.approx(J2_AT_1, rel=1e-13)
        assert bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 30))
            x = float(rng.uniform(0.0, 10.0))
            ref = bessel_series(n, x)
            assert bessel_j(n, x) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_negative_order_parity(self):
        for n in range(0, 12):
            for x in (0.3, 2.7, 9.1):
                assert bessel_j(-n, x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-15)

    def test_negative_argument_parity(self):
        for n in (0, 1, 2, 5):
            assert bessel_j(n, -3.3) == pytest.approx((-1) ** n * bessel_j(n, 3.3), abs=1e-15)

    def test_recurrence(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 51))
            x = float(rng.uniform(0.1, 30.0))
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = 2.0 * n / x * bessel_j(n, x)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_sum_rule(self):
        # J_0^2 + 2 sum_{n>=1} J_n^2 = 1
        for x in (0.5, 3.0, 12.0, 30.0, 50.0):
            total = bessel_j(0, x) ** 2
            n_top = int(x) + 60
            total += 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, n_top))
            assert abs(total - 1.0) < 1e-10

    def test_high_order_scipy_crosscheck(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(0, 201))
            x = float(rng.uniform(1e-3, 50.0))
            ref = float(scipy_special.jv(n, x))
            if abs(ref) < 1e-200:
                continue
            assert bessel_j(n, x) == pytest.approx(ref, rel=5e-12, abs=1e-14)

    @pytest.mark.parametrize("n,x", [(100, 0.1), (60, 1e-3), (30, 1e-6), (5, 1e-20)])
    def test_rescaled_recurrence_scipy_crosscheck(self, n, x):
        """A small x grows the downward recurrence past 1e250, where it is
        rescaled, order n included, before it overflows."""
        ref = float(pytest.importorskip("scipy.special").jv(n, x))
        assert bessel_j(n, x) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            bessel_j(201, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-201, 1.0)

    def test_non_finite_argument(self):
        with pytest.raises(DomainError):
            bessel_j(0, math.inf)
        with pytest.raises(DomainError):
            bessel_j(0, math.nan)


def _random_triad(rng, j_max_twice=8):
    """Random (j1, j2, j3) satisfying the triangle rule, as floats."""
    tj1 = int(rng.integers(0, j_max_twice + 1))
    tj2 = int(rng.integers(0, j_max_twice + 1))
    lo, hi = abs(tj1 - tj2), tj1 + tj2
    choices = list(range(lo, hi + 1, 2))
    tj3 = int(rng.choice(choices))
    return tj1 / 2.0, tj2 / 2.0, tj3 / 2.0


def _random_m(rng, j):
    """Random m in {-j, -j+1, ..., j} with the parity of j."""
    twice = int(round(2 * j))
    return (-twice + 2 * int(rng.integers(0, twice + 1))) / 2.0


class TestWigner3j:
    def test_known_value(self):
        assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)

    def test_m_sum_rule_zero(self):
        assert wigner_3j(1, 1, 1, 1, 1, 1) == 0.0

    def test_triangle_violation_zero(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0
        assert wigner_3j(5, 1, 2, 0, 0, 0) == 0.0

    def test_invalid_half_integers(self):
        # j = 1/2 with integer m: j + m not an integer
        with pytest.raises(DomainError):
            wigner_3j(0.5, 0.5, 1, 0, 0, 0)
        with pytest.raises(DomainError):
            wigner_3j(1, 1, 1, 0.5, -0.5, 0)

    def test_against_racah_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 300:
            j1, j2, j3 = _random_triad(rng)
            m1 = _random_m(rng, j1)
            m2 = _random_m(rng, j2)
            m3 = -m1 - m2
            if abs(m3) > j3:
                continue
            ref = wigner_3j_racah(j1, j2, j3, m1, m2, m3)
            val = wigner_3j(j1, j2, j3, m1, m2, m3)
            assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))
            checked += 1

    def test_orthogonality(self):
        # at fixed m3:
        # sum_{m1} (2 j3 + 1) 3j(j1 j2 j3; m1 m2 m3) 3j(j1 j2 j3'; m1 m2 m3) = delta_{j3 j3'}
        rng = np.random.default_rng(5)
        for _ in range(20):
            j1, j2, j3 = _random_triad(rng, j_max_twice=6)
            j3p_choices = [t / 2.0 for t in range(int(2 * abs(j1 - j2)), int(2 * (j1 + j2)) + 1, 2)]
            j3p = float(rng.choice(j3p_choices))
            j_lo = min(j3, j3p)
            if j_lo == 0:
                m3 = 0.0
            else:
                m3 = _random_m(rng, j_lo)
            total = 0.0
            twice1 = round(2 * j1)
            for t1 in range(-twice1, twice1 + 1, 2):
                m1 = t1 / 2.0
                m2 = -m1 - m3
                if abs(m2) > j2:
                    continue
                total += (2 * j3 + 1) * wigner_3j(j1, j2, j3, m1, m2, m3) \
                    * wigner_3j(j1, j2, j3p, m1, m2, m3)
            expected = 1.0 if j3 == j3p else 0.0
            assert total == pytest.approx(expected, abs=1e-11)

    def test_large_j_stable(self):
        # the exact Racah sum stays finite and accurate at j ~ 100
        val = wigner_3j(100, 100, 100, 2, -5, 3)
        assert math.isfinite(val)
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        ref = float(sympy_wigner.wigner_3j(100, 100, 100, 2, -5, 3))
        assert val == pytest.approx(ref, rel=1e-9)


class TestWigner6j:
    def test_zero_argument_reduction(self):
        # {0 j j; k l l} = (-1)^(j+k+l) / sqrt((2j+1)(2l+1))
        for j, k, l in ((2, 1, 2), (1, 1, 1), (3, 2, 4)):
            expected = (-1.0) ** (j + k + l) / math.sqrt((2 * j + 1) * (2 * l + 1))
            assert wigner_6j(0, j, j, k, l, l) == pytest.approx(expected, rel=1e-13)

    def test_known_value(self):
        # frozen from the contraction oracle (and equal to the exact 1/6)
        assert wigner_6j(1, 1, 1, 1, 1, 1) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_triad_violation_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner_6j(0.5, 1.5, 2, 1.5, 0.5, 3) == 0.0

    def test_against_contraction_oracle(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 200:
            j1, j2, j3 = _random_triad(rng, j_max_twice=6)
            j4, j5 = [int(rng.integers(0, 7)) / 2.0 for _ in range(2)]
            j6_choices = set()
            for lo, hi in (((abs(j1 - j5)), j1 + j5), (abs(j4 - j2), j4 + j2)):
                j6_choices.update(t / 2.0 for t in range(int(2 * lo), int(2 * hi) + 1, 2))
            if not j6_choices:
                continue
            j6 = float(rng.choice(sorted(j6_choices)))
            ref = wigner_6j_contraction(j1, j2, j3, j4, j5, j6)
            val = wigner_6j(j1, j2, j3, j4, j5, j6)
            assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))
            checked += 1

    def test_column_permutation_symmetry(self):
        rng = np.random.default_rng(21)
        import itertools
        for _ in range(30):
            j1, j2, j3 = _random_triad(rng, j_max_twice=5)
            j4, j5 = 1.0, 1.5
            # choose j6 compatible with triads (j1 j5 j6) and (j4 j2 j6)
            cand = [t / 2.0 for t in range(0, 14)]
            j6 = next((c for c in cand
                       if abs(j1 - j5) <= c <= j1 + j5 and abs(j4 - j2) <= c <= j4 + j2
                       and (j1 + j5 + c) % 1 == 0 and (j4 + j2 + c) % 1 == 0), None)
            if j6 is None:
                continue
            base = wigner_6j(j1, j2, j3, j4, j5, j6)
            cols = [(j1, j4), (j2, j5), (j3, j6)]
            for perm in itertools.permutations(cols):
                tops = [c[0] for c in perm]
                bots = [c[1] for c in perm]
                assert wigner_6j(*tops, *bots) == pytest.approx(base, abs=1e-13)

    def test_upper_lower_swap_symmetry(self):
        # swapping upper and lower arguments in two columns leaves the value
        base = wigner_6j(1, 2, 3, 2, 1, 2)
        assert wigner_6j(2, 1, 3, 1, 2, 2) == pytest.approx(base, rel=1e-13)

    def test_large_j_stable(self):
        val = wigner_6j(80, 80, 80, 80, 80, 80)
        assert math.isfinite(val)
        # past j ~ 150 the Racah sum alone overflows a float; the symbol does not
        val = wigner_6j(200, 200, 200, 200, 200, 200)
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        ref = float(sympy_wigner.wigner_6j(200, 200, 200, 200, 200, 200))
        assert val == pytest.approx(ref, rel=1e-12)


class TestWignerLimits:
    def test_j_above_cap_is_a_domain_error(self):
        over = WIGNER_MAX_J + 0.5
        with pytest.raises(DomainError):
            wigner_3j(over, 1, over - 1, 0.5, 0, -0.5)
        with pytest.raises(DomainError):
            wigner_6j(1, 1, 1, over, over, over)
        assert wigner_3j(WIGNER_MAX_J, 1, WIGNER_MAX_J, 1, 0, -1) != 0.0

    def test_correctly_rounded_within_one_ulp(self):
        """Every cesium 3-j (F 1 F'; m p -m-p) and 200 seeded non-zero 6-j with
        doubled arguments <= 8 lie within 1 ulp of sympy's exact value."""
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        def exact(fn, *twice):
            return float(fn(*(Rational(t, 2) for t in twice)).evalf(30))

        def within_ulp(val, ref):
            return abs(val - ref) <= math.ulp(ref)

        for f in (3, 4):
            for fp in (f - 1, f, f + 1):
                for p in (-1, 0, 1):
                    for m in range(-f, f + 1):
                        twice = (2 * f, 2, 2 * fp, 2 * m, 2 * p, -2 * (m + p))
                        val = wigner_3j(*(HalfInt(t) for t in twice))
                        assert within_ulp(val, exact(sympy_wigner.wigner_3j, *twice)), twice
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 200:
            twice = ta, tb, tc, td, te, tf = tuple(int(t) for t in rng.integers(0, 9, size=6))
            if any(sum(triad) % 2 for triad in ((ta, tb, tc), (ta, te, tf),
                                                 (td, tb, tf), (td, te, tc))):
                continue            # sympy refuses a triad of odd perimeter
            ref = exact(sympy_wigner.wigner_6j, *twice)
            if ref == 0.0:
                continue
            assert within_ulp(wigner_6j(*(HalfInt(t) for t in twice)), ref), twice
            checked += 1
