"""Self-contained special functions: integer-order Bessel J and Wigner 3-j/6-j symbols.

Angular momenta are tracked as doubled integers (``HalfInt``) so that
half-integer bookkeeping and triangle/parity selection rules are exact.
Wigner symbols sum Racah's closed forms exactly in rational arithmetic and
take one square root of the exact squared value (Johansson & Forssen, SIAM J.
Sci. Comput. 38, A376 (2016)); selection-rule zeros are exact ``0.0``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = ["HalfInt", "bessel_j", "wigner_3j", "wigner_6j"]

BESSEL_MAX_ORDER = 200
WIGNER_MAX_J = 200


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer, stored as twice its value."""

    twice: int

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        """Accept HalfInt, integers (numpy's too), float, Fraction or strings like '7/2'."""
        if isinstance(value, HalfInt):
            return value
        # int first: it skips the ~1 us abstract-class check on the common path
        if isinstance(value, (int, numbers.Integral)):
            return cls(2 * int(value))
        if isinstance(value, str):
            try:
                # Fraction would expand an exponent ('1e999999999') into a huge integer
                if "e" in value.lower():
                    raise ValueError(value)
                value = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"cannot interpret {value!r} as a half-integer") from None
        if isinstance(value, Fraction):
            if value.denominator not in (1, 2):
                raise DomainError(f"{value} is not a half-integer")
            return cls(int(value * 2))
        if isinstance(value, float):
            if not math.isfinite(value) or abs(2 * value - round(2 * value)) > 1e-9:
                raise DomainError(f"{value} is not a half-integer")
            return cls(round(2 * value))
        raise DomainError(f"cannot interpret {value!r} as a half-integer")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order, real argument
# ---------------------------------------------------------------------------

def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, |n| <= 200, by normalized downward recurrence.

    Miller's algorithm: run j_{k-1} = (2k/x) j_k - j_{k+1} downward from a
    start order well above max(n, x) and normalize with
    J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.  Relative accuracy is ~1e-13 for
    |x| <= 50 (away from zeros of J_n, where absolute accuracy ~1e-15 holds).
    """
    if n != int(n):
        raise DomainError(f"Bessel order must be an integer, got {n}")
    n = int(n)
    if abs(n) > BESSEL_MAX_ORDER:
        raise DomainError(f"|n| = {abs(n)} exceeds supported order {BESSEL_MAX_ORDER}")
    if not math.isfinite(x):
        raise DomainError(f"Bessel argument must be finite, got {x}")

    sign = 1.0
    if n < 0:
        # J_{-n}(x) = (-1)^n J_n(x)
        n = -n
        if n % 2:
            sign = -sign
    if x < 0:
        # J_n(-x) = (-1)^n J_n(x)
        x = -x
        if n % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if n == 0 else 0.0

    top = max(n, int(x))
    m_start = top + 60 + int(1.5 * math.sqrt(top) + 0.5)
    if m_start % 2:
        m_start += 1

    j_up = 0.0        # j_{k+1}
    j_cur = 1e-280    # j_k, arbitrary seed at k = m_start
    norm = 0.0        # accumulates j_0 + 2 sum_{even k > 0} j_k
    out = math.nan
    k = m_start
    while k > 0:
        j_down = (2.0 * k / x) * j_cur - j_up
        if k % 2 == 0:
            norm += 2.0 * j_cur
        if k == n:
            out = j_cur
        j_up = j_cur
        j_cur = j_down
        k -= 1
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_up *= 1e-250
            norm *= 1e-250
            if not math.isnan(out):
                out *= 1e-250
    if n == 0:
        out = j_cur
    norm += j_cur
    return sign * out / norm


# ---------------------------------------------------------------------------
# Wigner symbols (Racah closed forms in exact rational arithmetic)
# ---------------------------------------------------------------------------

def _doubled_js(*js) -> list:
    """Doubled angular momenta, checked against 0 <= j <= WIGNER_MAX_J before
    the Racah sums build any factorial."""
    twice = [HalfInt.coerce(j).twice for j in js]
    if min(twice) < 0:
        raise DomainError("angular momenta must be non-negative")
    if max(twice) > 2 * WIGNER_MAX_J:
        raise DomainError(f"j = {HalfInt(max(twice))} exceeds supported {WIGNER_MAX_J}")
    return twice


def _triangle_ok(a: int, b: int, c: int) -> bool:
    """Triangle rule for doubled angular momenta, including parity."""
    return (abs(a - b) <= c <= a + b) and (a + b + c) % 2 == 0


def _delta(a: int, b: int, c: int) -> tuple:
    """Triangle coefficient Delta(abc) for doubled arguments, as the exact
    (numerator, denominator) pair of integers."""
    fact = math.factorial
    return (fact((a + b - c) // 2) * fact((a - b + c) // 2) * fact((-a + b + c) // 2),
            fact((a + b + c) // 2 + 1))


def _racah_sum(lows, highs, weight=lambda t: 1) -> tuple:
    """Racah's alternating sum over max(lows) <= t <= min(highs) of
    (-1)^t weight(t) / (prod (t - lo)! prod (hi - t)!), exactly, as an integer
    over a common denominator that every term's denominator divides.  The
    callers' selection rules (triangle, |m| <= j, sum m = 0) make each
    hi - lo a triangle or |m| <= j difference, so the range is never empty."""
    tmin, tmax = max(lows), min(highs)
    fact = math.factorial
    common = math.prod(fact(tmax - lo) for lo in lows) * math.prod(fact(hi - tmin) for hi in highs)
    total = sum((-1 if t % 2 else 1) * weight(t) * common
                // math.prod(fact(t - lo) for lo in lows)
                // math.prod(fact(hi - t) for hi in highs)
                for t in range(tmin, tmax + 1))
    return total, common


def _signed_sqrt(total: int, common: int, num: int, den: int, phase: int) -> float:
    """phase * (total / common) * sqrt(num / den), rounded once from the exact
    square: int / int true division is correctly rounded.  The sign comes from
    the integer sum: past j ~ 150 the sum alone overflows a float."""
    if total == 0:
        return 0.0
    sign = phase if total > 0 else -phase
    return sign * math.sqrt(total * total * num / (common * common * den))


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol (j1 j2 j3 / m1 m2 m3) via the Racah formula.

    Arguments may be HalfInt, int, float or '7/2'-style strings.  Violated
    selection rules (triangle, m-sum, |m| <= j) give exact 0.0; inconsistent
    half-integers (j + m not an integer) and j > WIGNER_MAX_J raise
    DomainError.
    """
    tj1, tj2, tj3 = _doubled_js(j1, j2, j3)
    tm1, tm2, tm3 = (HalfInt.coerce(m).twice for m in (m1, m2, m3))
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if (tj + tm) % 2:
            raise DomainError("j + m must be an integer for each column")
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0

    total, common = _racah_sum(
        (0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2),
        ((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2))
    num, den = _delta(tj1, tj2, tj3)
    num *= math.prod(math.factorial((tj + sign * tm) // 2)
                     for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)) for sign in (1, -1))
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return _signed_sqrt(total, common, num, den, phase)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6-j symbol {j1 j2 j3 / j4 j5 j6} via the Racah formula.

    Returns exact 0.0 when any of the four triads (j1 j2 j3), (j1 j5 j6),
    (j4 j2 j6), (j4 j5 j3) violates the triangle rule; j > WIGNER_MAX_J
    raises DomainError.
    """
    ta, tb, tc, td, te, tf = _doubled_js(j1, j2, j3, j4, j5, j6)
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for a, b, c in triads:
        if not _triangle_ok(a, b, c):
            return 0.0

    total, common = _racah_sum(
        [(a + b + c) // 2 for a, b, c in triads],
        [(ta + tb + td + te) // 2, (tb + tc + te + tf) // 2, (ta + tc + td + tf) // 2],
        lambda t: math.factorial(t + 1))
    deltas = [_delta(a, b, c) for a, b, c in triads]
    return _signed_sqrt(total, common, math.prod(n for n, _ in deltas),
                        math.prod(d for _, d in deltas), 1)
