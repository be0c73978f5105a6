"""Independent reference implementations used only by the tests.

These deliberately take different numerical routes from the package: the
Bessel oracle is a direct power series, the 3-j oracle does exact rational
arithmetic (fractions) with a single final square root, the 6-j oracle is
a brute-force contraction of four 3-j symbols over all magnetic quantum
numbers, and the Floquet oracle diagonalizes the truncated Floquet matrix
(Shirley, Phys. Rev. 138, B979 (1965)) instead of propagating over a period.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def bessel_series(n: int, x: float, terms: int = 120) -> float:
    """J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), summed directly."""
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0:
        x = -x
        if n % 2:
            sign = -sign
    half = x / 2.0
    term = half ** n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300):
            break
    return sign * total


def _fact(n) -> Fraction:
    if n != int(n) or n < 0:
        raise ValueError(f"bad factorial argument {n}")
    return Fraction(math.factorial(int(n)))


def wigner_3j_racah(j1, j2, j3, m1, m2, m3) -> float:
    """Racah sum with exact rational arithmetic, one final sqrt."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    if (j1 + j2 + j3) != int(j1 + j2 + j3):
        return 0.0
    t1 = j2 - j3 - m1
    t2 = j1 - j3 + m2
    t3 = j1 + j2 - j3
    t4 = j1 - m1
    t5 = j2 + m2
    tmin = int(max(0, t1, t2))
    tmax = int(min(t3, t4, t5))
    if tmax < tmin:
        return 0.0
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        denom = (_fact(t) * _fact(t - t1) * _fact(t - t2)
                 * _fact(t3 - t) * _fact(t4 - t) * _fact(t5 - t))
        s += Fraction((-1) ** t) / denom
    if s == 0:
        return 0.0
    radicand = (_fact(j1 + j2 - j3) * _fact(j1 - j2 + j3) * _fact(-j1 + j2 + j3)
                / _fact(j1 + j2 + j3 + 1)
                * _fact(j1 + m1) * _fact(j1 - m1)
                * _fact(j2 + m2) * _fact(j2 - m2)
                * _fact(j3 + m3) * _fact(j3 - m3))
    phase = (-1) ** int(round(j1 - j2 - m3))
    return phase * float(s) * math.sqrt(float(radicand))


def _m_range(j):
    twice = int(round(2 * j))
    return [k / 2.0 for k in range(-twice, twice + 1, 2)]


def wigner_6j_contraction(j1, j2, j3, j4, j5, j6) -> float:
    """Brute-force contraction of four 3-j symbols over all m combinations."""
    total = 0.0
    for m1 in _m_range(j1):
        for m2 in _m_range(j2):
            m3 = -m1 - m2
            if abs(m3) > j3:
                continue
            w1 = wigner_3j_racah(j1, j2, j3, m1, m2, m3)
            if w1 == 0.0:
                continue
            for m5 in _m_range(j5):
                m6 = m1 + m5
                if abs(m6) > j6:
                    continue
                w2 = wigner_3j_racah(j1, j5, j6, m1, m5, -m6)
                if w2 == 0.0:
                    continue
                m4 = m2 + m6
                if abs(m4) > j4:
                    continue
                w3 = wigner_3j_racah(j4, j2, j6, -m4, m2, m6)
                if w3 == 0.0:
                    continue
                w4 = wigner_3j_racah(j4, j5, j3, m4, -m5, m3)
                if w4 == 0.0:
                    continue
                phase = (-1.0) ** (j4 + j5 + j6 + m4 + m5 + m6)
                total += phase * w1 * w2 * w3 * w4
    return total


def floquet_matrix_pair(model, n_order=None):
    """Central quasi-energy pair of the truncated Floquet matrix of a
    modfesh.floquet.DrivenTwoLevel.

    Basis |level, n> with diagonal omega_level + n w, |n| <= n_order; the
    drive couples |beta, n> <-> |beta, n +- 1> with A/2 and Omega/2 couples
    the levels at equal n.  Returns (e1, e2): e1 the eigenvalue whose state
    has the largest |<alpha, 0|.>|^2, e2 the eigenvalue nearest it (its
    avoided-crossing partner).  The default n_order = 3 ceil(|A|/w) + 25
    holds every gap of the agreement grid in tests/test_floquet.py to
    1e-12 w (a 20-order larger matrix moves none by more).
    """
    if n_order is None:
        n_order = 3 * math.ceil(abs(model.A) / model.omega_mod) + 25
    n_ph = np.arange(-n_order, n_order + 1)
    size = 2 * (2 * n_order + 1)
    h = np.zeros((size, size))
    idx_a = 2 * np.arange(2 * n_order + 1)
    idx_b = idx_a + 1
    h[idx_a, idx_a] = model.omega_alpha + n_ph * model.omega_mod
    h[idx_b, idx_b] = model.omega_beta + n_ph * model.omega_mod
    h[idx_a, idx_b] = h[idx_b, idx_a] = model.Omega / 2.0
    h[idx_b[:-1], idx_b[1:]] = h[idx_b[1:], idx_b[:-1]] = model.A / 2.0
    evals, evecs = np.linalg.eigh(h)
    j1 = int(np.argmax(np.abs(evecs[2 * n_order, :]) ** 2))   # |alpha, n = 0>
    dist = np.abs(evals - evals[j1])
    dist[j1] = np.inf
    return float(evals[j1]), float(evals[int(np.argmin(dist))])
