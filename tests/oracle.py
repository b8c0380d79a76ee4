"""High-precision reference sums for discrete Gaussians on family cosets.

For the coset c F + t of a scaled Z^n, Dn or E8 lattice, coset_sums returns
the raw sum S = sum_x exp(-||x||^2 / 2 sigma^2) and the moment
M = sum_x exp(-||x||^2 / 2 sigma^2) ||x||^2 in `decimal` arithmetic at 60
digits, so the conditional power is M / S and the coset mass is
S / (2 pi sigma^2)^(n/2). No floating-point rounding enters after the
inputs, which are converted exactly.

Z^n is summed as line sums split by the parity of the integer coordinate,
combined by a two-state recursion over the coordinates; Dn keeps the even
total parity of that recursion, and E8 is D8 together with D8 + 1/2.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

DIGITS = 60


def _line(c, u, sigma2):
    """Parity-split sums over x = c k + u, k an integer: ((S_even, M_even),
    (S_odd, M_odd)), far enough out that the rest is below 10^-DIGITS."""
    centre = round(-float(u) / float(c))
    reach = math.ceil(math.sqrt(2 * (DIGITS + 10) * math.log(10) * float(sigma2)) / float(c)) + 2
    sums = [[Decimal(0), Decimal(0)], [Decimal(0), Decimal(0)]]
    for k in range(centre - reach, centre + reach + 1):
        x = c * k + u
        w = (-(x * x) / (2 * sigma2)).exp()
        sums[k & 1][0] += w
        sums[k & 1][1] += w * x * x
    return sums


def _parity_sums(c, t, sigma2):
    """(S, M) of c Z^n + t by the parity of sum(k): [(S_0, M_0), (S_1, M_1)]."""
    state = [(Decimal(1), Decimal(0)), (Decimal(0), Decimal(0))]
    for u in t:
        (se, me), (so, mo) = _line(c, u, sigma2)
        (s0, m0), (s1, m1) = state
        state = [(s0 * se + s1 * so, m0 * se + s0 * me + m1 * so + s1 * mo),
                 (s0 * so + s1 * se, m0 * so + s0 * mo + m1 * se + s1 * me)]
    return state


def coset_sums(family, c, t, sigma):
    """(S, M) as Decimals for the coset c F + t, F one of "Zn", "Dn", "E8"."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        c, sigma2 = Decimal(float(c)), Decimal(float(sigma)) ** 2
        t = [Decimal(float(v)) for v in t]
        if family == "Zn":
            (s0, m0), (s1, m1) = _parity_sums(c, t, sigma2)
            return s0 + s1, m0 + m1
        if family == "Dn":
            return _parity_sums(c, t, sigma2)[0]
        if family == "E8":
            s_a, m_a = _parity_sums(c, t, sigma2)[0]
            s_b, m_b = _parity_sums(c, [v + c / 2 for v in t], sigma2)[0]
            return s_a + s_b, m_a + m_b
        raise ValueError(f"no reference sums for family {family!r}")


def power(family, c, t, sigma):
    """E||X||^2 for X ~ D_{cF+t,sigma}, as a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s, m = coset_sums(family, c, t, sigma)
        return float(m / s)


def mass(family, c, t, sigma):
    """f_sigma(cF + t) = S / (2 pi sigma^2)^(n/2), as a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s, _ = coset_sums(family, c, t, sigma)
        return math.exp(float(s.ln()) - (len(t) / 2) * math.log(2 * math.pi * sigma**2))
