"""Build the Chebyshev table of err_inv(E8, eps) that `montecarlo.find_err_inv` ships.

    PYTHONPATH=src python3 tools/e8_err_inv_table.py

Prints the coefficients of s(v), v = sqrt(-log eps) on [sqrt(log 2),
sqrt(log 1e6)], that is eps in [1e-6, 0.5], as
`np.polynomial.chebyshev.chebval` reads them after the affine map of v onto
[-1, 1]; then the residual |1 - G(s(eps)) - eps| of the exact quadrature on
a check grid, and how far the table shipped in `latgauss.montecarlo` is from
the printed one. The variable is v rather than log eps because s has a
branch point at eps = 1 (s^8 ~ 1 - eps): in log eps the coefficients fall
only about 0.64x a step, in v about 0.33x.

The quadrature. z ~ N(0, I_8), a_i = |z_i| iid half-normal (density f, CDF
F), a(1) >= ... >= a(8). By the E8 closed form of the critical scale, z lies
inside V(s E8) iff a(1) + a(2) <= s and (sum a - 2 a(8) [odd]) / 2 <= s,
where [odd] is the parity of the negative signs. That parity is odd with
probability 1/2, independent of |z|, so

    G(s) = (A + B) / 2,
    A = P[a(1) + a(2) <= s, sum a <= 2s],
    B = P[a(1) + a(2) <= s, sum a - 2 a(8) <= 2s].

Condition on the largest a(1) = m, and for B also on the smallest a(8) = u.
With c = min(m, s - m), the others are iid N(0, 1) restricted to [0, c]
(A, seven of them) or [u, c] (B, six of them):

    A = 8 int_0^s f(m) F(c)^7 H_7(2s - m; 0, c) dm,
    B = 56 int_0^s f(m) int_0^c f(u) (F(c) - F(u))^6 H_6(2s - m + u; u, c) du dm,

where H_k(x; lo, hi) is the CDF of a sum of k such variables. Its support is
[k lo, k hi], of length L, so with Y = S - k lo the cosine series of the
indicator gives H_k = y/L + sum_j 2/(j pi) sin(j pi y/L) Re E[e^{i w_j Y}],
w_j = j pi / L, over 400 terms. The characteristic function uses the stable
form, w = scipy.special.wofz:

    int_lo^hi phi(x) e^{iwx} dx
        = [e^{-lo^2/2 + iw lo} w((w + i lo)/sqrt2) - e^{-hi^2/2 + iw hi} w((w + i hi)/sqrt2)] / 2.

Both integrals are Gauss-Legendre on pieces: m splits at s/4, s/3, s/2,
2s/3, 3s/4 and 5s/6 (the kinks of c and of the supports), u at (2s - m)/5
(above it H_6 = 0) and 6c - 2s + m (above it H_6 = 1).

Checks, on 2 CPUs (numpy 2.4.6, scipy 1.17.1): G(4.7628) = 0.95001920489;
the defaults (32 x 32 nodes a piece, 400 terms) agree with 64 x 56 nodes and
800 terms to 2e-14 in G at s = 3.25, 4.7628 and 8.14. One evaluation takes
about 0.6 s and the script 68 s. Over 44 eps (41 log-spaced in [1e-6, 0.5],
and 0.01, 0.05, 0.2) the table's largest residual |1 - G - eps| is 5.6e-14
and its largest relative residual 2.5e-10, which is the rounding of G near
1 at eps 1e-6. Two runs print the same table.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy import special

SQRT2 = math.sqrt(2.0)
V_RANGE = (math.sqrt(math.log(2.0)), math.sqrt(math.log(1e6)))  # eps 0.5 .. 1e-6
S_FIT = (3.2, 8.2)  # contains err_inv(E8, eps) for every eps in the range
FIT_NODES = 40
TABLE_DEGREE = 27


def _cdf(x):
    return special.erf(x / SQRT2)


def _pdf(x):
    return math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x)


def _tail(x, w):
    """2 e^{-iwx} int_x^inf phi(t) e^{iwt} dt, rows x, columns w."""
    return np.exp(-0.5 * x * x)[:, None] * special.wofz((w + 1j * x[:, None]) / SQRT2)


def sum_cdf(k, x, lo, hi, terms=400, chunk=2048):
    """P[X_1 + ... + X_k <= x] for iid N(0, 1) restricted to [lo, hi].

    x, lo and hi broadcast together; 0 <= lo < hi elementwise.
    """
    x, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, lo, hi)))
    shape = x.shape
    x, lo, hi = x.ravel(), lo.ravel(), hi.ravel()
    out = np.clip((x - k * lo) / (k * (hi - lo)), 0.0, 1.0)
    inside = np.flatnonzero((out > 0) & (out < 1))
    j = np.arange(1, terms + 1)
    for a in range(0, inside.size, chunk):
        idx = inside[a:a + chunk]
        l, width = lo[idx], hi[idx] - lo[idx]
        w = np.pi * j / (k * width[:, None])
        num = _tail(l, w) - np.exp(1j * w * width[:, None]) * _tail(hi[idx], w)
        norm = special.erfc(l / SQRT2) - special.erfc(hi[idx] / SQRT2)
        char = ((num / norm[:, None]) ** k).real  # E cos(w (S - k lo))
        y = (x[idx] - k * l)[:, None]
        out[idx] += (2.0 / (np.pi * j) * np.sin(w * y) * char).sum(axis=1)
    return out.reshape(shape)


def _legendre(lo, hi, nodes):
    """Gauss-Legendre points and weights on [lo, hi] for each row of lo, hi."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = (hi - lo)[..., None] / 2
    return (lo + hi)[..., None] / 2 + half * x, half * w


def e8_cdf(s, terms=400, m_nodes=32, u_nodes=32):
    """G(s) = Pr[N(0, I_8) lies inside V(s E8)] by the quadrature above."""
    cuts = s * np.array([0, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, 5 / 6, 1])
    m, wm = (v.ravel() for v in _legendre(cuts[:-1], cuts[1:], m_nodes))
    c = np.minimum(m, s - m)
    wm = wm * _pdf(m)
    a = 8 * np.dot(wm, _cdf(c) ** 7 * sum_cdf(7, 2 * s - m, 0.0, c, terms))
    top = np.minimum(c, (2 * s - m) / 5)
    mid = np.clip(6 * c - 2 * s + m, 0.0, top)
    u, wu = (np.concatenate(v, axis=1) for v in zip(
        _legendre(np.zeros_like(m), mid, u_nodes), _legendre(mid, top, u_nodes)))
    cc = c[:, None]
    inner = _pdf(u) * (_cdf(cc) - _cdf(u)) ** 6 * sum_cdf(6, 2 * s - m[:, None] + u, u, cc, terms)
    b = 56 * np.dot(wm, (wu * inner).sum(axis=1))
    return 0.5 * (a + b)


def _from_unit(t, lo, hi):
    return lo + (t + 1) * (hi - lo) / 2


def build_table():
    """Coefficients of s(v), v = sqrt(-log eps) on V_RANGE.

    A 40-node Chebyshev fit of log(1 - G) in s gives s at the table's nodes
    by bisection; one Newton step on the quadrature, with the fit's
    derivative, then polishes each node.
    """
    t = C.chebpts1(FIT_NODES)
    log_tail = C.chebfit(t, [math.log1p(-e8_cdf(v)) for v in _from_unit(t, *S_FIT)],
                         FIT_NODES - 1)
    slope = C.chebder(log_tail) * 2 / (S_FIT[1] - S_FIT[0])
    v = _from_unit(C.chebpts1(TABLE_DEGREE + 1), *V_RANGE)
    eps = np.exp(-v * v)
    lo, hi = np.full_like(v, -1.0), np.full_like(v, 1.0)
    for _ in range(60):  # log(1 - G) falls with s
        mid = (lo + hi) / 2
        above = C.chebval(mid, log_tail) > np.log(eps)
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    u = (lo + hi) / 2
    tail = np.array([1 - e8_cdf(x) for x in _from_unit(u, *S_FIT)])
    s = _from_unit(u, *S_FIT) - (tail - eps) / (tail * C.chebval(u, slope))
    return C.chebfit(C.chebpts1(TABLE_DEGREE + 1), s, TABLE_DEGREE), log_tail


def table_s(coef, eps):
    v = np.sqrt(-np.log(eps))
    return C.chebval((2 * v - sum(V_RANGE)) / (V_RANGE[1] - V_RANGE[0]), coef)


def main():
    t0 = time.monotonic()
    coef, log_tail = build_table()
    np.set_printoptions(precision=1, linewidth=78)
    print(f"# |coefficients| of the log(1 - G) fit on s in {S_FIT}:\n{np.abs(log_tail)}")
    print(f"# |coefficients| of the table:\n{np.abs(coef)}")
    print("_E8_ERR_INV = (")
    for i in range(0, coef.size, 3):
        print("    " + " ".join(f"{float(v)!r}," for v in coef[i:i + 3]))
    print(")")
    grid = np.unique(np.concatenate([np.geomspace(1e-6, 0.5, 41), [0.01, 0.05, 0.2]]))
    resid = np.array([1 - e8_cdf(table_s(coef, e)) - e for e in grid])
    print(f"# residual |1 - G - eps| over {grid.size} eps: max {np.abs(resid).max():.2g}, "
          f"max relative {np.abs(resid / grid).max():.2g}")
    for e in (0.01, 0.05, 0.2):
        print(f"# eps {e}: s = {table_s(coef, e):.12f}")
    from latgauss.montecarlo import _E8_ERR_INV

    shipped = np.asarray(_E8_ERR_INV)
    diff = np.abs(table_s(shipped, grid) - table_s(coef, grid)).max()
    print(f"# shipped table vs this one: max |ds| {diff:.2g} on the check grid")
    print(f"# {time.monotonic() - t0:.0f} s")


if __name__ == "__main__":
    main()
