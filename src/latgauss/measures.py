"""Gaussian measures restricted to lattice cosets.

Three routines hold every sum over a coset, one role each:

* coset_blocks, the one front door for every coset law D_{Lambda+t,sigma}:
  batch masses and powers (batch_coset_stats), every draw, the dither
  audits, the rate proxy, `measure`'s mass, the identity route of
  entropy_exact, the effective-noise density and the Siegel mean.
* _centred_sum, the one certified centred theta sum.
* enumerate_masses, the enumerated reference law, for the discrete
  sampling suite's expected counts and the tests.

coset_blocks accepts any shift, since the law depends only on the coset,
and decodes every row to the Voronoi cell. The closed-form families (Zn,
Dn and E8, at any scale) then compute each row's law with a factorized
kernel over a window of integers per coordinate: Z^n is a product of line
laws, Dn a two-state parity recursion over the coordinates, and E8 = D8 u
(D8 + 1/2) two such recursions combined by mass; each row's window is
certified against that row's own coset mass. Generic lattices
(padded_coset_support) enumerate a single ball for all rows, padded by the
largest reduced row's norm. Every consumer reads blocks of rows and never
branches on the lattice.

Enumerated balls take their radius from the exponential norm tail

    Pr[ ||X||^2 / (2 n sigma^2) >= t ] <= exp(-n t + (n/2) log(2 t e)),  t >= 1,

so the neglected tail is provably below the requested relative tolerance.
For shifted cosets the bound controls the tail relative to the centred
sum; the radius is enlarged by the certified ratio between the two masses,
with a conservative factor-two slack throughout. Sums are accumulated with
exact (fsum) summation after factoring out the largest exponent, which
keeps tiny masses meaningful and makes results independent of enumeration
order.

_centred_sum gives the log of sum_{x in Lambda} exp(-||x||^2 / 2 sigma^2)
over the certified centred ball (enumerate_masses' log_raw_sum at the
origin, bit for bit), its part off the origin, and the tail. The
shifted-law radius, the zero-point probability mass, the smoothing
function g(s) and the upper flatness bound all take it from there. On top
of the coset law: exact entropy via two independent routes
(coset_entropy's mass/second-moment identity on the kernel or padded
support, and a direct -sum p log p over an enumerated ball) and the
sampled lower flatness bound. Two more back the paper's argument: the
folded effective-noise density of the MMSE-scaled channel, and a
Siegel-style mean of f_sigma over random mod-p lattices (the AWGN-good
ensemble); demo 03 prints both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, InternalMismatch, InvalidParams
from .lattices import (
    Lattice,
    closest_point,
    decode_batch,
    dual,
    enumerate_coset,
    mod_lattice,
    scale_lattice,
    standard_lattice,
)


@dataclass(frozen=True)
class DiscreteGaussianSpec:
    """Truncated discrete Gaussian D_{Lambda+shift,sigma}, enumerated whole.

    The enumerated reference law: support sorted by decreasing mass, which
    carries at least (1 - tail) of the full coset mass, and
    log_raw_sum is log sum exp(-||x||^2 / 2 sigma^2) over it, from which
    the coset's mass, power and entropy follow.
    """

    lattice: Lattice
    shift: np.ndarray
    sigma: float
    radius: float
    tail: float
    coords: np.ndarray  # (m, n) int64, X = shift + embed(coords)
    points: np.ndarray  # (m, n) float, the coset points themselves
    probs: np.ndarray
    log_raw_sum: float

    @property
    def mass(self) -> float:
        """f_sigma(Lambda + shift), certified to the support's tail."""
        log_norm = (self.lattice.n / 2) * math.log(2 * math.pi * self.sigma**2)
        return math.exp(self.log_raw_sum - log_norm)

    @property
    def power(self) -> float:
        """Exact conditional second moment E[||X||^2]."""
        return float((self.probs * (self.points**2).sum(axis=1)).sum())

    @property
    def entropy(self) -> float:
        """Entropy in nats, by coset_entropy."""
        return float(coset_entropy(self.mass, self.power, self.sigma, self.lattice.n))


@dataclass(frozen=True)
class FlatnessBracket:
    lower: float  # max over sampled cell points of |V f_sigma(Lambda+x) - 1|
    upper: float  # dual theta tail, a rigorous upper bound on the flatness
    samples: int


@dataclass(frozen=True)
class SmoothingResult:
    s: float
    eps: float
    residual: float  # |g(s) - eps|


def coset_entropy(mass, power, sigma, n):
    """Entropy (nats) of D_{Lambda+t,sigma}: log raw mass + power / 2 sigma^2."""
    return np.log(mass) + (n / 2) * math.log(2 * math.pi * sigma**2) + power / (2 * sigma**2)


def _tail_h(t):
    return -t + 0.5 * math.log(2 * math.e * t)


def _solve_tail_t(n, log_target):
    """Smallest t >= 1 with n * h(t) <= log_target, h(t) = -t + log(2 e t)/2.

    By the norm tail bound in the module docstring, the ball of radius
    sigma * sqrt(2 n t) then misses at most exp(log_target) of the centered
    Gaussian mass. h is strictly decreasing on t >= 1.
    """
    if n * _tail_h(1.0) <= log_target:
        return 1.0
    lo, hi = 1.0, 2.0
    while n * _tail_h(hi) > log_target:
        hi *= 2.0
        if hi > 1e9:
            raise InvalidParams("tail target unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if n * _tail_h(mid) > log_target:
            lo = mid
        else:
            hi = mid
    return hi


def _check_sigma(sigma):
    if not (sigma > 0 and np.isfinite(sigma)):
        raise InvalidParams(f"sigma must be positive and finite, got {sigma}")


def gaussian_pdf(sigma, x):
    """Isotropic Gaussian density f_sigma evaluated at x (last axis = dim)."""
    _check_sigma(sigma)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    norm2 = (x * x).sum(axis=-1)
    return np.exp(-norm2 / (2 * sigma**2)) / (2 * np.pi * sigma**2) ** (n / 2)


def _certified_radius(lat, rnorm2, sigma, rel_tol):
    """(radius, tail): a ball around a coset point of squared norm rnorm2
    that misses at most tail <= rel_tol of the coset's mass.

    Centered, the norm tail bound applies directly. Shifted, it controls
    the tail relative to the centered sum, which is certified to rel_tol / 2
    and so is at most (1 + rel_tol) times its enumerated value, and the
    nearest-point weight alone lower-bounds the coset sum.
    """
    if rnorm2 <= (1e-12 * sigma) ** 2:
        log_target = math.log(rel_tol / 2)
        log_extra = 0.0
    else:
        log_m0 = -rnorm2 / (2 * sigma**2)
        log_rho_c = _centred_sum(lat, sigma, rel_tol / 2)[0] + math.log1p(rel_tol)
        log_target = math.log(rel_tol / 4) + log_m0 - log_rho_c
        log_extra = log_rho_c - log_m0
    t = _solve_tail_t(lat.n, log_target)
    tail = 2 * math.exp(min(lat.n * _tail_h(t) + log_extra, math.log(rel_tol / 2)))
    return sigma * math.sqrt(2 * lat.n * t), tail


@functools.lru_cache(maxsize=4)
def _centred_sum(lat, sigma, rel_tol):
    """(log raw sum, off-origin sum, tail) of sum_{x in Lambda} exp(-||x||^2
    / 2 sigma^2) over the certified centred ball, enumerated once per
    (lattice, sigma, rel_tol) however many consumers need it (lattices hash
    by identity). The log raw sum is enumerate_masses' log_raw_sum at the
    origin bit for bit: same ball, same weights, same fsum.
    """
    _check_sigma(sigma)
    if not (0 < rel_tol < 1):
        raise InvalidParams("rel_tol must be in (0, 1)")
    radius, tail = _certified_radius(lat, 0.0, sigma, rel_tol)
    _, points = enumerate_coset(lat, np.zeros(lat.n), radius)
    n2 = (points * points).sum(axis=1)
    w = np.exp(-n2 / (2 * sigma**2))  # the origin's norm is exactly 0
    return math.log(math.fsum(w.tolist())), math.fsum(w[n2 > 0].tolist()), tail


def enumerate_masses(lat: Lattice, shift, sigma, rel_tol=1e-9) -> DiscreteGaussianSpec:
    """D_{Lambda+shift,sigma} on a support carrying all but rel_tol of its mass.

    The shift is decoded once: the certified ball is enumerated around its
    Voronoi residue, and the coordinates are re-anchored to the caller's
    shift so that X = shift + embed(coords) exactly.
    """
    _check_sigma(sigma)
    if not (0 < rel_tol < 1):
        raise InvalidParams("rel_tol must be in (0, 1)")
    shift = np.asarray(shift, dtype=float)
    anchor = closest_point(lat, shift).coords
    r = shift - lat.embed(anchor)
    radius, tail = _certified_radius(lat, float(r @ r), sigma, rel_tol)
    coords, points = enumerate_coset(lat, r, radius)
    if points.shape[0] == 0:
        raise InternalMismatch("certified ball contains no coset point")
    norm2 = (points * points).sum(axis=1)
    emin = float(norm2.min())
    weights = np.exp(-(norm2 - emin) / (2 * sigma**2))
    wsum = math.fsum(weights.tolist())
    probs = weights / wsum
    order = np.argsort(-probs, kind="stable")
    probs = probs[order]
    coords = coords[order] - anchor
    return DiscreteGaussianSpec(
        lattice=lat, shift=shift, sigma=float(sigma), radius=radius, tail=tail,
        coords=coords, points=shift + lat.embed(coords), probs=probs,
        log_raw_sum=-emin / (2 * sigma**2) + math.log(wsum),
    )


def mass_zero(lat: Lattice, sigma, rel_tol=1e-9) -> float:
    """Probability that the centered coset Gaussian puts on the origin.

    P_0 = ((sqrt(2 pi) sigma)^n f_sigma(Lambda))^{-1} = 1 / raw theta sum,
    the sum read from the certified centred ball of _centred_sum.
    """
    return math.exp(-_centred_sum(lat, sigma, rel_tol)[0])


def entropy_exact(lat: Lattice, shift, sigma, tol=1e-9) -> float:
    """Entropy (nats) of the discrete Gaussian on Lambda + shift.

    Computed two ways: coset_entropy of the shift's batch_coset_stats row,
    and a direct -sum p log p over an enumerated ball 2 sigma wider than
    the certified one. Disagreement beyond tol raises InternalMismatch (it
    means truncation was too coarse).
    """
    rel = min(tol, 1e-9) * 1e-2
    shift = np.asarray(shift, dtype=float)
    row = batch_coset_stats(lat, shift[None], sigma, rel)
    h = float(coset_entropy(row["mass"][0], row["power"][0], sigma, lat.n))
    r = mod_lattice(lat, shift)
    radius, _ = _certified_radius(lat, float(r @ r), sigma, rel)
    _, b_points = enumerate_coset(lat, r, radius + 2 * sigma)
    n2 = (b_points**2).sum(axis=1)
    w = np.exp(-(n2 - n2.min()) / (2 * sigma**2))
    q = w / w.sum()
    q = q[q > 0]
    h_direct = float(-(q * np.log(q)).sum())
    if abs(h - h_direct) > tol:
        raise InternalMismatch(
            f"entropy routes disagree in n={lat.n} at sigma={sigma}, tol={tol}: "
            f"identity {h} vs direct {h_direct}"
        )
    return h


def smoothing_parameter(lat: Lattice, eps) -> SmoothingResult:
    """Unique s > 0 with g(s) = sum_{x in Lambda\\0} exp(-||s x||^2 / 2) = eps.

    Every evaluation of g sums its own certified centred ball (the
    off-origin part of _centred_sum at sigma = 1/s), so the residual
    reported at the root is trustworthy to the truncation level. The root
    is bracketed from the shortest vectors and refined by Brent's method.
    """
    if not (0 < eps < 1):
        raise InvalidParams("eps must be in (0, 1)")
    from scipy.optimize import brentq

    lam1, count = _shortest_norm(lat)
    rel = max(1e-14, 1e-10 * eps)

    def g(s):
        return _centred_sum(lat, 1.0 / s, rel)[1]

    # g(s) >= count exp(-s^2 lam1^2 / 2) (the shortest vectors alone), so
    # slightly below sqrt(2 log(count/eps)) / lam1 the sum certifiably
    # exceeds eps: a free lower bracket that never needs an enumeration.
    s_lo = 0.999 * math.sqrt(2 * math.log(count / eps)) / lam1
    s_hi = s_lo * 1.05
    for _ in range(60):
        if g(s_hi) < eps:
            break
        s_hi *= 2
    else:
        raise BracketFailure("no sign change for the smoothing equation")
    # no absolute xtol: stop once the bracket is within 1e-14 s of the root
    s = brentq(lambda x: g(x) - eps, s_lo, s_hi, xtol=1e-300, rtol=1e-14)
    val = g(s)
    if not g(s * (1 + 1e-6)) < val * (1 + 1e-12) + 1e-300:
        raise InternalMismatch("smoothing sum is not decreasing at the root")
    return SmoothingResult(s=s, eps=eps, residual=abs(val - eps))


def _shortest_norm(lat):
    """(lambda_1, count): the exact length of a shortest nonzero vector and
    the number of vectors of that length (norms up to lambda_1^2 (1 + 1e-9))."""
    r = float(np.linalg.norm(lat.basis, axis=0).min())  # the ball holds that column
    _, pts = enumerate_coset(lat, np.zeros(lat.n), r)
    n2 = (pts**2).sum(axis=1)
    n2 = n2[n2 > 1e-18 * r * r]
    m = float(n2.min())
    return math.sqrt(m), int((n2 <= m * (1 + 1e-9)).sum())


def flatness_factor(lat: Lattice, sigma, samples=512, seed=0) -> FlatnessBracket:
    """Bracket for max_x |V f_sigma(Lambda + x) - 1| over the Voronoi cell.

    The upper bound is the dual theta tail sum_{y in Lambda*\\0}
    exp(-2 pi^2 sigma^2 ||y||^2) from the Fourier expansion: the dual's
    off-origin centred sum at sigma_d = 1 / (2 pi sigma), plus its
    certified tail. The lower bound maximizes the deviation over scrambled
    low-discrepancy points of the basis cell (the coset mass is
    Lambda-periodic, so this covers the Voronoi cell), so lower <= true
    flatness <= upper.
    """
    _check_sigma(sigma)
    if samples < 1:
        raise InvalidParams("need at least one sample")
    _, upper, tail = _centred_sum(dual(lat), 1.0 / (2 * math.pi * sigma), 1e-12)
    upper += tail * (1.0 + upper)  # keep it a true upper bound

    from scipy.stats import qmc

    sob = qmc.Sobol(d=lat.n, scramble=True, seed=seed)
    u = sob.random(samples)
    vals = batch_coset_stats(lat, u @ lat.basis.T, sigma, rel_tol=1e-9)["mass"]
    lower = float(np.abs(lat.volume * vals - 1.0).max())
    return FlatnessBracket(lower=lower, upper=upper, samples=samples)


_BLOCK_ENTRIES = 1 << 23  # floats a kernel block or draw pass holds; distances a support block
_ROW_CHUNK = 256  # rows per distance block of the padded support

# The closed-form families as cosets of Z^n: the line offsets of their
# half-cosets and the parities of sum(k) each admits, as (even, odd)
# weights. Dn is the even half of Z^n, and E8 is D8 together with
# D8 + 1/2 (Conway & Sloane, SPLAG ch. 4).
_FAMILY_COSETS = {
    "Zn": ((0.0,), (1.0, 1.0)),
    "Dn": ((0.0,), (1.0, 0.0)),
    "E8": ((0.0, 0.5), (1.0, 0.0)),
}


def coset_blocks(lat: Lattice, shifts, sigma, rel_tol):
    """The one front door for batch coset rows: D_{Lambda+t,sigma} per row t.

    Any shift is accepted, as the law depends only on t mod Lambda: every
    row is decoded to its anchor and reduced to the Voronoi cell. The Zn,
    Dn and E8 families then run the factorized kernel (_kernel_blocks);
    every other lattice shares one padded support (padded_coset_support).
    Returns an iterator of blocks over consecutive rows. A block's stats()
    gives the rows' (mass, power, tail), the tail being the certified
    neglected share of each row's coset mass, at most rel_tol; its
    draw(gen, k) gives k draws per row, row by row, as coordinates X - t.
    """
    _check_sigma(sigma)
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if shifts.shape[1] != lat.n:
        raise InvalidParams(f"shift width {shifts.shape[1]} does not match "
                            f"the lattice dimension {lat.n}")
    anchors = decode_batch(lat, shifts)
    rows = shifts - lat.embed(anchors)
    if lat.family is None:
        return padded_coset_support(lat, anchors, rows, sigma, rel_tol)
    return _kernel_blocks(lat, anchors, rows, sigma, rel_tol)


def padded_coset_support(lat: Lattice, anchors, rows, sigma, rel_tol):
    """Blocks of reduced rows against one shared support, any lattice.

    Each row's norm is at most mu, the largest among the rows given; the
    ball certified for a shift of norm mu (as in enumerate_masses), padded
    by mu, then keeps each row's truncation below rel_tol. Blocks hold at
    most 256 rows and near 8M squared distances.
    """
    mu = math.sqrt(float((rows**2).sum(axis=1).max(initial=0.0)))
    radius, tail = _certified_radius(lat, mu**2, sigma, rel_tol)
    scoords, spts = enumerate_coset(lat, np.zeros(lat.n), radius + mu)
    sn2 = (spts**2).sum(axis=1)
    chunk = max(1, min(_ROW_CHUNK, _BLOCK_ENTRIES // max(1, len(sn2))))
    for a in range(0, max(rows.shape[0], 1), chunk):
        r = rows[a:a + chunk]
        d2 = sn2[None, :] + 2.0 * (r @ spts.T) + (r**2).sum(axis=1)[:, None]
        yield _SupportBlock(d2, scoords, anchors[a:a + chunk], sigma, tail)


class _SupportBlock:
    """Rows of a generic lattice: d2[i, j] = ||r_i + x_j||^2 for reduced
    rows r and the support points x, whose coordinates are scoords."""

    def __init__(self, d2, scoords, anchors, sigma, tail):
        self.d2, self.scoords, self.anchors = d2, scoords, anchors
        self.sigma, self.tail = sigma, tail

    def stats(self):
        e = -self.d2 / (2 * self.sigma**2)
        emax = e.max(axis=1, keepdims=True)
        w = np.exp(e - emax)
        tot = w.sum(axis=1)
        norm = (2 * math.pi * self.sigma**2) ** (self.anchors.shape[1] / 2)
        return (np.exp(emax[:, 0]) * tot / norm, (w * self.d2).sum(axis=1) / tot,
                np.full(tot.shape, self.tail))

    def draw(self, gen, k):
        e = np.exp(-(self.d2 - self.d2.min(axis=1, keepdims=True)) / (2 * self.sigma**2))
        cs = np.cumsum(e, axis=1)
        bar = gen.random((cs.shape[0], k)) * cs[:, -1:]
        # a row's cs never decreases: the count of cs < bar is a sorted search
        idx = np.stack([np.searchsorted(c, b, side="left") for c, b in zip(cs, bar)])
        return (self.scoords[idx] - self.anchors[:, None]).reshape(-1, self.scoords.shape[1])


def _log_mix(la, lb):
    """(log(e^la + e^lb), share of e^la, share of e^lb), for la finite and lb
    finite or -inf. Each share is its own exponential, so a minority share
    below 1e-16 is kept rather than rounded away by 1 - share."""
    total = np.maximum(la, lb) + np.log1p(np.exp(-np.abs(la - lb)))
    return total, np.exp(la - total), np.exp(lb - total)


def _kernel_blocks(lat, anchors, rows, sigma, rel_tol):
    """Blocks of reduced rows of a Zn, Dn or E8 lattice, law by law.

    Lambda = s F, and F is a union of half-cosets h + {k in Z^n : parity of
    sum(k) admitted}. On half h, coordinate i of the coset point is
    s (j + delta_i) over the integers j of a window [-W, W] around the
    nearest one, with |delta_i| <= 1/2. Per coordinate the window's
    weights exp(-(x^2 - (s delta_i)^2) / 2 sigma^2) are summed by the parity
    of k, with their second moments, and a two-state recursion over the
    coordinates combines them; every term is positive, so no difference of
    products loses digits near a deep hole. The neglected share is bounded
    coordinate by coordinate by geometric tails, times the whole line sums
    of the other coordinates with the parity constraint dropped, and taken
    relative to the weight of the row's nearest coset point r, a lower bound
    on its coset mass. W grows until every row of a block certifies.

    A block of R rows holds at most R H (n (3 (W + 1) + 16) + 20) entries
    while it is built, at most _BLOCK_ENTRIES: three (n, R, H, W + 1) arrays
    of one parity class at a time, sixteen (n, R, H) ones (the parity sums
    and means, their swaps, the prefix, the tails) and twenty (R, H) ones.
    """
    halves, accept = _FAMILY_COSETS[lat.family[0]]
    s = lat.family[1]
    m, n = rows.shape
    y = rows.T[:, :, None] / s + np.asarray(halves)  # (n, m, H)
    centre = np.rint(y)
    delta = y - centre
    # log of (half h's largest weight) / (the nearest coset point's weight)
    gap = ((rows**2).sum(axis=1)[:, None] - s * s * (delta**2).sum(axis=0)) / (2 * sigma**2)
    # a first guess from the worst gap and a typical line sum; checked below
    log_need = (math.log(2 * n * len(halves) / rel_tol) + float(gap.max(initial=0.0))
                + n * math.log1p(math.sqrt(2 * math.pi) * sigma / s))
    width = max(1, math.ceil(math.sqrt(2 * log_need * (sigma / s) ** 2 + 0.25) - 0.5))
    chunk = max(1, _BLOCK_ENTRIES // (len(halves) * (n * (3 * (width + 1) + 16) + 20)))
    for a in range(0, max(m, 1), chunk):
        while True:
            block = _KernelBlock(lat, anchors[a:a + chunk], halves, accept,
                                 centre[:, a:a + chunk], delta[:, a:a + chunk],
                                 gap[a:a + chunk], width, sigma)
            if np.all(block.tail <= rel_tol):
                break
            width += 1
        yield block


class _KernelBlock:
    """Rows of a Zn, Dn or E8 lattice: their laws on the window, built one
    parity class of it at a time, with the arrays (n, rows, H, ...) per
    coordinate, row and half-coset.

    Parity laws are kept as logarithms: near a deep hole of a coarse
    lattice the admitted parity can carry less than 1e-308 of the other.
    Second moments are kept as conditional means, mixed by those shares.
    """

    def __init__(self, lat, anchors, halves, accept, centre, delta, gap, width, sigma):
        s = lat.family[1]
        c = s * s / (2 * sigma**2)
        k0 = -width - centre  # index 0 of the window is j = -width, k = j - centre
        odd0 = k0.astype(np.int64) & 1
        log_sum, mean2 = [], []
        for t in (0, 1):  # window indices j = -W + t, -W + t + 2, ..., so k of one parity
            j = np.arange(-width + t, width + 1, 2)
            # the largest log weight of the class: 0 at j = 0, else at j = +-1
            top = np.zeros_like(delta) if (t - width) % 2 == 0 else -c * (1 - 2 * np.abs(delta))
            w = np.exp(-c * j * (j + 2 * delta[..., None]) - top[..., None])  # over the largest
            tot = w.sum(axis=-1)
            log_sum.append(top + np.log(tot))
            mean2.append((w * (s * (j + delta[..., None])) ** 2).sum(axis=-1) / tot)
        # (n, rows, H) by the parity of k: log line sums and conditional x^2
        le, lo = np.where(odd0, log_sum[1], log_sum[0]), np.where(odd0, log_sum[0], log_sum[1])
        me, mo = np.where(odd0, mean2[1], mean2[0]), np.where(odd0, mean2[0], mean2[1])
        lp = np.stack([np.zeros_like(le[0]), np.full_like(le[0], -np.inf)])
        pw = np.zeros_like(lp)  # E[sum x^2] of the coordinates so far, by parity
        prefix = np.empty((le.shape[0],) + lp.shape)
        for i in range(le.shape[0]):
            prefix[i] = lp
            l0, s0, r0 = _log_mix(lp[0] + le[i], lp[1] + lo[i])
            l1, s1, r1 = _log_mix(lp[0] + lo[i], lp[1] + le[i])
            pw = np.stack([s0 * (pw[0] + me[i]) + r0 * (pw[1] + mo[i]),
                           s1 * (pw[0] + mo[i]) + r1 * (pw[1] + me[i])])
            lp = np.stack([l0, l1])
        with np.errstate(divide="ignore"):
            log_accept = np.log(accept)
        log_half, share, rest = _log_mix(lp[0] + log_accept[0], lp[1] + log_accept[1])
        log_half = log_half - c * (delta**2).sum(axis=0)  # with each half's largest weight
        raw = np.logaddexp.reduce(log_half, axis=1)
        power_half = share * pw[0] + rest * pw[1]
        self.mass = np.exp(raw) / (2 * math.pi * sigma**2) ** (delta.shape[0] / 2)
        self.power = (np.exp(log_half - raw[:, None]) * power_half).sum(axis=1)
        # geometric tails beyond the window on each side, relative to its centre
        tails = 0.0
        for side in (1.0, -1.0):
            edge = s * (width + 1 + side * delta)
            tails = tails + np.exp(-(edge**2 - (s * delta) ** 2) / (2 * sigma**2)) / (
                -np.expm1(-edge * s / sigma**2))
        whole = np.exp(le) + np.exp(lo) + tails
        with np.errstate(divide="ignore"):  # a tail below the smallest double
            self.tail = np.exp(gap + np.log(whole).sum(axis=0)
                               + np.log((tails / whole).sum(axis=0))).sum(axis=1)
        self.lat, self.anchors, self.prefix = lat, anchors, prefix
        self.c, self.width, self.delta = c, width, delta
        self.start = k0 + np.asarray(halves)  # h + k at window index 0
        self.odd0, self.log_half, self.log_accept = odd0, log_half, log_accept
        self.needs = 1 if accept[0] == accept[1] else 2  # see _tables

    def stats(self):
        return self.mass, self.power, self.tail

    def draw(self, gen, k):
        """Backward through the recursion, k draws per row: one uniform per
        coordinate, after one that picks the half-coset by its mass if two.
        The draws go row by row, in passes of near 8M working entries: a
        draw may bring its own law, whose tables take N n (2W+1) entries
        for N needs (see _tables) and up to (N + 2) n (2W+1) while they are
        built, and the gather of one coordinate's table and its comparison
        with the uniforms take two (2W+1) more."""
        n, rows, _ = self.delta.shape
        step = max(1, _BLOCK_ENTRIES // (((self.needs + 2) * n + 2) * (2 * self.width + 1)))
        return np.concatenate([self._draw(gen, np.arange(b, min(b + step, rows * k)) // k)
                               for b in range(0, max(rows * k, 1), step)])

    def _tables(self, row, h):
        """Inverse CDFs of the laws (row[l], h[l]): (n, 2W+1, needs * laws),
        column need * laws + l.

        Going backward, coordinate i draws its k on the window given the
        need: 0 while the k drawn above i sum to an even number, so that
        the coordinates up to i must make an admitted parity of sum(k) on
        their own, and 1 once that sum is odd. Zn admits both parities, so
        its one need serves either. A table is the cumulative sum of the
        window's weights relative to the largest, built once for all the
        draws of its law."""
        j = np.arange(-self.width, self.width + 1)[:, None]
        a = -self.c * j * (j + 2 * self.delta[:, None, row, h])  # as in __init__
        p, la = self.prefix[:, :, row, h], self.log_accept
        # log of the weight below i that an even or an odd k admits, at need 0
        even = np.logaddexp(p[:, 0] + la[0], p[:, 1] + la[1])[:, None, None]
        odd = np.logaddexp(p[:, 0] + la[1], p[:, 1] + la[0])[:, None, None]
        # (n, window index mod 2, need, laws): the odd weight applies where
        # k is odd at need 0, and where it is even at need 1
        flip = (self.odd0[:, None, None, row, h] ^ np.arange(2)[:, None, None]
                ^ np.arange(self.needs)[:, None])
        lw = np.where(flip, odd, even)[:, np.arange(2 * self.width + 1) & 1]
        lw += a[:, :, None]
        lw -= lw.max(axis=1, keepdims=True)
        np.exp(lw, out=lw)
        return np.cumsum(lw, axis=1, out=lw).reshape(a.shape[:2] + (-1,))

    def _draw(self, gen, row):
        """One draw for each entry of row, on the next uniforms of gen."""
        n, _, halves = self.delta.shape
        u = gen.random((row.size, n + halves - 1))
        lh = self.log_half
        cs = np.cumsum(np.exp(lh - lh.max(axis=1, keepdims=True)), axis=1)[row]
        h = (cs[:, :-1] < u[:, :halves - 1] * cs[:, -1:]).sum(axis=1)
        laws, law = np.unique(row * halves + h, return_inverse=True)
        tables = self._tables(laws // halves, laws % halves)
        start, odd0 = self.start[:, row, h], self.odd0[:, row, h]
        need = np.zeros(row.size, dtype=np.int64)
        v = np.empty((row.size, n))
        for i in range(n - 1, -1, -1):
            cs = tables[i][:, need * laws.size + law]  # (2W+1, draws)
            j = (cs < u[:, halves - 1 + i] * cs[-1]).sum(axis=0)
            v[:, i] = start[i] + j
            need ^= (odd0[i] + j) & (self.needs - 1)  # the parity of k, if it matters
        return self.lat.coords_of(self.lat.family[1] * v) - self.anchors[row]


def batch_coset_stats(lat: Lattice, shifts, sigma, rel_tol=1e-9):
    """Per-row coset mass, exact conditional second moment and certified tail.

    For each row t of `shifts` (any shift) returns f_sigma(Lambda + t),
    E[||X||^2] for X ~ D_{Lambda+t,sigma} and the neglected share of the
    coset mass (at most rel_tol), from the blocks of coset_blocks.
    """
    cols = zip(*(blk.stats() for blk in coset_blocks(lat, shifts, sigma, rel_tol)))
    return dict(zip(("mass", "power", "tail"), map(np.concatenate, cols)))


def effective_noise_pdf(lat: Lattice, params, w) -> float:
    """Density of the folded effective noise of the MMSE-scaled channel.

    g(w) = f_sigma_eff(w) * f_{sqrt(alpha) sigma_s}(Lambda + w) / f_sigma_s(Lambda),
    for a `params` object exposing alpha, sigma_eff2 and sigma_s2.
    """
    w = np.asarray(w, dtype=float)
    sig_eff = math.sqrt(params.sigma_eff2)
    sig_s = math.sqrt(params.sigma_s2)
    num = batch_coset_stats(lat, w[None], math.sqrt(params.alpha) * sig_s)["mass"][0]
    den = batch_coset_stats(lat, np.zeros((1, lat.n)), sig_s)["mass"][0]
    return float(gaussian_pdf(sig_eff, w) * num / den)


def random_lattice_mean_check(n, volume, trials, sigma, rng) -> dict:
    """Mean of f_sigma(Lambda) over random mod-127 lattices rescaled to `volume`.

    Compares against the Siegel-type prediction (2 pi sigma^2)^{-n/2} + 1/V
    (origin term plus average nonzero-point integral). Returns the empirical
    mean, its standard error and the prediction.
    """
    from .lattices import random_mod_p_lattice

    if trials < 2:
        raise InvalidParams("need at least two trials")
    vals = np.empty(trials)
    for i in range(trials):
        if n == 1:
            lat = standard_lattice("Z")  # the 1-D case has a single shape
        else:
            lat = random_mod_p_lattice(n, max(1, n // 2), 127, rng.child(i))
        c = (volume / lat.volume) ** (1.0 / n)
        vals[i] = batch_coset_stats(scale_lattice(lat, c), np.zeros((1, n)), sigma)["mass"][0]
    predicted = (2 * math.pi * sigma**2) ** (-n / 2) + 1.0 / volume
    return {
        "empirical": float(vals.mean()),
        "stderr": float(vals.std(ddof=1) / math.sqrt(trials)),
        "predicted": float(predicted),
        "trials": trials,
    }
