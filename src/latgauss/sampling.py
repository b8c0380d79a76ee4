"""Seeded random generation for the shaping pipeline.

Three sources: continuous Gaussian vectors, exact discrete Gaussian draws
over lattice cosets (inverse CDF on a certified truncated support), and the
two dither flavors (a plain Gaussian shift, and a discrete Gaussian on a
finer lattice reduced to the coarse Voronoi cell).

Every sampler is a pure function of (parameters, RngStream): calling twice
with the same stream reproduces the same draws. Callers that need fresh
randomness derive child streams; nothing here mutates shared state.

The batch coset sampler returns integer lattice coordinates alongside the
points. Downstream equality checks (decoded vs sent) compare coordinates,
which makes the error indicator exact instead of float-coincidental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotNested
from .lattices import Lattice, closest_point, decode_batch, reduce_batch
from .measures import coordinate_line, enumerate_masses, padded_coset_support
from .rng import RngStream

DEFAULT_TAIL = 1e-12


@dataclass(frozen=True)
class DiscreteGaussianSpec:
    """Truncated discrete Gaussian D_{Lambda+shift,sigma}, ready to sample.

    Support is sorted by decreasing mass; cum is the inclusive cumulative
    probability, so inverse CDF is a single searchsorted. The enumerated
    support carries at least (1 - tail) of the full coset mass, and
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
    cum: np.ndarray
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
        """Entropy in nats: log raw mass plus half the relative second moment."""
        return self.log_raw_sum + self.power / (2 * self.sigma**2)


def discrete_gaussian(lat: Lattice, shift, sigma, tail=DEFAULT_TAIL) -> DiscreteGaussianSpec:
    """Build the truncated renormalized D_{Lambda+shift,sigma}."""
    shift = np.asarray(shift, dtype=float)
    data = enumerate_masses(lat, shift, sigma, tail)
    probs = data.weights / math.fsum(data.weights.tolist())
    order = np.argsort(-probs, kind="stable")
    probs = probs[order]
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # guard the top against accumulated rounding
    # points were enumerated around the reduced shift; re-anchor coordinates
    # to the caller's shift so that X = shift + embed(coords) exactly
    anchor = closest_point(lat, shift).coords
    coords = data.coords[order] - anchor
    return DiscreteGaussianSpec(
        lattice=lat, shift=shift, sigma=float(sigma),
        radius=data.truncation_radius, tail=data.tail_bound,
        coords=coords, points=shift + lat.embed(coords),
        probs=probs, cum=cum, log_raw_sum=data.log_raw_sum,
    )


def sample_indices(spec: DiscreteGaussianSpec, rng: RngStream, trials):
    """Inverse-CDF draws: `trials` indices into the spec's support."""
    if trials < 1:
        raise InvalidParams("trials must be positive")
    u = rng.generator().random(trials)
    idx = np.searchsorted(spec.cum, u, side="right")
    return np.minimum(idx, len(spec.cum) - 1)


def sample_discrete_gaussian(spec: DiscreteGaussianSpec, rng: RngStream,
                             trials=None):
    """Exact categorical draw(s) from the truncated support.

    trials=None returns one point of shape (n,); otherwise (trials, n).
    """
    m = 1 if trials is None else int(trials)
    out = spec.points[sample_indices(spec, rng, m)]
    return out[0] if trials is None else out


def sample_normal(sigma, n, rng: RngStream, trials=None):
    """Mean-zero normal vector(s) with per-coordinate deviation sigma."""
    if not (sigma > 0 and np.isfinite(sigma)):
        raise InvalidParams("sigma must be positive and finite")
    m = 1 if trials is None else int(trials)
    if m < 1 or n < 1:
        raise InvalidParams("need positive dimensions")
    x = rng.generator().standard_normal((m, n)) * sigma
    return x[0] if trials is None else x


def check_nested(coarse: Lattice, fine: Lattice, tol=1e-9):
    """Require coarse to be a sublattice of fine."""
    if coarse.n != fine.n:
        raise NotNested("dimension mismatch")
    m = np.linalg.inv(fine.basis) @ coarse.basis
    if not np.allclose(m, np.rint(m), atol=tol):
        raise NotNested("coarse lattice is not contained in the fine one")
    return np.rint(m).astype(np.int64)


def sample_dither_discrete(coarse: Lattice, fine: Lattice, sigma_s,
                           rng: RngStream, trials, tail=DEFAULT_TAIL):
    """`trials` rows T ~ D_{fine,sigma_s} reduced mod coarse."""
    check_nested(coarse, fine)
    spec = discrete_gaussian(fine, np.zeros(fine.n), sigma_s, tail)
    return reduce_batch(coarse, sample_discrete_gaussian(spec, rng, trials))


def batch_coset_sample(lat: Lattice, shifts, sigma, rng: RngStream,
                       rel_tol=1e-9, chunk=256):
    """One draw X_i ~ D_{Lambda+shifts_i, sigma} per row of shifts.

    Returns (points, coords) with points = shifts + embed(coords) exactly.
    A single shared enumeration (padded by the covering bound) supports all
    rows; each row keeps a certified truncation of at most rel_tol mass.
    Scaled Z^n (n > 1) runs as n rows of its coordinate_line per row, each
    certified to rel_tol / n, and draws the same uniforms in the same order.
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    m = shifts.shape[0]
    if shifts.shape[1] != lat.n:
        raise InvalidParams("shift dimension mismatch")
    line = coordinate_line(lat)
    if line is not None:
        _, coords = batch_coset_sample(line, shifts.reshape(-1, 1), sigma, rng,
                                       rel_tol / lat.n, chunk * lat.n)
        coords = coords.reshape(m, lat.n)
        return shifts + lat.embed(coords), coords

    u = rng.generator().random(m)
    anchors = decode_batch(lat, shifts)
    red = shifts - lat.embed(anchors)
    scoords, chunks = padded_coset_support(lat, red, sigma, rel_tol, chunk)
    coords = np.empty((m, lat.n), dtype=np.int64)
    for a, b, d2 in chunks:
        e = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / (2 * sigma**2))
        cs = np.cumsum(e, axis=1)
        target = u[a:b] * cs[:, -1]
        idx = (cs < target[:, None]).sum(axis=1)
        coords[a:b] = scoords[idx] - anchors[a:b]
    return shifts + lat.embed(coords), coords
