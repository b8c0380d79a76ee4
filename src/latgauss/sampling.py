"""Seeded random generation for the shaping pipeline.

Three sources: continuous Gaussian vectors, exact discrete Gaussian draws
over lattice cosets, and the two dither flavors (a plain Gaussian shift,
and a discrete Gaussian on a finer lattice reduced to the coarse Voronoi
cell). A single coset is drawn by inverse CDF from the certified law that
measures.enumerate_masses returns; discrete_gaussian is that law at the
sampling precision DEFAULT_TAIL. Every sampler returns (trials, n) rows.

Every sampler is a pure function of (parameters, RngStream): calling twice
with the same stream reproduces the same draws. Callers that need fresh
randomness derive child streams; nothing here mutates shared state.

The batch coset sampler returns integer lattice coordinates alongside the
points. Downstream equality checks (decoded vs sent) compare coordinates,
which makes the error indicator exact instead of float-coincidental.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams, NotNested
from .lattices import Lattice, decode_batch, reduce_batch
from .measures import (
    DiscreteGaussianSpec,
    coordinate_line,
    enumerate_masses,
    padded_coset_support,
)
from .rng import RngStream

DEFAULT_TAIL = 1e-12


def discrete_gaussian(lat: Lattice, shift, sigma, tail=DEFAULT_TAIL) -> DiscreteGaussianSpec:
    """D_{Lambda+shift,sigma} at the sampling precision: enumerate_masses at tail."""
    return enumerate_masses(lat, shift, sigma, tail)


def sample_indices(spec: DiscreteGaussianSpec, rng: RngStream, trials):
    """Inverse-CDF draws: `trials` indices into the spec's support."""
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    u = rng.generator().random(trials)
    idx = np.searchsorted(spec.cum, u, side="right")
    return np.minimum(idx, len(spec.cum) - 1)


def sample_discrete_gaussian(spec: DiscreteGaussianSpec, rng: RngStream, trials):
    """`trials` exact categorical draws from the truncated support, (trials, n)."""
    return spec.points[sample_indices(spec, rng, trials)]


def sample_normal(sigma, n, rng: RngStream, trials):
    """`trials` mean-zero normal rows of width n, deviation sigma, (trials, n)."""
    if not (sigma > 0 and np.isfinite(sigma)):
        raise InvalidParams(f"sigma must be positive and finite, got {sigma}")
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if n < 1:
        raise InvalidParams(f"n must be at least 1, got {n}")
    return rng.generator().standard_normal((int(trials), n)) * sigma


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
