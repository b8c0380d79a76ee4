"""Seeded random generation for the shaping pipeline.

Three sources: continuous Gaussian vectors, exact discrete Gaussian draws
over lattice cosets, and the two dither flavors (a plain Gaussian shift,
and a discrete Gaussian on a finer lattice reduced to the coarse Voronoi
cell). Every coset draw reads the blocks of measures.coset_blocks: a batch
takes one draw per row, and a single law (`sample`, the discrete dither
and its suite) takes all its draws from one row, sample_coset, at the
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
from .lattices import (
    Lattice,
    decode_batch,  # noqa: F401  unused; perfbench/test_run.py asserts this binding
    reduce_batch,
)
from .measures import coset_blocks
from .rng import RngStream

DEFAULT_TAIL = 1e-12
_BATCH_TAIL = 1e-9  # certified truncation per row of batch_coset_sample


def sample_coset(lat: Lattice, shift, sigma, rng: RngStream, trials):
    """`trials` draws X ~ D_{Lambda+shift,sigma}, (trials, n), from one
    coset_blocks row at the sampling precision DEFAULT_TAIL."""
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    shift = np.asarray(shift, dtype=float)
    (block,) = coset_blocks(lat, shift[None], sigma, DEFAULT_TAIL)
    return shift + lat.embed(block.draw(rng.generator(), trials))


def sample_normal(sigma, n, rng: RngStream, trials):
    """`trials` mean-zero normal rows of width n, deviation sigma, (trials, n)."""
    if not (sigma > 0 and np.isfinite(sigma)):
        raise InvalidParams(f"sigma must be positive and finite, got {sigma}")
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if n < 1:
        raise InvalidParams(f"n must be at least 1, got {n}")
    return rng.generator().standard_normal((int(trials), n)) * sigma


def check_nested(coarse: Lattice, fine: Lattice):
    """Require coarse to be a sublattice of fine."""
    if coarse.n != fine.n:
        raise NotNested("dimension mismatch")
    m = np.linalg.inv(fine.basis) @ coarse.basis
    if not np.allclose(m, np.rint(m), atol=1e-9):
        raise NotNested("coarse lattice is not contained in the fine one")
    return np.rint(m).astype(np.int64)


def sample_dither_discrete(coarse: Lattice, fine: Lattice, sigma_s,
                           rng: RngStream, trials):
    """`trials` rows T ~ D_{fine,sigma_s} reduced mod coarse."""
    check_nested(coarse, fine)
    return reduce_batch(coarse, sample_coset(fine, np.zeros(fine.n), sigma_s, rng, trials))


def batch_coset_sample(lat: Lattice, shifts, sigma, rng: RngStream):
    """One draw X_i ~ D_{Lambda+shifts_i, sigma} per row of shifts (any shift).

    Returns (points, coords) with points = shifts + embed(coords) exactly.
    Every row draws from the blocks of measures.coset_blocks, with a
    certified truncation of at most _BATCH_TAIL mass per row, by inverse
    CDF on one stream of uniforms.
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    gen = rng.generator()
    coords = np.concatenate([blk.draw(gen, 1) for blk in
                             coset_blocks(lat, shifts, sigma, _BATCH_TAIL)])
    return shifts + lat.embed(coords), coords
