import math

import numpy as np
import pytest

from latgauss.errors import InvalidParams, NotNested
from latgauss.lattices import new_lattice, scale_lattice, standard_lattice
from latgauss.measures import batch_coset_stats, coset_blocks, enumerate_masses
from latgauss.rng import RngStream
from latgauss.sampling import (
    DEFAULT_TAIL,
    batch_coset_sample,
    check_nested,
    sample_coset,
    sample_dither_discrete,
    sample_normal,
)

Z = standard_lattice("Z")

# P[X = 1/2] under the half-integer coset at sigma 1, from an exact
# 161-point theta window
P_HALF = 0.3520653286480517
# share of the even coset inside D_{Z,1}
P_EVEN = 0.5071918833173457


def test_spec_is_a_sorted_distribution():
    spec = enumerate_masses(Z, [0.5], 1.0, DEFAULT_TAIL)
    assert np.all(np.diff(spec.probs) <= 0)
    assert math.fsum(spec.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert spec.tail <= 1e-12
    # the two tie points carry the exact known mass
    assert spec.probs[0] == pytest.approx(P_HALF, rel=1e-11)
    assert abs(spec.points[0, 0]) == 0.5


def test_sampler_hits_exact_point_mass():
    x = sample_coset(Z, [0.5], 1.0, RngStream(11), 20000)
    phat = float((x[:, 0] == 0.5).mean())
    se = math.sqrt(P_HALF * (1 - P_HALF) / 20000)
    assert abs(phat - P_HALF) <= 4 * se


def test_sparse_lattice_always_returns_origin():
    x = sample_coset(scale_lattice(Z, 10.0), [0.0], 1.0, RngStream(3), 500)
    assert x.shape == (500, 1) and np.all(x == 0.0)


def test_single_draw_shape():
    assert sample_coset(standard_lattice("A2"), [0.1, 0.2], 1.0, RngStream(4), 1).shape == (1, 2)
    with pytest.raises(InvalidParams):
        sample_coset(Z, [0.0], 1.0, RngStream(4), 0)


def test_far_shift_keeps_exact_anchoring():
    # a coset anchored a million steps out: coordinates absorb the offset
    # and the top point still lands next to the origin
    spec = enumerate_masses(Z, [1e6 + 0.3], 1.0, DEFAULT_TAIL)
    assert spec.coords[0, 0] == -1_000_000
    assert abs(spec.points[0, 0] - 0.3) <= 1e-9
    rebuilt = spec.shift + spec.lattice.embed(spec.coords)
    np.testing.assert_array_equal(spec.points, rebuilt)
    # the sampler draws near the origin from the same coset
    x = sample_coset(Z, [1e6 + 0.3], 1.0, RngStream(5), 100)
    assert np.all(np.abs(x) < 10)
    np.testing.assert_allclose(x - np.rint(x - 0.3), 0.3, rtol=0, atol=1e-9)


def test_same_stream_reproduces_draws():
    a = sample_coset(Z, [0.3], 1.0, RngStream(21), 64)
    b = sample_coset(Z, [0.3], 1.0, RngStream(21), 64)
    np.testing.assert_array_equal(a, b)
    c = sample_coset(Z, [0.3], 1.0, RngStream(21).child(1), 64)
    assert not np.array_equal(a, c)


def test_discrete_dither_coset_frequencies():
    # D_{Z,1} reduced mod 2Z: even draws map to 0, odd draws to +-1
    two_z = scale_lattice(Z, 2.0)
    t = sample_dither_discrete(two_z, Z, 1.0, RngStream(12), trials=20000)
    assert set(np.unique(t[:, 0])) <= {-1.0, 0.0, 1.0}
    f0 = float((t[:, 0] == 0.0).mean())
    se = math.sqrt(P_EVEN * (1 - P_EVEN) / 20000)
    assert abs(f0 - P_EVEN) <= 4 * se


def test_dither_requires_nesting():
    two_z = scale_lattice(Z, 2.0)
    with pytest.raises(NotNested):
        sample_dither_discrete(Z, two_z, 1.0, RngStream(0), trials=1)
    with pytest.raises(NotNested):
        check_nested(Z, standard_lattice("Z2"))
    # the valid direction returns the integer embedding matrix
    m = check_nested(two_z, Z)
    assert m.dtype == np.int64
    assert m[0, 0] == 2


def test_sample_normal_moments_and_guards():
    x = sample_normal(1.5, 3, RngStream(15), trials=40000)
    assert x.shape == (40000, 3)
    assert abs(x.mean()) <= 4 * 1.5 / math.sqrt(40000 * 3)
    assert x.var() == pytest.approx(1.5**2, rel=0.02)
    with pytest.raises(InvalidParams):
        sample_normal(0.0, 2, RngStream(1), trials=1)
    with pytest.raises(InvalidParams):
        sample_normal(1.0, 0, RngStream(1), trials=1)
    with pytest.raises(InvalidParams):
        sample_normal(1.0, 2, RngStream(1), trials=0)


def test_batch_sample_fast_path_point_mass():
    shifts = np.full((20000, 1), 0.5)
    pts, coords = batch_coset_sample(Z, shifts, 1.0, RngStream(13))
    assert coords.dtype == np.int64
    np.testing.assert_array_equal(pts, shifts + Z.embed(coords))
    phat = float((pts[:, 0] == 0.5).mean())
    se = math.sqrt(P_HALF * (1 - P_HALF) / 20000)
    assert abs(phat - P_HALF) <= 4 * se


def test_batch_sample_generic_second_moment():
    a2 = standard_lattice("A2")
    exact = batch_coset_stats(a2, np.zeros((1, 2)), 1.0)["power"][0]
    pts, coords = batch_coset_sample(a2, np.zeros((6000, 2)), 1.0, RngStream(14))
    np.testing.assert_array_equal(pts, a2.embed(coords))
    n2 = (pts**2).sum(axis=1)
    se = n2.std(ddof=1) / math.sqrt(len(n2))
    assert abs(n2.mean() - exact) <= 4 * se


@pytest.mark.parametrize("lat,sigma", [
    (standard_lattice("A2"), 0.5), (scale_lattice(standard_lattice("D4"), 1.3), 0.5),
    (standard_lattice("E8"), 0.25), (standard_lattice("E8"), 0.5),
    (scale_lattice(standard_lattice("Z3"), -0.7), 0.5),
], ids=["A2", "1.3D4", "E8", "E8-0.5", "-0.7Z3"])
def test_batch_sample_accepts_any_shift(lat, sigma):
    # the same uniforms on the same coset draw the same points, wherever
    # the shift sits in that coset
    gen = np.random.default_rng(6)
    t = gen.normal(size=(200, lat.n))
    far = t + lat.embed(gen.integers(-4, 5, size=t.shape))
    near_pts, _ = batch_coset_sample(lat, t, sigma, RngStream(16))
    far_pts, far_coords = batch_coset_sample(lat, far, sigma, RngStream(16))
    np.testing.assert_array_equal(far_pts, far + lat.embed(far_coords))
    np.testing.assert_allclose(far_pts, near_pts, rtol=0, atol=1e-9)


def test_batch_sample_rejects_wrong_width():
    with pytest.raises(InvalidParams):
        batch_coset_sample(Z, np.zeros((5, 2)), 1.0, RngStream(0))
    with pytest.raises(InvalidParams):
        batch_coset_stats(standard_lattice("Z4"), np.zeros((5, 3)), 1.0)


def pooled_chi_square_p(spec, coords):
    """Chi-square p-value of drawn coordinates against the spec's masses.

    The support is sorted by decreasing mass, with one more bin for draws
    outside it. Bins are pooled from the tail up into runs of at least 5
    expected draws each, so that every pooled bin has at least 5.
    """
    from scipy import stats

    key_of = {tuple(k): i for i, k in enumerate(map(tuple, spec.coords))}
    counts = np.zeros(len(spec.probs) + 1)
    for row in map(tuple, coords):
        counts[key_of.get(row, len(spec.probs))] += 1
    expected = np.append(spec.probs * len(coords), 0.0)
    obs, exp = [], []
    run_o = run_e = 0.0
    for o, e in zip(counts[::-1], expected[::-1]):
        run_o, run_e = run_o + o, run_e + e
        if run_e >= 5.0:
            obs.append(run_o)
            exp.append(run_e)
            run_o = run_e = 0.0
    obs[-1] += run_o  # a short run left at the head joins its neighbour
    exp[-1] += run_e
    obs, exp = np.asarray(obs), np.asarray(exp)
    return float(stats.chisquare(obs, exp * (obs.sum() / exp.sum())).pvalue)


@pytest.mark.parametrize("lat,shift,sigma", [
    (scale_lattice(standard_lattice("D4"), 2.0), [0.3, -0.7, 0.55, 1.9], 1.0),
    (standard_lattice("E8"), [0.41, -0.2, 0.05, 0.3, -0.33, 0.12, 0.6, -0.08], 0.4),
    (standard_lattice("A2"), [0.3, -0.7], 1.0),
], ids=["2D4", "E8", "A2"])
def test_kernel_draws_follow_the_enumerated_law(lat, shift, sigma):
    # one draw from each of many tiled rows, then many draws from one row
    # (A2 runs the padded block, which takes them in several passes)
    shift = np.asarray(shift)
    law = enumerate_masses(lat, shift, sigma, DEFAULT_TAIL)
    _, coords = batch_coset_sample(lat, np.tile(shift, (100_000, 1)), sigma, RngStream(17))
    assert pooled_chi_square_p(law, coords) > 0.001
    (block,) = coset_blocks(lat, shift[None], sigma, 1e-9)
    coords = block.draw(RngStream(17).generator(), 100_000)
    assert coords.shape == (100_000, lat.n)
    assert pooled_chi_square_p(law, coords) > 0.001
