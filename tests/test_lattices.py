import math

import numpy as np
import pytest

from latgauss.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidParams,
    NonSquare,
    SingularBasis,
    UnknownName,
)
from latgauss.lattices import (
    _TIE_REL,
    closest_point,
    decode_batch,
    dual,
    enumerate_coset,
    from_json,
    mod_lattice,
    new_lattice,
    nld,
    random_mod_p_lattice,
    reduce_batch,
    scale_lattice,
    standard_lattice,
    to_json,
)
from latgauss.rng import RngStream

VOLUMES = {
    "Z": 1.0,
    "Z4": 1.0,
    "A2": math.sqrt(3) / 2,
    "D3": 2.0,
    "D4": 2.0,
    "D8": 2.0,
    "E8": 1.0,
}


@pytest.mark.parametrize("name,vol", sorted(VOLUMES.items()))
def test_volume(name, vol):
    assert standard_lattice(name).volume == pytest.approx(vol, rel=1e-12)


def test_volume_scales_as_nth_power():
    lat = scale_lattice(standard_lattice("D4"), 0.5)
    assert lat.volume == pytest.approx(2.0 * 0.5**4, rel=1e-12)


def test_halfway_ties_round_toward_zero():
    z = standard_lattice("Z")
    assert closest_point(z, np.array([0.5])).point[0] == 0.0
    assert closest_point(z, np.array([-0.5])).point[0] == 0.0
    assert closest_point(z, np.array([1.5])).point[0] == 1.0
    assert mod_lattice(z, np.array([0.5]))[0] == 0.5
    assert mod_lattice(z, np.array([-0.5]))[0] == -0.5


def test_dn_tie_prefers_smaller_norm():
    d2 = standard_lattice("D2")
    # (1, 0) is equidistant from (0,0), (1,1), (1,-1), (2,0); the origin wins
    c = decode_batch(d2, np.array([[1.0, 0.0]]))
    assert np.all(d2.embed(c) == 0.0)


def _unit_volume(lat):
    return scale_lattice(lat, lat.volume ** (-1.0 / lat.n))


# name -> (lattice builder, input sigma, rows decoded, rows checked by
# enumeration); the two Z^2 bases are the skewed (1,0),(7,1) and its reduced
# form, and the Construction-A members come from RngStream(20240901, 0)
DECODE_CASES = {
    **{name: (lambda name=name: standard_lattice(name), 1.7, 40, 40)
       for name in ["Z3", "D3", "D4", "E8", "A2"]},
    "Z2-skewed": (lambda: new_lattice([[1.0, 7.0], [0.0, 1.0]]), 1.7, 40, 40),
    "Z2-reduced": (lambda: new_lattice(np.eye(2)), 1.7, 40, 40),
    "conA-8-4-5": (lambda: random_mod_p_lattice(8, 4, 5, RngStream(20240901, 0)),
                   1.7, 40, 40),
    "conA-16-8-3": (lambda: _unit_volume(
        random_mod_p_lattice(16, 8, 3, RngStream(20240901, 0))), 0.2, 50, 5),
}


@pytest.mark.parametrize("name", list(DECODE_CASES))
def test_decode_matches_enumeration(name):
    build, sigma, rows, checked = DECODE_CASES[name]
    lat = build()
    gen = RngStream(7).generator()
    ys = gen.normal(0.0, sigma, size=(rows, lat.n))
    pts = lat.embed(decode_batch(lat, ys))
    for y, p in list(zip(ys, pts))[:checked]:
        got = float((y - p) @ (y - p))
        # every strictly closer point lies inside the ball through p
        _, cands = enumerate_coset(lat, -y, math.sqrt(got))
        best = (cands**2).sum(axis=1).min()
        assert got <= best * (1 + 1e-9) + 1e-12


def test_a2_boundary_ties_follow_the_tie_rule():
    # edge midpoints and Voronoi vertices around six A2 points: each input is
    # equidistant from two or three lattice points
    a2 = standard_lattice("A2")
    centres = a2.embed(np.array([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)]))
    v = a2.embed(np.array([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]))
    offsets = np.concatenate([v / 2, (v + np.roll(v, -1, axis=0)) / 3])
    ys = (centres[:, None, :] + offsets).reshape(-1, 2)
    got = decode_batch(a2, ys)
    for y, c in zip(ys, got):
        np.testing.assert_array_equal(c, closest_point(a2, y).coords)
        # reference rule: among the nearest points (within _TIE_REL), the
        # smallest norm, then the lexicographically smallest coordinates
        d2 = float(((a2.embed(c) - y) ** 2).sum())
        coords, pts = enumerate_coset(a2, -y, math.sqrt(d2))
        dist = (pts**2).sum(axis=1)
        tie = coords[dist <= dist.min() + _TIE_REL * (1.0 + dist.min())]
        norms = (a2.embed(tie) ** 2).sum(axis=1)
        assert tuple(c) == min(zip(norms, map(tuple, tie.tolist())))[1]
    # the vertex (-0.5, -0.2887) of the origin's cell decodes to the origin
    np.testing.assert_allclose(ys[9], [-0.5, -0.5 / math.sqrt(3)])
    np.testing.assert_array_equal(got[9], [0, 0])


def test_window_decoder_on_a_skewed_basis():
    # columns (1,0) and (7,1) generate Z^2, but Babai rounding in this basis
    # lands far from the nearest point; the batch decoder must still agree
    # with closest_point row by row
    lat = new_lattice(np.array([[1.0, 7.0], [0.0, 1.0]]))
    ys = np.random.default_rng(0).normal(0.0, 5.0, size=(2000, 2))
    want = np.stack([closest_point(lat, y).coords for y in ys])
    np.testing.assert_array_equal(decode_batch(lat, ys), want)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
def test_scaled_decode_consistent(scale):
    lat = standard_lattice("E8")
    sc = scale_lattice(lat, scale)
    gen = RngStream(3).generator()
    ys = gen.normal(0.0, 1.0, size=(30, 8))
    assert np.array_equal(decode_batch(sc, ys), decode_batch(lat, ys / scale))


def test_a2_kissing_number():
    lat = standard_lattice("A2")
    coords, pts = enumerate_coset(lat, np.zeros(2), 1.0)
    assert len(coords) == 7  # origin plus six minimal vectors
    norms = np.sort((pts**2).sum(axis=1))
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], 1.0)


def test_empty_ball_enumerates_nothing():
    # the ball reaches the top levels but holds no point of the coset
    coords, pts = enumerate_coset(standard_lattice("E8"), np.full(8, 0.3), 0.05)
    assert coords.shape == (0, 8) and pts.shape == (0, 8)


def test_e8_minimal_vectors():
    lat = standard_lattice("E8")
    coords, pts = enumerate_coset(lat, np.zeros(8), math.sqrt(2.0))
    assert len(coords) == 241  # origin plus the 240 roots
    norms = (pts**2).sum(axis=1)
    assert np.allclose(np.sort(norms)[1:], 2.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_enumeration_complete_vs_grid(seed):
    gen = RngStream(seed).generator()
    basis = np.eye(3) + 0.2 * gen.normal(size=(3, 3))
    lat = new_lattice(basis)
    radius = 2.0
    coords, pts = enumerate_coset(lat, np.zeros(3), radius)
    got = set(map(tuple, coords.tolist()))
    rng_grid = range(-8, 9)
    brute = set()
    for a in rng_grid:
        for b in rng_grid:
            for c in rng_grid:
                x = lat.embed(np.array([a, b, c]))
                if float(x @ x) <= radius**2 * (1 + 1e-12):
                    brute.add((a, b, c))
    assert got == brute


def test_shifted_enumeration_contains_reduction():
    lat = standard_lattice("A2")
    shift = np.array([0.3, -0.8])
    coords, pts = enumerate_coset(lat, shift, 1.5)
    assert np.allclose(pts, lat.embed(coords) + shift)
    red = shift - closest_point(lat, shift).point
    assert any(np.allclose(p, red) for p in pts)


@pytest.mark.parametrize("name", ["Z2", "A2", "D4", "E8"])
def test_dual_involution_and_volume(name):
    lat = standard_lattice(name)
    d = dual(lat)
    assert d.volume == pytest.approx(1.0 / lat.volume, rel=1e-12)
    assert np.allclose(dual(d).basis, lat.basis)


def test_dual_of_z_is_z():
    d = dual(standard_lattice("Z4"))
    assert np.allclose(d.basis, np.eye(4))


def test_e8_is_self_dual():
    lat = standard_lattice("E8")
    d = dual(lat)
    assert d.volume == pytest.approx(1.0, rel=1e-12)
    # same theta profile at the first shell: 240 vectors of norm 2
    coords, pts = enumerate_coset(d, np.zeros(8), math.sqrt(2.0))
    assert len(coords) == 241


def test_construction_a():
    lat = random_mod_p_lattice(4, 2, 5, RngStream(11))
    assert lat.volume == pytest.approx(5.0 ** (4 - 2), rel=1e-12)
    # contains 5 Z^4
    for i in range(4):
        v = np.zeros(4)
        v[i] = 5.0
        lat.coords_of(v)  # raises if not a lattice point
    assert np.allclose(lat.basis, np.rint(lat.basis))


def test_construction_a_rejects_bad_params():
    with pytest.raises(InvalidParams):
        random_mod_p_lattice(4, 2, 6, RngStream(0))  # p not prime
    with pytest.raises(InvalidParams):
        random_mod_p_lattice(4, 5, 5, RngStream(0))  # k > n


def test_nld_report():
    rep = nld(standard_lattice("Z"), 1.0)
    assert rep.nld == pytest.approx(0.0, abs=1e-12)
    assert rep.poltyrev_limit == pytest.approx(
        -0.5 * math.log(2 * math.pi * math.e), rel=1e-12)
    assert rep.margin == pytest.approx(rep.poltyrev_limit - rep.nld, rel=1e-12)
    # denser lattice, same noise: nld grows, margin shrinks
    rep2 = nld(scale_lattice(standard_lattice("Z"), 0.5), 1.0)
    assert rep2.nld > rep.nld
    assert rep2.margin < rep.margin


@pytest.mark.parametrize("name", ["Z3", "A2", "E8"])
def test_json_round_trip(name):
    lat = standard_lattice(name)
    back = from_json(to_json(lat))
    assert back.name == lat.name
    assert np.allclose(back.basis, lat.basis)


def test_json_named_form():
    lat = from_json({"name": "D3"})
    assert lat.volume == pytest.approx(2.0)
    with pytest.raises(DimensionMismatch):
        from_json({"n": 3, "basis": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(InvalidParams):
        from_json({})


COVERING = {"Z": 0.5, "Z16": 2.0, "D4": 1.0, "E8": 1.0}


@pytest.mark.parametrize("name,cov", sorted(COVERING.items()))
def test_covering_bound_exact_families(name, cov):
    assert standard_lattice(name).covering_bound == pytest.approx(cov)


COVERING_CASES = {
    **{name: (lambda name=name: standard_lattice(name)) for name in ["A2", "D3", "E8"]},
    "conA-8-4-5": lambda: _unit_volume(
        random_mod_p_lattice(8, 4, 5, RngStream(20240901, 0))),
}


@pytest.mark.parametrize("name", list(COVERING_CASES))
def test_reduction_inside_covering_bound(name):
    lat = COVERING_CASES[name]()
    gen = RngStream(5).generator()
    pts = gen.normal(0.0, 2.0, size=(200, lat.n))
    red = reduce_batch(lat, pts)
    norms = np.sqrt((red**2).sum(axis=1))
    assert norms.max() <= lat.covering_bound * (1 + 1e-9)
    # never above the Babai bound of the basis as given
    rt = np.linalg.qr(lat.basis, mode="r")
    assert lat.covering_bound <= 0.5 * math.sqrt((np.diag(rt) ** 2).sum())
    # reduction only subtracts lattice points
    lat.coords_of(pts - red)


def test_bad_bases_rejected():
    with pytest.raises(NonSquare):
        new_lattice(np.ones((3, 2)))
    with pytest.raises(SingularBasis):
        new_lattice(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("name", ["Q3", "Z0", "Z17", "D1", "E7"])
def test_unknown_names_rejected(name):
    with pytest.raises(UnknownName):
        standard_lattice(name)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        closest_point(standard_lattice("Z2"), np.array([1.0]))


@pytest.mark.parametrize("name", ["Z", "A2", "E8"])
def test_decode_batch_takes_and_returns_rows(name):
    lat = standard_lattice(name)
    assert decode_batch(lat, np.zeros((3, lat.n))).shape == (3, lat.n)
    with pytest.raises(DimensionMismatch):
        decode_batch(lat, np.zeros(lat.n))


@pytest.mark.parametrize("name", ["Z4", "A2", "E8"])
def test_decode_batch_rejects_non_finite_rows(name):
    lat = standard_lattice(name)
    ys = np.zeros((3, lat.n))
    ys[1, 0] = np.nan
    ys[2, 0] = np.inf
    with pytest.raises(InvalidParams,
                       match=r"^cannot decode row 1, it is not finite: \[nan, 0\.0"):
        decode_batch(lat, ys)


def test_budget_exceeded_names_what_the_row_needs():
    with pytest.raises(BudgetExceeded, match=r"^enumeration in n=2 at radius 1e\+07 "
                       r"needs 23094011 points at level 1, over the budget 10000000$"):
        enumerate_coset(standard_lattice("A2"), np.zeros(2), 1e7)


def test_coords_of_rejects_off_lattice():
    from latgauss.errors import InternalMismatch

    with pytest.raises(InternalMismatch):
        standard_lattice("Z2").coords_of(np.array([0.5, 0.0]))
