import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import oracle
from latgauss import cli, measures
from latgauss.codec import channel_params, codec_config
from latgauss.errors import InternalMismatch, InvalidParams
from latgauss.lattices import (
    dual,
    enumerate_coset,
    mod_lattice,
    new_lattice,
    reduce_batch,
    scale_lattice,
    standard_lattice,
)
from latgauss.measures import (
    batch_coset_stats,
    effective_noise_pdf,
    entropy_exact,
    enumerate_masses,
    flatness_factor,
    gaussian_pdf,
    mass_zero,
    random_lattice_mean_check,
    smoothing_parameter,
)
from latgauss.montecarlo import dither_audit, find_err_inv, transmission_experiment
from latgauss.rng import RngStream
from latgauss.sampling import (
    batch_coset_sample,
    sample_coset,
    sample_dither_discrete,
    sample_normal,
)

Z = standard_lattice("Z")


def brute_theta_z(scale, sigma, shift=0.0, window=80):
    """Independent one dimensional theta sum over scale*k + shift.

    A window of 80 lattice points dwarfs every sigma used below, so the
    truncation error is far under double precision.
    """
    k = np.arange(-window, window + 1, dtype=float)
    x = scale * k + shift
    return math.fsum(np.exp(-x * x / (2 * sigma**2)).tolist())


def test_gaussian_pdf_closed_form():
    x = np.array([0.3, -1.2])
    sigma = 0.8
    want = math.exp(-(0.3**2 + 1.2**2) / (2 * sigma**2)) / (2 * math.pi * sigma**2)
    assert gaussian_pdf(sigma, x) == pytest.approx(want, rel=1e-14)
    # batched last-axis convention
    batch = gaussian_pdf(sigma, np.stack([x, np.zeros(2)]))
    assert batch.shape == (2,)
    assert batch[1] == pytest.approx(1.0 / (2 * math.pi * sigma**2), rel=1e-14)


def test_gaussian_pdf_rejects_bad_sigma():
    with pytest.raises(InvalidParams):
        gaussian_pdf(0.0, np.zeros(2))
    with pytest.raises(InvalidParams):
        gaussian_pdf(-1.0, np.zeros(2))
    with pytest.raises(InvalidParams):
        gaussian_pdf(math.inf, np.zeros(2))


@pytest.mark.parametrize("sigma", [1.0, 1 / math.sqrt(2), 0.7, 1.3])
def test_gaussian_mass_matches_brute_theta(sigma):
    got = enumerate_masses(Z, [0.0], sigma)
    want = brute_theta_z(1.0, sigma) / math.sqrt(2 * math.pi * sigma**2)
    assert got.tail <= 1e-9
    assert abs(got.mass - want) <= 2 * got.tail * want
    assert got.points.shape[0] >= 1
    assert got.radius > 0


def test_gaussian_mass_half_integer_shift():
    got = enumerate_masses(Z, [0.5], 1.0)
    want = brute_theta_z(1.0, 1.0, shift=0.5) / math.sqrt(2 * math.pi)
    assert got.mass == pytest.approx(want, rel=1e-9)


def test_gaussian_mass_known_value():
    # f_{1/sqrt(2)}(Z) = 1.0001034463724077 from the brute window
    got = enumerate_masses(Z, [0.0], 1 / math.sqrt(2), rel_tol=1e-12)
    assert got.mass == pytest.approx(1.0001034463724077, rel=1e-11)


def test_enumerate_masses_consistency():
    data = enumerate_masses(Z, [0.3], 1.0, rel_tol=1e-10)
    # log_raw_sum matches a direct fsum
    n2 = (data.points**2).sum(axis=1)
    direct = math.fsum(np.exp(-n2 / 2).tolist())
    assert math.exp(data.log_raw_sum) == pytest.approx(direct, rel=1e-12)
    assert data.tail <= 1e-10
    assert data.coords.shape[0] == data.points.shape[0]


@pytest.mark.parametrize("name, shift", [
    ("A2", [1e3 + 0.3, -0.2]),
    ("D4", np.random.default_rng(17).normal(scale=3.0, size=4)),
])
def test_enumerate_masses_matches_the_brute_law(name, shift):
    lat = standard_lattice(name)
    sigma = 0.8
    t = np.asarray(shift, dtype=float)
    law = enumerate_masses(lat, t, sigma, rel_tol=1e-13)
    # brute force over every coset point in a ball 3 sigma wider
    _, pts = enumerate_coset(lat, mod_lattice(lat, t), law.radius + 3 * sigma)
    n2 = (pts**2).sum(axis=1)
    w = np.exp(-n2 / (2 * sigma**2))
    raw = math.fsum(w.tolist())
    p = w / raw
    assert law.mass == pytest.approx(raw / (2 * math.pi * sigma**2) ** (lat.n / 2), rel=1e-10)
    assert law.power == pytest.approx(math.fsum((p * n2).tolist()), rel=1e-10)
    assert law.entropy == pytest.approx(-math.fsum((p * np.log(p)).tolist()), rel=1e-10)
    # the law is anchored to the caller's shift and sorted by decreasing mass
    np.testing.assert_array_equal(law.points, t + lat.embed(law.coords))
    assert np.all(np.diff(law.probs) <= 0)


def test_enumerate_masses_rejects_bad_args():
    with pytest.raises(InvalidParams):
        enumerate_masses(Z, [0.0], -1.0)
    with pytest.raises(InvalidParams):
        enumerate_masses(Z, [0.0], 1.0, rel_tol=0.0)
    with pytest.raises(InvalidParams):
        enumerate_masses(Z, [0.0], 1.0, rel_tol=1.0)


def test_mass_zero_matches_brute():
    want = 1.0 / brute_theta_z(1.0, 1.0)
    assert mass_zero(Z, 1.0, rel_tol=1e-13) == pytest.approx(want, rel=1e-12)
    # default certification is 1e-9 relative
    assert mass_zero(Z, 1.0) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("name, sigma, tol", [
    ("A2", 0.7, 1e-13), ("D4", 1.3, 1e-9), ("E8", 0.4, 1e-9),
])
def test_mass_zero_is_the_centred_law(name, sigma, tol):
    # bit for bit: the centred sum is the enumerated law's own log_raw_sum
    lat = standard_lattice(name)
    law = enumerate_masses(lat, np.zeros(lat.n), sigma, tol)
    assert mass_zero(lat, sigma, tol) == math.exp(-law.log_raw_sum)


def test_mass_zero_rejects_bad_args():
    with pytest.raises(InvalidParams):
        mass_zero(Z, -1.0)
    with pytest.raises(InvalidParams):
        mass_zero(Z, 1.0, rel_tol=1.0)


def test_mass_zero_sparse_lattice_is_nearly_one():
    p0 = mass_zero(scale_lattice(Z, 10.0), 1.0)
    assert 1.0 - 1e-21 <= p0 <= 1.0


@pytest.mark.parametrize("name", ["Z", "A2", "D4"])
@pytest.mark.parametrize("sigma", [0.7, 1.3])
def test_poisson_summation_identity(name, sigma):
    # raw theta of the lattice equals (2 pi sigma^2)^{n/2} / V times the raw
    # theta of the dual at sigma_d = 1 / (2 pi sigma)
    lat = standard_lattice(name)
    n = lat.n
    lhs = enumerate_masses(lat, np.zeros(n), sigma, rel_tol=1e-12).mass
    rhs_raw = enumerate_masses(dual(lat), np.zeros(n), 1.0 / (2 * math.pi * sigma), rel_tol=1e-12)
    sig_d = 1.0 / (2 * math.pi * sigma)
    dual_theta = rhs_raw.mass * (2 * math.pi * sig_d**2) ** (n / 2)
    assert lhs == pytest.approx(dual_theta / lat.volume, rel=1e-10)


def test_poisson_summation_e8_self_dual():
    # E8 is self dual with volume one, so both sides of the identity run on
    # the native basis; sigma 0.5 keeps the primal support around 5e5 points
    e8 = standard_lattice("E8")
    sig = 0.5
    sig_d = 1.0 / (2 * math.pi * sig)
    lhs = enumerate_masses(e8, np.zeros(8), sig, rel_tol=1e-10).mass
    rhs_raw = enumerate_masses(e8, np.zeros(8), sig_d, rel_tol=1e-10).mass
    assert lhs == pytest.approx(rhs_raw * (2 * math.pi * sig_d**2) ** 4, rel=1e-10)


def test_entropy_matches_brute():
    k = np.arange(-80, 81, dtype=float)
    w = np.exp(-k * k / 2)
    p = w / w.sum()
    p = p[p > 0]
    want = float(-(p * np.log(p)).sum())
    assert entropy_exact(Z, [0.0], 1.0) == pytest.approx(want, abs=1e-9)


def test_entropy_tiny_value_resolved():
    # 10Z at sigma 1 is almost surely the origin; the entropy identity still
    # resolves the 1e-20 tail instead of flushing it to zero
    h = entropy_exact(scale_lattice(Z, 10.0), [0.0], 1.0, tol=1e-21)
    assert h == pytest.approx(1.9287498479639178e-20, rel=1e-6)


def test_entropy_mismatch_names_its_parameters(monkeypatch):
    # a wrong identity route must be caught by the direct route, and the
    # message must carry what is needed to reproduce it
    real = measures.batch_coset_stats

    def off(*args, **kwargs):
        got = real(*args, **kwargs)
        return {**got, "mass": got["mass"] * 1.01}

    monkeypatch.setattr(measures, "batch_coset_stats", off)
    with pytest.raises(InternalMismatch,
                       match=r"n=1 at sigma=0\.9, tol=1e-09: identity \S+ vs direct \S+"):
        entropy_exact(Z, [0.25], 0.9)


def test_entropy_shift_invariance_under_lattice_translation():
    a = entropy_exact(Z, [0.25], 0.9)
    b = entropy_exact(Z, [3.25], 0.9)
    assert a == pytest.approx(b, rel=1e-12)


def brute_smoothing_z(eps):
    k = np.arange(1, 300, dtype=float)

    def g(s):
        return 2.0 * math.fsum(np.exp(-s * s * k * k / 2).tolist()) - eps

    return brentq(g, 0.3, 20.0, xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize("eps", [0.01, 0.5])
def test_smoothing_parameter_matches_brute(eps):
    got = smoothing_parameter(Z, eps)
    assert got.s == pytest.approx(brute_smoothing_z(eps), rel=1e-12)
    assert got.eps == eps
    assert got.residual <= 1e-12


def test_smoothing_parameter_monotone_in_eps():
    assert smoothing_parameter(Z, 0.001).s > smoothing_parameter(Z, 0.1).s


def test_smoothing_parameter_rejects_bad_eps():
    with pytest.raises(InvalidParams):
        smoothing_parameter(Z, 0.0)
    with pytest.raises(InvalidParams):
        smoothing_parameter(Z, 1.0)


def e8_smoothing_by_theta_series(eps):
    # theta_E8 = 1 + sum_m 240 sigma_3(m) q^m, the shell m of norm^2 2m
    # (Conway & Sloane, SPLAG ch. 4)
    k = np.arange(1, 200)
    sigma3 = np.array([sum(d**3 for d in range(1, m + 1) if m % d == 0) for m in k],
                      dtype=float)

    def g(s):
        return math.fsum((240 * sigma3 * np.exp(-k * s * s)).tolist()) - eps

    return brentq(g, 0.1, 10.0, xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.5])
@pytest.mark.parametrize("self_dual", [False, True], ids=["E8", "dual-E8"])
def test_smoothing_parameter_matches_e8_theta_series(eps, self_dual):
    lat = standard_lattice("E8")
    got = smoothing_parameter(dual(lat) if self_dual else lat, eps)
    assert got.s == pytest.approx(e8_smoothing_by_theta_series(eps), rel=1e-12)
    assert got.residual <= 1e-12


def test_smoothing_parameter_enumerates_about_ten_balls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_coset(*args, **kwargs)

    monkeypatch.setattr(measures, "enumerate_coset", counted)
    smoothing_parameter(dual(standard_lattice("E8")), 0.05)
    assert len(calls) <= 12


@pytest.mark.parametrize("lat, lam1, count", [
    (Z, 1.0, 2),
    (standard_lattice("Z3"), 1.0, 6),
    (standard_lattice("A2"), 1.0, 6),
    (standard_lattice("D4"), math.sqrt(2.0), 24),
    (standard_lattice("E8"), math.sqrt(2.0), 240),
    (dual(standard_lattice("E8")), math.sqrt(2.0), 240),
    (standard_lattice("D16"), math.sqrt(2.0), 480),
], ids=["Z", "Z3", "A2", "D4", "E8", "dual-E8", "D16"])
def test_shortest_norm_counts_the_shortest_vectors(lat, lam1, count):
    got = measures._shortest_norm(lat)
    assert got[0] == pytest.approx(lam1, rel=1e-14)
    assert got[1] == count


def test_flatness_bracket_orders_and_certifies():
    got = flatness_factor(Z, 1.0, samples=128, seed=0)
    # rigorous upper: dual theta tail 2 exp(-2 pi^2) plus the enumeration
    # tail allowance; the sampled lower bound must sit underneath
    analytic = 2 * math.exp(-2 * math.pi**2) + 2 * math.exp(-8 * math.pi**2)
    assert analytic <= got.upper <= analytic + 2e-12
    assert 0.0 < got.lower <= got.upper
    # at this sigma the bracket pins the flatness to within a percent
    assert got.upper - got.lower <= 0.01 * got.upper
    assert got.samples == 128


def test_flatness_bracket_generic_lattice():
    got = flatness_factor(standard_lattice("A2"), 0.8, samples=64, seed=1)
    assert 0.0 < got.lower <= got.upper


def test_flatness_rejects_bad_args():
    with pytest.raises(InvalidParams):
        flatness_factor(Z, 0.0)
    with pytest.raises(InvalidParams):
        flatness_factor(Z, 1.0, samples=0)


def test_batch_coset_stats_fast_path_matches_generic():
    # a sheared basis generates the same c*Z^n but defeats the factorized
    # route, so the two code paths must agree on identical shifts
    for c, shear in [(1.0, [[1.0, 1.0], [0.0, 1.0]]),
                     (0.7, [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])]:
        n = len(shear)
        zn = scale_lattice(standard_lattice(f"Z{n}"), c)
        sheared = new_lattice(c * np.array(shear))
        pts = reduce_batch(zn, np.random.default_rng(3).normal(size=(40, n)))
        fast = batch_coset_stats(zn, pts, 0.9)
        slow = batch_coset_stats(sheared, pts, 0.9)
        np.testing.assert_allclose(fast["mass"], slow["mass"], rtol=1e-10)
        np.testing.assert_allclose(fast["power"], slow["power"], rtol=1e-10)


def test_batch_coset_stats_matches_scalar_mass():
    z2 = standard_lattice("Z2")
    pts = reduce_batch(z2, np.random.default_rng(4).normal(size=(10, 2)))
    z3 = scale_lattice(standard_lattice("Z3"), 0.7)
    pts3 = reduce_batch(z3, np.random.default_rng(4).normal(size=(10, 3)))
    pts3 = np.vstack([pts3, [0.35, 0.35, 0.35]])  # a deep hole
    for lat, rows in [(z2, pts), (z3, pts3)]:
        got = batch_coset_stats(lat, rows, 0.9)
        for row, m in zip(rows, got["mass"]):
            assert m == pytest.approx(enumerate_masses(lat, row, 0.9).mass, rel=1e-10)


# (lattice, sigma): a generic lattice, which shares one padded support, and
# three closed-form families, which run the factorized kernel
UNREDUCED_CASES = [(standard_lattice("A2"), 0.5),
                   (scale_lattice(standard_lattice("D4"), 1.3), 0.5),
                   (standard_lattice("E8"), 0.25),
                   (scale_lattice(standard_lattice("Z3"), -0.7), 0.5)]
UNREDUCED_IDS = ["A2", "1.3D4", "E8", "-0.7Z3"]


def unreduced_rows(lat, seed):
    """(t, t + B v): reduced rows and the same cosets far from the cell."""
    gen = np.random.default_rng(seed)
    t = reduce_batch(lat, gen.normal(size=(12, lat.n)))
    return t, t + lat.embed(gen.integers(-4, 5, size=t.shape))


@pytest.mark.parametrize("lat,sigma", UNREDUCED_CASES, ids=UNREDUCED_IDS)
def test_batch_coset_stats_accepts_any_shift(lat, sigma):
    t, far = unreduced_rows(lat, 5)
    near = batch_coset_stats(lat, t, sigma)
    got = batch_coset_stats(lat, far, sigma)
    assert np.all(got["tail"] <= 1e-9)
    np.testing.assert_allclose(got["mass"], near["mass"], rtol=1e-12)
    np.testing.assert_allclose(got["power"], near["power"], rtol=1e-12)
    want = [enumerate_masses(lat, row, sigma).mass for row in far]
    np.testing.assert_allclose(got["mass"], want, rtol=1e-9)


def test_batch_coset_stats_power_oracle():
    got = batch_coset_stats(Z, np.array([[0.0], [0.3]]), 1.0)
    k = np.arange(-80, 81, dtype=float)
    for shift, power in zip((0.0, 0.3), got["power"]):
        x = k + shift
        w = np.exp(-x * x / 2)
        want = float((w * x * x).sum() / w.sum())
        assert power == pytest.approx(want, rel=1e-10)


def test_kernel_matches_line_product_on_z16():
    # Z^16 is the product of 16 laws on the line: the mass is the product of
    # direct line sums and the power the sum of the line powers
    z16 = standard_lattice("Z16")
    t = np.random.default_rng(7).normal(size=(6, 16)) * 2
    got = batch_coset_stats(z16, t, 1.0, rel_tol=1e-13)
    k = np.arange(-80, 81, dtype=float)
    for row, mass, power in zip(t, got["mass"], got["power"]):
        x = k[None, :] + row[:, None]
        w = np.exp(-x * x / 2)
        lines = w.sum(axis=1)
        assert mass == pytest.approx(np.prod(lines) / (2 * math.pi) ** 8, rel=1e-12)
        assert power == pytest.approx(((w * x * x).sum(axis=1) / lines).sum(), rel=1e-12)
    assert np.all(got["tail"] <= 1e-13)


def family_rows(lat, seed):
    """Random shifts, then the deep holes: (-0.999 c, 0, ..., 0) and c/2 * 1."""
    c = lat.family[1]
    deep = np.zeros((2, lat.n))
    deep[0, 0] = -0.999 * c
    deep[1] = c / 2
    return np.vstack([np.random.default_rng(seed).normal(size=(4, lat.n)) * c, deep])


@pytest.mark.parametrize("lat,sigma", [
    (standard_lattice("E8"), 0.4),
    *((scale_lattice(standard_lattice("D8"), c), 1.0) for c in (4.0, 6.0, 8.0)),
], ids=["E8", "4D8", "6D8", "8D8"])
def test_kernel_matches_the_enumerated_law(lat, sigma):
    # near 8 D8's (-0.999 c, 0, ..., 0) the even coset is 2e-13 of the odd
    # one, where a parity identity of the form (prod(e + o) + prod(e - o)) / 2
    # would cancel to 2.8e-4
    rows = family_rows(lat, 8)
    got = batch_coset_stats(lat, rows, sigma, rel_tol=1e-13)
    assert np.all(got["tail"] <= 1e-13)
    for row, mass, power in zip(rows, got["mass"], got["power"]):
        law = enumerate_masses(lat, row, sigma, 1e-13)
        assert mass == pytest.approx(law.mass, rel=1e-12)
        assert power == pytest.approx(law.power, rel=1e-12, abs=0)
        entropy = math.log(mass * (2 * math.pi * sigma**2) ** (lat.n / 2)) + power / (2 * sigma**2)
        assert entropy == pytest.approx(law.entropy, rel=1e-12, abs=1e-12)


def test_kernel_keeps_the_power_where_the_mass_underflows():
    # 8 D8 at sigma 0.1: near (-0.999 c, 0, ..., 0) the even coset carries
    # about exp(-3200) of the odd one, beyond the range of a double
    lat = scale_lattice(standard_lattice("D8"), 8.0)
    rows = family_rows(lat, 8)
    got = batch_coset_stats(lat, rows, 0.1, rel_tol=1e-13)
    for row, power in zip(rows, got["power"]):
        assert power == pytest.approx(enumerate_masses(lat, row, 0.1, 1e-13).power,
                                      rel=1e-12, abs=0)
    pts, coords = batch_coset_sample(lat, rows, 0.1, RngStream(3))
    np.testing.assert_array_equal(pts, rows + lat.embed(coords))


@pytest.mark.parametrize("name", ["Z", "Z4", "D4", "E8"])
@pytest.mark.parametrize("c", [2.0, 4.0, 6.0, 8.0])
def test_kernel_matches_the_decimal_oracle(name, c):
    # at 8 D4 the centred row's power is made of odd-parity shares near
    # e^-64 of the total, which a share formed as 1 - share rounds away
    lat = scale_lattice(standard_lattice(name), c)
    rows = np.vstack([np.zeros(lat.n), np.random.default_rng(4).normal(size=(4, lat.n)) * c])
    got = batch_coset_stats(lat, rows, 1.0, rel_tol=1e-13)
    for row, mass, power in zip(rows, got["mass"], got["power"]):
        assert power == pytest.approx(oracle.power(lat.family[0], c, row, 1.0),
                                      rel=1e-13, abs=0)
        assert mass == pytest.approx(oracle.mass(lat.family[0], c, row, 1.0),
                                     rel=1e-13, abs=0)


def test_coset_laws_take_one_path(monkeypatch):
    # enumerate_masses is the discrete suite's reference law: every other
    # coset mass and entropy reads batch_coset_stats
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_masses called")

    monkeypatch.setattr(measures, "enumerate_masses", refuse)
    assert not hasattr(cli, "enumerate_masses")
    for lat, sigma in ((Z, 1.0), (standard_lattice("A2"), 1.0), (standard_lattice("E8"), 0.4)):
        assert entropy_exact(lat, np.full(lat.n, 0.3), sigma) > 0
    assert effective_noise_pdf(Z, channel_params(1.0, 1.0), [0.3]) > 0
    assert random_lattice_mean_check(2, 4.0, 3, 1.0, RngStream(5))["trials"] == 3
    for name in ("Z2", "A2"):
        assert cli.run(["measure", "--lattice", name, "--sigma", "1", "--seed", "2"]) == 0


@pytest.mark.parametrize("lat", [standard_lattice("Z16"),
                                 scale_lattice(standard_lattice("D8"), 4.0),
                                 standard_lattice("E8"),
                                 scale_lattice(standard_lattice("Z3"), -0.7)],
                         ids=["Z16", "4D8", "E8", "-0.7Z3"])
def test_families_never_enumerate(lat, monkeypatch):
    # the closed-form families run the kernel alone; only a generic lattice
    # reaches the enumerated support
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_coset called")

    monkeypatch.setattr("latgauss.measures.enumerate_coset", refuse)
    rows = np.random.default_rng(9).normal(size=(50, lat.n))
    got = batch_coset_stats(lat, rows, 1.0)
    assert np.all(got["tail"] <= 1e-9) and np.all(got["mass"] > 0)
    pts, coords = batch_coset_sample(lat, rows, 1.0, RngStream(9))
    np.testing.assert_array_equal(pts, rows + lat.embed(coords))
    # the per-dither audit and the rate proxy read the same blocks
    config = codec_config(lat, 1.0, channel_params(1.0, 1.0))
    audit = dither_audit(config, rows[0], 0.05, 200, RngStream(9))
    assert audit.mass > 0 and audit.err_rate.trials == 200
    assert transmission_experiment(config, 50, RngStream(9))["rate_proxy"] > 0
    # so do the effective-noise density and the one-dimensional Siegel mean
    assert effective_noise_pdf(lat, channel_params(1.0, 1.0), rows[0]) > 0
    assert random_lattice_mean_check(1, 2.0, 3, 1.0, RngStream(9))["stderr"] == 0.0
    a2 = standard_lattice("A2")
    with pytest.raises(AssertionError, match="enumerate_coset"):
        batch_coset_stats(a2, rows[:, :2], 1.0)
    with pytest.raises(AssertionError, match="enumerate_coset"):
        batch_coset_sample(a2, rows[:, :2], 1.0, RngStream(9))
    with pytest.raises(AssertionError, match="enumerate_coset"):
        dither_audit(codec_config(a2, 1.0, channel_params(1.0, 1.0)), rows[0, :2],
                     0.05, 200, RngStream(9))
    # a single law and the discrete dither read the same blocks
    x = sample_coset(lat, rows[0], 1.0, RngStream(9), 500)
    assert x.shape == (500, lat.n)
    lat.coords_of(x - rows[0])  # raises unless every draw is on the coset
    t = sample_dither_discrete(scale_lattice(lat, 2.0), lat, 1.0, RngStream(9), 500)
    assert t.shape == (500, lat.n)
    lat.coords_of(t)
    with pytest.raises(AssertionError, match="enumerate_coset"):
        sample_coset(a2, rows[0, :2], 1.0, RngStream(9), 500)


def test_kernel_draws_the_same_in_passes(monkeypatch):
    # a kernel block takes its draws in passes bounded by _BLOCK_ENTRIES;
    # the uniforms come in order, so smaller passes draw the same points
    gen = np.random.default_rng(8)
    (e8,) = measures.coset_blocks(standard_lattice("E8"), gen.normal(size=(1, 8)), 1.0, 1e-12)
    (z16,) = measures.coset_blocks(standard_lattice("Z16"), gen.normal(size=(300, 16)) * 2,
                                   2.0, 1e-12)
    # built before the patch, which would also size them
    cases = [(e8, 5000), (e8, 3), (z16, 3)]
    want = [b.draw(RngStream(5).generator(), k) for b, k in cases]
    monkeypatch.setattr(measures, "_BLOCK_ENTRIES", 1000)
    for (b, k), coords in zip(cases, want):
        assert coords.shape == (b.anchors.shape[0] * k, b.anchors.shape[1])
        np.testing.assert_array_equal(b.draw(RngStream(5).generator(), k), coords)


def kernel_draws(lat, rows, sigma, rel_tol, gen, k):
    """k draws per row from the coset_blocks of rows, block after block."""
    return np.concatenate([b.draw(gen, k) for b in
                           measures.coset_blocks(lat, rows, sigma, rel_tol)])


def pinned_draw_cases():
    e8 = standard_lattice("E8")
    p = channel_params(1.0, 1.0)
    # the law of the first dither a default theorem1 verdict audits at seed 7
    audit = codec_config(e8, find_err_inv(e8, 0.05, rng=RngStream(7).child(0)) * p.sigma_eff,
                         p, dither="cont")
    t = sample_normal(p.sigma_s, 8, RngStream(7).child(1000), trials=1)
    yield "E8 audit", (audit.scaled, t, p.sigma_s, 1e-12,
                       RngStream(7).child(2000).child(0).generator(), 2000)
    # one codec-e8 block: 256 rows of 5/sqrt(2) E8, one draw each
    codec = codec_config(e8, 5.0 * p.sigma_eff, p, dither="cont", peak="off")
    t = np.random.default_rng(311).standard_normal((256, 8))
    yield "5/sqrt2 E8 rows", (codec.scaled, t, p.sigma_s, 1e-9,
                              RngStream(311).child(0).generator(), 1)
    yield "Z16 at sigma 2", (standard_lattice("Z16"), np.zeros((1, 16)), 2.0, 1e-12,
                             RngStream(3).generator(), 100_000)
    # both deep holes of 8 D8, where the even coset underflows next to the odd
    deep = np.zeros((2, 8))
    deep[0, 0], deep[1] = -0.999 * 8.0, 4.0
    yield "8 D8 deep holes", (scale_lattice(standard_lattice("D8"), 8.0), deep, 0.1, 1e-12,
                              RngStream(4).generator(), 500)
    yield "-0.7 Z3 rows", (scale_lattice(standard_lattice("Z3"), -0.7),
                           np.random.default_rng(9).normal(size=(50, 3)), 1.0, 1e-9,
                           RngStream(9).generator(), 3)


PINNED_DRAWS = {
    "E8 audit": "0cc32edb72253f7ea6b8bb9672af56f50798d338854740ce89691fd86323ba00",
    "5/sqrt2 E8 rows": "ad4915932d63f00db18995e018f9fabfbcf40ceb37c697a09b727fdc795c9634",
    "Z16 at sigma 2": "31d4f72ddab3394b96a5a78d77bd7ca46be69c9ac9d2c5574d36da248b1e83c0",
    "8 D8 deep holes": "54cb4b3ea646eb17bad229bf5585def0c614953f42deef3799e5e086edd9b37e",
    "-0.7 Z3 rows": "f27babf82963b9de413f96a9be21252666b55654c13fadc5c2e819ce7c0ca6bf",
}


def test_kernel_draws_are_pinned():
    # the int64 coordinates of fixed-seed draws, by sha256: a change to the
    # kernel's draw must keep them byte for byte (recorded with numpy 2.4.6;
    # the same with numpy's AVX-512 paths switched off)
    for name, args in pinned_draw_cases():
        coords = kernel_draws(*args)
        assert coords.dtype == np.int64
        got = hashlib.sha256(np.ascontiguousarray(coords).tobytes()).hexdigest()
        assert got == PINNED_DRAWS[name], name


@pytest.mark.parametrize("lat,row,sigma", [
    (standard_lattice("E8"), np.random.default_rng(2).normal(size=8), 0.4),
    (scale_lattice(standard_lattice("D8"), 8.0), np.r_[-0.999 * 8.0, np.zeros(7)], 0.1),
    (scale_lattice(standard_lattice("Z3"), -0.7), np.array([0.3, -1.2, 2.0]), 1.0),
], ids=["E8", "8D8", "-0.7Z3"])
def test_kernel_draws_one_law_as_its_repeated_row(lat, row, sigma):
    # k draws from one row take the uniforms as one draw from each of k
    # copies of the row: one law or k equal laws give the same points
    k = 700
    (one,) = measures.coset_blocks(lat, row[None], sigma, 1e-12)
    many = kernel_draws(lat, np.tile(row, (k, 1)), sigma, 1e-12, RngStream(6).generator(), 1)
    np.testing.assert_array_equal(one.draw(RngStream(6).generator(), k), many)


# E8 at the scale a default `simulate --lattice E8 --snr 1` codes with
SIMULATE_E8 = scale_lattice(standard_lattice("E8"), 4.7626 * math.sqrt(0.5))


def split_cases():
    gen = np.random.default_rng(12)
    deep = np.zeros((200, 8))
    deep[::2, 0], deep[1::2] = -0.999 * 8.0, 4.0
    yield SIMULATE_E8, gen.normal(size=(1000, 8)) * 3, math.sqrt(0.5)
    yield standard_lattice("Z16"), gen.normal(size=(200, 16)) * 2, 2.0
    yield (scale_lattice(standard_lattice("D8"), 8.0),
           deep + gen.normal(size=deep.shape) * 1e-3, 0.1)


@pytest.mark.parametrize("lat,rows,sigma", split_cases(), ids=["E8", "Z16", "8D8"])
def test_kernel_blocks_split_without_moving_a_bit(lat, rows, sigma, monkeypatch):
    # every row is computed on its own, on the window of the whole batch,
    # so many small blocks give the masses, powers, tails and draws of one
    assert len(list(measures.coset_blocks(lat, rows, sigma, 1e-9))) == 1
    one = batch_coset_stats(lat, rows, sigma)
    drawn = batch_coset_sample(lat, rows, sigma, RngStream(4))[1]
    monkeypatch.setattr(measures, "_BLOCK_ENTRIES", 2000)
    assert len(list(measures.coset_blocks(lat, rows, sigma, 1e-9))) >= 20
    split = batch_coset_stats(lat, rows, sigma)
    for key in ("mass", "power", "tail"):
        np.testing.assert_array_equal(split[key], one[key])
    np.testing.assert_array_equal(batch_coset_sample(lat, rows, sigma, RngStream(4))[1], drawn)


def test_a_large_batch_holds_one_block_at_a_time():
    # 100k rows: a block holds at most _BLOCK_ENTRIES entries while it is
    # built, and the previous block's kept arrays (fewer) live on until it
    # is done; the batch's own arrays (anchors, reduced rows, y, centre and
    # delta per half-coset, the outputs) take about 72 entries a row on E8,
    # and decoding the rows fewer, rounded up here to 100
    m = 100_000
    rows = np.random.default_rng(0).normal(size=(m, 8)) * 3
    tracemalloc.start()
    try:
        batch_coset_stats(SIMULATE_E8, rows, math.sqrt(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * measures._BLOCK_ENTRIES + 100 * m)


def test_effective_noise_pdf_matches_brute():
    params = channel_params(1.0, 1.0)
    assert params.alpha == pytest.approx(0.5)
    assert params.sigma_eff2 == pytest.approx(0.5)

    def brute(w):
        num = brute_theta_z(1.0, math.sqrt(0.5), shift=w) / math.sqrt(2 * math.pi * 0.5)
        den = brute_theta_z(1.0, 1.0) / math.sqrt(2 * math.pi)
        f_eff = math.exp(-w * w) / math.sqrt(math.pi)
        return f_eff * num / den

    assert effective_noise_pdf(Z, params, [0.0]) == pytest.approx(brute(0.0), rel=1e-9)
    assert effective_noise_pdf(Z, params, [0.3]) == pytest.approx(brute(0.3), rel=1e-9)
    assert effective_noise_pdf(Z, params, [0.0]) == pytest.approx(0.564247943894473, rel=1e-9)


def test_effective_noise_pdf_integrates_to_one():
    # the folded density is a genuine density: convolving the pieces
    # telescopes back to f_{sigma_s}(Lambda) in the numerator
    params = channel_params(1.0, 1.0)
    val, err = quad(lambda w: effective_noise_pdf(Z, params, [w]), -9, 9, limit=200)
    assert err < 1e-8
    assert val == pytest.approx(1.0, abs=1e-7)


def test_effective_noise_bounds():
    # (1 + flatness at sqrt(alpha) sigma_s) f_sigma_eff dominates the exact
    # density wherever we look
    params = channel_params(1.0, 1.0)
    sigma = math.sqrt(params.alpha) * math.sqrt(params.sigma_s2)
    flat = flatness_factor(Z, sigma, samples=2).upper
    for w in (0.0, 0.2, 0.45):
        bound = (1.0 + flat) * gaussian_pdf(math.sqrt(params.sigma_eff2), [w])
        assert effective_noise_pdf(Z, params, [w]) <= bound


def test_random_lattice_mean_tracks_prediction():
    got = random_lattice_mean_check(2, 4.0, 60, 1.0, RngStream(5))
    want = 1.0 / (2 * math.pi) + 0.25
    assert got["predicted"] == pytest.approx(want, rel=1e-12)
    assert abs(got["empirical"] - got["predicted"]) <= 5 * got["stderr"]
    assert got["trials"] == 60


def test_random_lattice_mean_one_dimension_is_deterministic():
    got = random_lattice_mean_check(1, 2.0, 3, 1.0, RngStream(5))
    want = enumerate_masses(scale_lattice(Z, 2.0), [0.0], 1.0).mass
    assert got["empirical"] == pytest.approx(want, rel=1e-12)
    assert got["stderr"] == 0.0


def test_random_lattice_mean_rejects_single_trial():
    with pytest.raises(InvalidParams):
        random_lattice_mean_check(2, 1.0, 1, 1.0, RngStream(0))
