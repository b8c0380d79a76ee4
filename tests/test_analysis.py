import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from latgauss.analysis import (
    capacity,
    cdlp_sandwich,
    dispersion,
    dither_rate_bound,
    finite_blocklength,
    max_nld,
    q_inverse,
    theorem1_gap,
)
from latgauss.errors import InvalidParams, NonPositive
from latgauss.lattices import standard_lattice
from latgauss.montecarlo import zn_err_inv
from latgauss.rng import RngStream


def test_capacity_values_and_guard():
    assert capacity(1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert capacity(1.0) == pytest.approx(0.34657359027997264, abs=1e-12)
    with pytest.raises(NonPositive):
        capacity(0.0)


def test_dispersion_values_and_limit():
    assert dispersion(1.0) == pytest.approx(0.375, abs=1e-15)
    assert dispersion(1e6) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(NonPositive):
        dispersion(-1.0)


@pytest.mark.parametrize("p", [1e-300, 1e-6, 0.025, 0.3, 0.5, 0.9, 1 - 1e-12])
def test_q_inverse_round_trip(p):
    x = q_inverse(p)
    assert abs(float(stats.norm.sf(x)) - p) <= 1e-10


def test_q_inverse_known_points():
    assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)
    assert q_inverse(0.05) == pytest.approx(float(stats.norm.isf(0.05)), abs=1e-10)
    assert q_inverse(0.05) == pytest.approx(1.6448536269514729, abs=1e-10)
    with pytest.raises(InvalidParams):
        q_inverse(0.0)
    with pytest.raises(InvalidParams):
        q_inverse(1.0)


def test_max_nld_closed_form():
    assert max_nld(1.0) == pytest.approx(-0.5 * math.log(2 * math.pi * math.e), rel=1e-14)
    assert max_nld(0.5) == pytest.approx(max_nld(1.0) - math.log(0.5), rel=1e-12)
    with pytest.raises(NonPositive):
        max_nld(0.0)


def test_theorem1_gap_value_and_monotonicity():
    assert theorem1_gap(1.0, 100) == pytest.approx(0.24, abs=1e-12)
    gaps = [theorem1_gap(2.0, n) for n in (4, 8, 16, 64, 256)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the log-gamma part is n-free
    assert theorem1_gap(2.0, 100) - theorem1_gap(1.0, 100) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-12
    )
    with pytest.raises(InvalidParams):
        theorem1_gap(0.0, 10)
    with pytest.raises(InvalidParams):
        theorem1_gap(1.0, 0)


def test_finite_blocklength_report():
    got = finite_blocklength(1.0, 100, 0.05, gamma=1.0)
    qi = q_inverse(0.05)
    assert got.capacity == pytest.approx(capacity(1.0))
    assert got.dispersion == pytest.approx(0.375)
    assert got.normal_approx_rate == pytest.approx(
        got.capacity - math.sqrt(0.375 / 100) * qi, rel=1e-12
    )
    # default noise scale is the effective MMSE level sqrt(snr/(1+snr))
    assert got.sigma == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert got.delta_eps_n == pytest.approx(
        max_nld(got.sigma) - math.sqrt(0.5 / 100) * qi, rel=1e-12
    )
    assert got.theorem1_gap == pytest.approx(0.24, abs=1e-12)
    assert got.intro_gap == pytest.approx(0.3163087153676674, abs=1e-12)
    assert got.intro_gap == pytest.approx((qi + math.sqrt(8.0)) / math.sqrt(200.0))


def test_finite_blocklength_optional_gamma_and_sigma():
    got = finite_blocklength(1.0, 64, 0.1)
    assert got.theorem1_gap is None
    fixed = finite_blocklength(1.0, 64, 0.1, sigma=1.0)
    assert fixed.sigma == 1.0
    assert fixed.delta_eps_n == pytest.approx(
        max_nld(1.0) - math.sqrt(0.5 / 64) * q_inverse(0.1), rel=1e-12
    )
    with pytest.raises(InvalidParams):
        finite_blocklength(1.0, 0, 0.1)
    with pytest.raises(InvalidParams):
        finite_blocklength(1.0, 64, 0.6)


def test_normal_approx_rate_approaches_capacity():
    got = finite_blocklength(1.0, 10**8, 0.05)
    assert abs(got.normal_approx_rate - got.capacity) <= 1.1e-4


def test_dither_rate_bound_values():
    got = dither_rate_bound(0.5)
    assert got["bound"] == pytest.approx(0.5 * (1 - math.log(1.5)), rel=1e-14)
    assert got["bound"] == pytest.approx(0.2972674459459178, abs=1e-12)
    assert not got["no_dither_needed"]
    high = dither_rate_bound(3.0)
    assert high["bound"] == 0.0
    assert high["no_dither_needed"]
    edge = dither_rate_bound(math.e - 1.0)
    assert edge["bound"] == 0.0
    assert edge["no_dither_needed"]
    with pytest.raises(NonPositive):
        dither_rate_bound(0.0)


def eta_z_brute(eps):
    # independent root of 2 sum_k exp(-s^2 k^2 / 2) = eps
    k = np.arange(1, 400, dtype=float)

    def f(s):
        return 2.0 * math.fsum(np.exp(-s * s * k * k / 2).tolist()) - eps

    return brentq(f, 0.3, 20.0, xtol=1e-15, rtol=8.9e-16)


def test_cdlp_sandwich_on_z():
    got = cdlp_sandwich(standard_lattice("Z"), 0.05, rng=RngStream(70))
    # dual(Z) = Z, so both smoothing ends have brute oracles
    assert got["lower"] == pytest.approx(eta_z_brute(0.05 / 0.95), rel=1e-9)
    assert got["upper"] == pytest.approx(2 * eta_z_brute(0.05), rel=1e-9)
    assert got["lower"] == pytest.approx(2.6972594917045836, rel=1e-9)
    assert got["upper"] == pytest.approx(5.43241756735225, rel=1e-9)
    assert got["mid"] == pytest.approx(zn_err_inv(1, 0.05), abs=1e-2)
    assert got["lower"] < got["mid"] < got["upper"]
    assert got["ok"]
    with pytest.raises(InvalidParams):
        cdlp_sandwich(standard_lattice("Z"), 0.5, rng=RngStream(1))
