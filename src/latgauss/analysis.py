"""Closed-form rate calculators and cross-checks against sampled quantities.

Finite-blocklength normal approximations, the capacity and the shaping
theorem's rate gap (both defined in `codec` and re-exported here), the
smoothing-parameter sandwich around the inverse error function, and the
dithering-rate bound. The blocklength formulas deliberately omit
O(log n / n) correction terms; every report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import special

from .codec import capacity, theorem1_gap
from .errors import InvalidParams, NonPositive
from .lattices import Lattice, dual
from .measures import smoothing_parameter
from .montecarlo import find_err_inv
from .rng import RngStream

EXCLUDED_TERMS = "O(log n / n) corrections omitted"


def dispersion(snr) -> float:
    """Channel dispersion (1/2)(1 - 1/(1+snr)^2), nats squared."""
    if not snr > 0:
        raise NonPositive("snr must be positive")
    return 0.5 * (1.0 - 1.0 / (1.0 + snr) ** 2)


def q_inverse(p) -> float:
    """x with Q(x) = p, as -ndtri(p): |Q(x) - p| <= 2.3e-16, measured over
    p in [1e-300, 1 - 1e-15]."""
    if not 0.0 < p < 1.0:
        raise InvalidParams("p must be in (0,1)")
    return float(-special.ndtri(p))


@dataclass(frozen=True)
class FiniteBlocklengthReport:
    capacity: float
    dispersion: float
    normal_approx_rate: float
    delta_eps_n: float
    theorem1_gap: Optional[float]
    intro_gap: float
    sigma: float
    excluded: str = EXCLUDED_TERMS


def max_nld(sigma) -> float:
    """Largest normalized log density supporting reliable unconstrained
    decoding at noise level sigma: (1/2) log(1/(2 pi e sigma^2))."""
    if not sigma > 0:
        raise NonPositive("sigma must be positive")
    return -0.5 * math.log(2.0 * math.pi * math.e * sigma**2)


def finite_blocklength(snr, n, eps, gamma=None) -> FiniteBlocklengthReport:
    """Second-order rate quantities at blocklength n and error budget eps.

    The unconstrained-setting NLD delta_eps_n is taken at the effective
    noise level of the MMSE channel at unit noise power, sigma_eff =
    sqrt(snr/(1+snr)), the level the shaped code lattice actually faces;
    the report carries it as sigma. All formulas drop O(log n / n) terms.
    """
    if not n >= 1:
        raise InvalidParams("n must be at least 1")
    if not 0.0 < eps <= 0.5:
        raise InvalidParams("eps must be in (0, 0.5]")
    c = capacity(snr)
    v = dispersion(snr)
    qi = q_inverse(eps)
    sigma = math.sqrt(snr / (1.0 + snr))
    return FiniteBlocklengthReport(
        capacity=c,
        dispersion=v,
        normal_approx_rate=c - math.sqrt(v / n) * qi,
        delta_eps_n=max_nld(sigma) - math.sqrt(0.5 / n) * qi,
        theorem1_gap=None if gamma is None else theorem1_gap(gamma, n),
        intro_gap=(qi + math.sqrt(8.0)) / math.sqrt(2.0 * n),
        sigma=sigma,
    )


def dither_rate_bound(snr) -> dict:
    """Shared-randomness rate needed by the dithered scheme.

    max(0, (1/2)(1 - log(1+snr))) nats per use; from snr = e - 1 on the
    bound hits zero and no dither is necessary. The vanishing delta_n
    term is omitted.
    """
    if not snr > 0:
        raise NonPositive("snr must be positive")
    raw = 0.5 * (1.0 - math.log1p(snr))
    return {"bound": max(0.0, raw), "no_dither_needed": raw <= 0.0}


def cdlp_sandwich(lat: Lattice, eps, *, rng: RngStream) -> dict:
    """Smoothing-parameter sandwich around the inverse error function.

    eta_{eps/(1-eps)}(dual) <= err_inv_eps(lat) <= 2 eta_eps(dual); the
    middle term, found first, is find_err_inv: exact on Zn, Dn and E8 (which
    refuse eps below 1e-6 before any smoothing work), Monte Carlo to a
    relative 1e-3 elsewhere, so ok allows that CI-scale slack on both
    comparisons.
    """
    if not 0.0 < eps < 0.5:
        raise InvalidParams("eps must be in (0, 0.5)")
    mid = find_err_inv(lat, eps, rng=rng)
    d = dual(lat)
    lower = smoothing_parameter(d, eps / (1.0 - eps)).s
    upper = 2.0 * smoothing_parameter(d, eps).s
    slack = 3e-3 * mid  # three times inverse_error_function's default tol
    ok = (lower - slack <= mid <= upper + slack)
    return {"lower": lower, "mid": mid, "upper": upper, "ok": ok}
