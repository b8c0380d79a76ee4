"""Dithered probabilistic shaping over the power-constrained AWGN channel.

The scheme: pick a lattice scaled so that sigma_eff * err_inv = scale holds
for the target error level, draw a shared dither t, transmit one sample of
the discrete Gaussian D_{scaled+t, sigma_s}, and decode by MMSE scaling
followed by closest-point search on the shifted lattice:

    x_hat = t + CP(scaled, alpha*y - t),  alpha = sigma_s^2/(sigma_s^2+sigma_w^2).

This module holds the channel parameters, capacity and the shaping
theorem's rate gap, the codec config, the dither draw by mode
(`draw_dithers`) and the one batch transmit/decode step (`transmit_batch`):
peak control, channel noise, decoding and the error indicator, one row per
trial. The signal draw lives in `sampling`; the Monte Carlo engines in
`montecarlo` compose the two.

Error comparisons run in integer lattice coordinates, never on floats, so a
trial's error indicator is exact. In mod-B mode the comparison happens on
the quotient modulo B*Z^n, which the config guarantees is a sublattice of
the scaled coding lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NonPositive
from .lattices import Lattice, decode_batch, scale_lattice
from .rng import RngStream
from .sampling import check_nested, sample_dither_discrete, sample_normal

DITHER_MODES = ("none", "cont", "discrete")
PEAK_MODES = ("off", "zeroize", "modb")


@dataclass(frozen=True)
class ChannelParams:
    sigma_s2: float
    sigma_w2: float
    snr: float
    alpha: float
    sigma_eff2: float

    @property
    def sigma_s(self):
        return math.sqrt(self.sigma_s2)

    @property
    def sigma_w(self):
        return math.sqrt(self.sigma_w2)

    @property
    def sigma_eff(self):
        return math.sqrt(self.sigma_eff2)


def channel_params(sigma_s2, sigma_w2) -> ChannelParams:
    """Derive the MMSE coefficient and effective noise variance."""
    if not (sigma_s2 > 0 and sigma_w2 > 0):
        raise NonPositive("sigma_s2 and sigma_w2 must be positive")
    alpha = sigma_s2 / (sigma_s2 + sigma_w2)
    return ChannelParams(
        sigma_s2=float(sigma_s2),
        sigma_w2=float(sigma_w2),
        snr=sigma_s2 / sigma_w2,
        alpha=alpha,
        sigma_eff2=sigma_s2 * sigma_w2 / (sigma_s2 + sigma_w2),
    )


def capacity(snr) -> float:
    """AWGN capacity (1/2) log(1 + snr), nats per dimension."""
    if not snr > 0:
        raise NonPositive("snr must be positive")
    return 0.5 * math.log1p(snr)


def theorem1_gap(gamma, n) -> float:
    """Rate gap (1/2) log gamma + 2/sqrt(n) + 4/n of the shaping theorem."""
    if not gamma > 0 or not n >= 1:
        raise InvalidParams("need gamma > 0 and n >= 1")
    return 0.5 * math.log(gamma) + 2.0 / math.sqrt(n) + 4.0 / n


@dataclass(frozen=True)
class CodecConfig:
    lattice: Lattice
    scale: float
    params: ChannelParams
    dither: str = "cont"
    dither_fine: Optional[Lattice] = None
    peak: str = "off"
    peak_budget: Optional[float] = None
    mod_b: Optional[float] = None

    @cached_property
    def scaled(self) -> Lattice:
        return scale_lattice(self.lattice, self.scale)

    @cached_property
    def modb_coords(self) -> Optional[np.ndarray]:
        """Integer matrix M with B*Z^n = scaled * M, for quotient comparisons."""
        if self.peak != "modb":
            return None
        m = np.linalg.inv(self.scaled.basis) * self.mod_b
        return np.rint(m).astype(np.int64)


def codec_config(lat: Lattice, scale, params: ChannelParams, dither="cont",
                 dither_fine=None, peak="off", peak_budget=None,
                 mod_b=None) -> CodecConfig:
    if not scale > 0:
        raise NonPositive("scale must be positive")
    if dither not in DITHER_MODES:
        raise InvalidParams(f"dither must be one of {DITHER_MODES}")
    if peak not in PEAK_MODES:
        raise InvalidParams(f"peak must be one of {PEAK_MODES}")
    cfg = CodecConfig(lattice=lat, scale=float(scale), params=params,
                      dither=dither, dither_fine=dither_fine, peak=peak,
                      peak_budget=peak_budget, mod_b=mod_b)
    if dither == "discrete":
        if dither_fine is None:
            raise InvalidParams("discrete dither needs the fine lattice")
        check_nested(cfg.scaled, dither_fine)
    if peak == "zeroize":
        if peak_budget is None or not peak_budget > 0:
            raise NonPositive("zeroize needs a positive power budget")
    if peak == "modb":
        if mod_b is None or not mod_b > 0:
            raise NonPositive("modb needs a positive modulus")
        bz = scale_lattice(Lattice(np.eye(lat.n)), mod_b)
        check_nested(bz, cfg.scaled)  # requires B*Z^n inside the code lattice
    return cfg


class Transmission(NamedTuple):
    x_sent: np.ndarray  # (m, n) the channel inputs, after peak control
    y: np.ndarray  # (m, n) the channel outputs x_sent + w
    coords_hat: np.ndarray  # (m, n) int64 decoded lattice coordinates
    err: np.ndarray  # (m,) exact error indicators, zeroize failures included
    failure: np.ndarray  # (m,) zeroize tripped


def draw_dithers(config: CodecConfig, rng: RngStream, trials) -> np.ndarray:
    """One dither row per trial, drawn by the config's dither mode."""
    n = config.lattice.n
    if config.dither == "none":
        return np.zeros((trials, n))
    if config.dither == "cont":
        return sample_normal(config.params.sigma_s, n, rng, trials=trials)
    return sample_dither_discrete(config.scaled, config.dither_fine,
                                  config.params.sigma_s, rng, trials)


def mod_interval(x, b):
    """Coordinate-wise representative in [-B/2, B/2)."""
    return (np.asarray(x, dtype=float) + b / 2) % b - b / 2


def transmit_batch(config: CodecConfig, t, x, coords, w) -> Transmission:
    """Peak control, channel and decoder for rows x = t + embed(coords).

    Adds the given noise w, decodes t + CP(scaled, alpha*y - t) and compares
    lattice coordinates, so each row's error indicator is exact.
    """
    t, x, w = (np.asarray(a, dtype=float) for a in (t, x, w))
    coords = np.asarray(coords)
    n = config.lattice.n
    if t.ndim != 2 or any(a.shape != (t.shape[0], n) for a in (t, x, coords, w)):
        raise DimensionMismatch(f"t, x, coords and w must all be (m, {n})")
    failure = np.zeros(t.shape[0], dtype=bool)
    x_sent = x
    if config.peak == "zeroize":
        failure = (x**2).sum(axis=1) > n * config.peak_budget
        x_sent = np.where(failure[:, None], 0.0, x)
    elif config.peak == "modb":
        x_sent = mod_interval(x, config.mod_b)
    y = x_sent + w
    chat = decode_batch(config.scaled, config.params.alpha * y - t)
    err = coords_differ(config, chat - coords) | failure
    return Transmission(x_sent=x_sent, y=y, coords_hat=chat, err=err,
                        failure=failure)


def coords_differ(config: CodecConfig, diff) -> np.ndarray:
    """Vectorized: does each coordinate-difference row change the codeword?

    In modb mode a difference inside the B*Z^n sublattice is no error; the
    membership test is exact integer arithmetic.
    """
    diff = np.atleast_2d(np.asarray(diff, dtype=np.int64))
    if config.peak != "modb":
        return diff.any(axis=1)
    m = config.modb_coords
    minv = np.linalg.inv(m.astype(float))
    k = np.rint(diff @ minv.T).astype(np.int64)
    return ~(k @ m.T == diff).all(axis=1)
