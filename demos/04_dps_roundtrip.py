"""End-to-end shaping roundtrip on the AWGN channel.

Encoder: draw a Gaussian dither t and send X ~ D_{L+t, sigma_s}, a
discrete Gaussian on the dithered coset. Decoder: MMSE scale the channel
output and decode back to the coset. The lattice scale
is set so that the decoding error rate lands near a target eps, and the
transmit power lands near sigma_s^2 per dimension.
"""

import numpy as np

from latgauss import RngStream, standard_lattice
from latgauss import codec, montecarlo, sampling

EPS = 0.01
TRIALS = 20_000
SNR = 1.0

lat = standard_lattice("Z4")
params = codec.channel_params(sigma_s2=1.0, sigma_w2=1.0 / SNR)
print(f"snr {params.snr:.2f}: alpha {params.alpha:.4f}, "
      f"sigma_eff {params.sigma_eff:.4f}")

# Scale the lattice so the effective noise escapes a Voronoi cell with
# probability about EPS. For Z^n that scale has a closed form.
scale = montecarlo.zn_err_inv(lat.n, EPS) * params.sigma_eff
config = codec.codec_config(lat, scale, params)
print(f"lattice scale {scale:.4f}")

rng = RngStream(123)
out = montecarlo.transmission_experiment(config, TRIALS, rng)
ci = out["p_err"]
print(f"\nerrors {out['errors']}/{TRIALS}: p_err {ci.p_hat:.5f} "
      f"(99% CI [{ci.lo:.5f}, {ci.hi:.5f}], target {EPS})")
print(f"avg power per dimension {out['avg_power']:.4f} (sigma_s^2 = 1)")

# At n=4 the shaped input carries far less entropy than capacity; the
# shortfall is the small-n shaping gap, which decays as n grows.
cap = 0.5 * np.log1p(SNR)
print(f"entropy rate of the shaped input {out['rate_proxy']:.4f} nats/dim")
print(f"channel capacity {cap:.4f} nats/dim")

# One single trial, spelled out: the batch path with one row.
one = RngStream(6)
t = codec.draw_dithers(config, one.child(0), 1)
x, coords = sampling.batch_coset_sample(config.scaled, t, params.sigma_s,
                                        one.child(1))
w = sampling.sample_normal(params.sigma_w, lat.n, one.child(2), trials=1)
tx = codec.transmit_batch(config, t, x, coords, w)
x_hat = t + config.scaled.embed(tx.coords_hat)
print(f"\nsingle trial: t = {np.round(t[0], 3)}")
print(f"              x = {np.round(x[0], 3)}")
print(f"              y = {np.round(tx.y[0], 3)}")
print(f"  decoded x_hat = {np.round(x_hat[0], 3)}, error {bool(tx.err[0])}")
