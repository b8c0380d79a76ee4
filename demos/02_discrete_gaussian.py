"""Exact discrete Gaussian enumeration versus sampled frequencies.

Enumerates the lattice Gaussian D_{Z+1/2, 1} exactly, prints the heaviest
point masses and the exact entropy, then draws samples with the coset
sampler (sampling.sample_coset, which never reads the enumerated law) and
compares the empirical frequency of the two heaviest points against the
enumerated mass.
"""

import numpy as np

from latgauss import RngStream, standard_lattice
from latgauss import measures, sampling

SIGMA = 1.0
TRIALS = 50_000

z1 = standard_lattice("Z1")
shift = np.array([0.5])

spec = measures.enumerate_masses(z1, shift, SIGMA, sampling.DEFAULT_TAIL)
print(f"support size {len(spec.probs)}, truncation radius {spec.radius:.2f}, "
      f"tail bound {spec.tail:.2e}")
print("heaviest points:")
for k in range(4):
    print(f"  x = {spec.points[k, 0]:+.1f}   prob {spec.probs[k]:.10f}")

h = measures.entropy_exact(z1, shift, SIGMA)
print(f"exact entropy {h:.10f} nats")

# The two tie points at -1/2 and +1/2 carry equal mass by symmetry.
p_half = spec.probs[0]
rng = RngStream(2024)
draws = sampling.sample_coset(z1, shift, SIGMA, rng, TRIALS)
for target in (-0.5, 0.5):
    freq = np.mean(np.abs(draws[:, 0] - target) < 1e-9)
    se = np.sqrt(p_half * (1 - p_half) / TRIALS)
    print(f"P(x={target:+.1f}): exact {p_half:.6f}, empirical {freq:.6f} "
          f"({abs(freq - p_half) / se:.2f} standard errors)")

# Mass of the zero point on the unshifted lattice, two independent routes:
# direct enumeration, and the pdf at zero over the total lattice mass.
p0 = measures.mass_zero(z1, SIGMA)
mass = measures.enumerate_masses(z1, np.zeros(1), SIGMA).mass
ratio = measures.gaussian_pdf(SIGMA, np.zeros(1)) / mass
print(f"\nP0(Z, sigma=1)  = {p0:.12f}")
print(f"f(0) / f(Z)     = {float(ratio):.12f}")

# Second moment of the shifted Gaussian is close to n*sigma^2 when sigma
# is above smoothing; exact enumeration gives the true value.
stats = measures.batch_coset_stats(z1, shift[None, :], SIGMA)
print(f"\nexact E||X||^2 on Z+1/2: {stats['power'][0]:.10f} (n sigma^2 = 1)")
