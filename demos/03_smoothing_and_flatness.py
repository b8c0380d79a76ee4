# Smoothing parameter, flatness factor, and how both sandwich the
# noise level at which Voronoi decoding starts to fail.
#
# For a lattice L and eps in (0, 1/2), the smoothing parameter of the dual
# brackets the inverse error function: once sigma exceeds smoothing, the
# folded Gaussian on R^n/L is nearly flat and the decoder must fail with
# probability about eps.

from latgauss import RngStream, dual, standard_lattice
from latgauss import analysis, codec, measures

EPS = 0.05

for name in ["Z1", "Z2", "A2", "E8"]:
    lat = standard_lattice(name)
    eta = measures.smoothing_parameter(dual(lat), EPS)
    print(f"{name}: eta_eps(dual) = {eta.s:.6f} (residual {eta.residual:.1e})")

# Flatness factor of Z at sigma=1: the folded density deviates from uniform
# by less than 6e-9, so one unit of noise already smooths the integers.
z1 = standard_lattice("Z1")
flat = measures.flatness_factor(z1, 1.0)
print(f"\nflatness(Z, sigma=1): [{flat.lower:.6e}, {flat.upper:.6e}]")

# The MMSE channel's folded effective noise at sigma_s^2 = sigma_w^2 = 2:
# its density is f_sigma_eff(w) f_{sqrt(alpha) sigma_s}(Z+w) / f_sigma_s(Z),
# and sqrt(alpha) sigma_s = 1, so the flatness above bounds how far it
# strays from the Gaussian f_sigma_eff.
params = codec.channel_params(2.0, 2.0)
print(f"\neffective noise on Z, sigma_eff = {params.sigma_eff:g}:")
for w in (0.0, 0.25, 0.5):
    g = measures.effective_noise_pdf(z1, params, [w])
    f = float(measures.gaussian_pdf(params.sigma_eff, [w]))
    print(f"  w={w:.2f}: density {g:.9f}, Gaussian {f:.9f}, ratio - 1 = {g / f - 1:+.1e}")

# AWGN-good ensembles: averaged over random mod-p lattices of volume V, the
# theta sum f_sigma(L) matches the Siegel mean (2 pi sigma^2)^(-n/2) + 1/V.
mean = measures.random_lattice_mean_check(4, 16.0, 60, 1.0, RngStream(5))
print(f"\nrandom mod-127 lattices, n=4, V=16, sigma=1: mean f_sigma(L) "
      f"{mean['empirical']:.4f} +- {mean['stderr']:.4f}, Siegel {mean['predicted']:.4f}")

# Sandwich check: dual-smoothing lower bound <= inverse error function
# <= twice the dual smoothing, on Z2 (the closed form of Z^n).
rng = RngStream(7)
report = analysis.cdlp_sandwich(standard_lattice("Z2"), EPS, rng=rng)
print(f"\nZ2 sandwich at eps={EPS}:")
print(f"  lower  {report['lower']:.4f}")
print(f"  middle {report['mid']:.4f}  (err_inv)")
print(f"  upper  {report['upper']:.4f}")
print(f"  ordering holds: {report['ok']}")
