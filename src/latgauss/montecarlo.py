"""Seeded statistical verification harness.

The inverse error function (exact on Zn, Dn and E8, elsewhere read off the
critical scales at which Gaussian noise escapes the Voronoi cell), estimators
for per-dither error rates, and the verification suites
that check the distributional lemmas and the end-to-end theorem at desk
scale.

Conventions:
 - proportions get two-sided Clopper-Pearson 99% intervals; means get
   normal-approximation 99% intervals, optionally widened by a certified
   numeric tolerance when the estimand itself is computed by truncation;
 - every routine takes an RngStream and derives child streams with fixed
   indices, so results are pure functions of (inputs, seed);
 - a "pass" compares a confidence bound against a proved inequality, never
   a point estimate against a point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .codec import (
    CodecConfig,
    capacity,
    channel_params,
    codec_config,
    draw_dithers,
    theorem1_gap,
    transmit_batch,
)
from .errors import InternalMismatch, InvalidParams, ResolutionExceeded
from .lattices import (
    Lattice,
    decode_batch,
    enumerate_coset,  # noqa: F401  unused; perfbench/test_run.py asserts this binding
    scale_lattice,
    standard_lattice,
)
from .measures import (
    batch_coset_stats,
    coset_blocks,
    coset_entropy,
    entropy_exact,
    enumerate_masses,
    mass_zero,
)
from .rng import RngStream
from .sampling import (
    DEFAULT_TAIL,
    batch_coset_sample,
    sample_dither_discrete,
    sample_normal,
)

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
SQRT2 = math.sqrt(2.0)
TWO_PI_E = 2 * math.pi * math.e


@dataclass(frozen=True)
class CIEstimate:
    p_hat: float
    lo: float
    hi: float
    trials: int
    seed: int


@dataclass(frozen=True)
class DitherAudit:
    """Per-dither measurements against the four goodness events.

    Flags: a decoding error (CI upper end vs 6 eps), b conditional power
    (exact, within n +- 4 sqrt(n) in sigma_s^2 units), c entropy rate
    (exact, vs capacity minus the modulation-loss gap), d coset mass
    (certified, vs e^-4 over the cell volume). avg_power is exact, so its
    interval is degenerate.
    """

    t: np.ndarray
    err_rate: CIEstimate
    avg_power: CIEstimate
    mass: float
    rate: float
    pass_a: bool
    pass_b: bool
    pass_c: bool
    pass_d: bool

    @property
    def all_pass(self):
        return self.pass_a and self.pass_b and self.pass_c and self.pass_d


@dataclass(frozen=True)
class ConverseReport:
    p0: float
    entropy_rate: float
    entropy_upper: float
    p_err: CIEstimate
    half_gap: float
    snr: float
    converse_applies: bool
    entropy_ok: bool
    error_ok: bool


def proportion_ci(successes, trials, seed=0) -> CIEstimate:
    """Two-sided 99% Clopper-Pearson interval."""
    k, n = int(successes), int(trials)
    if not 0 <= k <= n or n < 1:
        raise InvalidParams("need 0 <= successes <= trials")
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, 0.005))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 0.995))
    return CIEstimate(p_hat=k / n, lo=lo, hi=hi, trials=n, seed=int(seed))


def mean_ci(values, seed=0, pad=0.0) -> CIEstimate:
    """99% normal-approximation interval, widened by a numeric pad."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise InvalidParams("need at least two values")
    m = float(values.mean())
    half = Z99 * float(values.std(ddof=1)) / math.sqrt(n) + pad
    return CIEstimate(p_hat=m, lo=m - half, hi=m + half, trials=n, seed=int(seed))


def zn_err_inv(n, eps):
    """Closed-form inverse error function for Z^n.

    The tail 1 - (1 - eps)^(1/n) is taken in complement form, so it stays
    exact where (1 - eps)^(1/n) would round to 1.
    """
    p = -math.expm1(math.log1p(-eps) / n) / 2.0
    return -2.0 * float(special.ndtri(p))


def _facet_candidates(lat):
    """+- a shortest vector of each nonzero coset of Lambda / 2 Lambda.

    By Voronoi's criterion every facet vector v is, up to sign, the unique
    shortest vector of v + 2 Lambda, so these 2 (2^n - 1) vectors include
    all facet normals; the others are lattice vectors, whose half-space
    constraints are implied. The shortest vector of c + 2 Lambda is c less
    its closest point in 2 Lambda.
    """
    bits = (np.arange(1, 1 << lat.n)[:, None] >> np.arange(lat.n)) & 1
    double = scale_lattice(lat, 2.0)
    short = lat.embed(bits - 2 * decode_batch(double, lat.embed(bits)))
    return np.concatenate([short, -short])


def _critical_scales(lat: Lattice, z):
    """Per-row smallest s such that the row lies inside V(s * Lattice).

    A point z sits outside V(s Lambda) iff 2<z,v> > s ||v||^2 for some
    facet vector v, so the critical scale is max_v 2<z,v>/||v||^2. Closed
    forms cover the rounding families (facets are the unit vectors for
    Z^n, the norm-sqrt(2) roots for every D_n, the 240 roots for E8);
    other lattices get an explicit candidate set.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if lat.family is not None:
        name, c = lat.family
        a = np.abs(z)
        if name == "Zn":
            return 2.0 * a.max(axis=1) / c
        if name == "Dn":
            part = np.partition(a, lat.n - 2, axis=1)
            return (part[:, -1] + part[:, -2]) / c
        if name == "E8":
            part = np.partition(a, 6, axis=1)
            t1 = part[:, -1] + part[:, -2]
            m = a.sum(axis=1)
            odd = (z < 0).sum(axis=1) % 2 == 1
            t2 = 0.5 * (m - 2 * a.min(axis=1) * odd)
            return np.maximum(t1, t2) / c
    cand = _facet_candidates(lat)
    norms = (cand**2).sum(axis=1)
    out = np.empty(z.shape[0])
    step = max(1, (1 << 22) // max(1, cand.shape[0]))
    for a in range(0, z.shape[0], step):
        b = min(a + step, z.shape[0])
        out[a:b] = (2.0 * (z[a:b] @ cand.T) / norms).max(axis=1)
    return out


def inverse_error_function(lat: Lattice, eps, trials=200_000, tol=1e-3, *,
                           rng: RngStream, max_trials=None) -> float:
    """Smallest s with Pr[N(0,I) escapes V(s Lambda)] <= eps.

    Each noise draw has a critical scale below which it escapes, so the
    target is the (1-eps) quantile of the critical-scale distribution. The
    estimate is the empirical quantile with a distribution-free
    order-statistic 99% interval. The first rung draws `trials` rows; each
    later rung keeps every row drawn so far and adds rows under fresh child
    streams (rung * 4096 + chunk) until the sample reaches the size the
    current interval [lo, hi] predicts: its width shrinks as 1/sqrt(n), so
    n ((hi - lo) / (tol q))^2 * 1.1 rows, at least one more and at most
    max_trials (default 1024x trials). While the interval is not yet
    defined the sample grows x4. The sample stops growing once the
    interval is relatively narrower than tol. If the cap cannot separate
    that well, raises ResolutionExceeded, naming the width reached, rather
    than guessing. For scaled Z^n the closed form must agree within 5*tol.
    """
    if not (0 < eps <= 0.5):
        raise InvalidParams("eps must be in (0, 0.5]")
    if max_trials is None:
        max_trials = trials * 1024
    s = np.empty(0)
    n = trials
    rung = 0
    chunk = 1 << 20
    while True:
        done = s.size
        s = np.concatenate([s, np.empty(n - done)])
        ci = 0
        while done < n:
            m = min(chunk, n - done)
            z = sample_normal(1.0, lat.n, rng.child(rung * 4096 + ci), trials=m)
            s[done:done + m] = _critical_scales(lat, z)
            done += m
            ci += 1
        k = math.ceil((1.0 - eps) * n)
        d = math.ceil(Z99 * math.sqrt(n * eps * (1.0 - eps))) + 1
        width = math.inf
        if k - d >= 1 and k + d <= n:
            idx = [k - d - 1, k - 1, k + d - 1]
            part = np.partition(s, idx)
            lo, q, hi = part[idx[0]], part[idx[1]], part[idx[2]]
            width = (hi - lo) / q
            if hi - lo <= tol * q:
                if lat.family is not None and lat.family[0] == "Zn":
                    closed = zn_err_inv(lat.n, eps) / lat.family[1]
                    if abs(q - closed) > 5 * tol * closed:
                        raise InternalMismatch(
                            f"quantile {q} vs closed form {closed} for scaled Z^n"
                        )
                return float(q)
        undefined = math.isinf(width)
        need = 4 * n if undefined else math.ceil(n * (width / tol) ** 2 * 1.1)
        if n >= max_trials:
            hint = ("too few rows for the interval" if undefined
                    else f"about {need:.2g} rows would reach tol")
            raise ResolutionExceeded(
                f"order-statistic interval cannot reach tol at the trial cap: "
                f"dimension {lat.n}, eps {eps}, tol {tol}, {n} rows drawn "
                f"(max_trials), relative width (hi - lo)/q {width:.3g}; {hint}: "
                f"raise max_trials or tol; find_err_inv runs the defaults, so "
                f"there only a larger eps needs fewer rows"
            )
        n = min(max(need, n + 1), max_trials)
        rung += 1


def _dn_err_inv(n, eps):
    """err_inv of D_n: the root of 1 - G_n(s) = eps, by bisection.

    The critical scale is a(1) + a(2), the two largest |z_i|, so with the
    half-normal density f and CDF F, G_n(s) = F(s/2)^n + n int_{s/2}^{s}
    f(m) F(s-m)^(n-1) dm (64-node Gauss-Legendre). F(s/2)^n <= G_n(s) <=
    F(s)^n brackets the root in [z/2, z], z = zn_err_inv(n, eps).
    """
    x, w = np.polynomial.legendre.leggauss(64)
    hi = zn_err_inv(n, eps)
    lo = hi / 2
    for _ in range(64):
        s = (lo + hi) / 2
        m = s * (0.75 + 0.25 * x)
        tail = float(np.dot(w, np.exp(-m * m / 2) * special.erf((s - m) / SQRT2) ** (n - 1)))
        g = special.erf(s / (2 * SQRT2)) ** n + n * s / 4 * math.sqrt(2 / math.pi) * tail
        lo, hi = (s, hi) if 1.0 - g > eps else (lo, s)
    return (lo + hi) / 2


# Below this eps the D_n root reads 1 - G_n(s) off rounding error and the E8
# table ends; the sampled ladder needs rows in proportion to 1/eps there (2e11
# for E8 at 1e-7, cap 1024 x 200k), so find_err_inv refuses D_n and E8.
_EXACT_EPS = 1e-6

# err_inv(E8, eps) = chebval(t, _E8_ERR_INV), t the affine map of
# v = sqrt(-log eps) from [sqrt(log 2), sqrt(log 1e6)] onto [-1, 1]: eps in
# [_EXACT_EPS, 0.5]. Built by exact quadrature with tools/e8_err_inv_table.py.
_E8_ERR_INV = (
    5.683152649267396, 2.433559835319172, 0.018135150253078547,
    0.012316717821823753, -0.0036310436420045967, 0.0008730198147528875,
    -0.0002831747005691596, 8.695045410431364e-05, -2.4870403351279268e-05,
    7.755811154599554e-06, -2.471431986526289e-06, 7.70905637241089e-07,
    -2.4647100266530827e-07, 8.014904343582748e-08, -2.5988121370021115e-08,
    8.493973449676083e-09, -2.80543367704132e-09, 9.258337315747232e-10,
    -3.096205542202389e-10, 1.0133450366758636e-10, -3.586485369380835e-11,
    1.0261105229992918e-11, -5.150605105911684e-12, 7.37475731712023e-14,
    -1.67843062625072e-12, -9.76181689121237e-13, -9.267080291525104e-13,
    -4.655868588644744e-13,
)
_E8_V = (math.sqrt(math.log(2.0)), math.sqrt(math.log(1e6)))


def find_err_inv(lat: Lattice, eps, *, rng: RngStream) -> float:
    """err_inv(lat, eps): exact on the families, sampled elsewhere.

    Scaled Z^n has the closed form at any eps. D_n takes its quadrature root
    and E8 the shipped Chebyshev table for eps in [1e-6, 0.5]; below that
    both raise InvalidParams at once. Each family value is divided by the
    family scale. Every other lattice goes to
    inverse_error_function(lat, eps, rng=rng) at its defaults.
    """
    if not (0 < eps <= 0.5):
        raise InvalidParams("eps must be in (0, 0.5]")
    if lat.family is None:
        return inverse_error_function(lat, eps, rng=rng)
    name, c = lat.family
    if name != "Zn" and eps < _EXACT_EPS:
        raise InvalidParams(
            f"err_inv on the {name} family (n = {lat.n}) is exact only for eps "
            f"in [{_EXACT_EPS:g}, 0.5], got eps {eps:g}; below that range a "
            f"sampled estimate needs more rows than its cap")
    if name == "Zn":
        s = zn_err_inv(lat.n, eps)
    elif name == "Dn":
        s = _dn_err_inv(lat.n, eps)
    else:
        v = math.sqrt(-math.log(eps))
        t = (2 * v - _E8_V[0] - _E8_V[1]) / (_E8_V[1] - _E8_V[0])
        s = float(np.polynomial.chebyshev.chebval(t, _E8_ERR_INV))
    return s / c


def dither_audit(config: CodecConfig, t, eps, trials, rng: RngStream) -> DitherAudit:
    """Measure one dither against the four goodness events, on its law as one
    measures.coset_blocks row at tail 1e-12 (draws child 0, noise child 1)."""
    scaled, p, n = config.scaled, config.params, config.lattice.n
    t = np.asarray(t, dtype=float)
    w = sample_normal(p.sigma_w, n, rng.child(1), trials=trials)
    (block,) = coset_blocks(scaled, t[None], p.sigma_s, 1e-12)
    mass, power, _ = (float(col[0]) for col in block.stats())
    coords = block.draw(rng.child(0).generator(), trials)
    tx = transmit_batch(config, np.broadcast_to(t, (trials, n)),
                        t + scaled.embed(coords), coords, w)
    err_ci = proportion_ci(int(tx.err.sum()), trials, seed=rng.seed)

    err_inv = config.scale / p.sigma_eff
    gamma = err_inv**2 * config.lattice.volume ** (2.0 / n) / TWO_PI_E
    rate = float(coset_entropy(mass, power, p.sigma_s, n)) / n
    rel_power = power / p.sigma_s2
    norm_power = rel_power / n
    return DitherAudit(
        t=t, err_rate=err_ci, mass=mass, rate=rate,
        avg_power=CIEstimate(p_hat=norm_power, lo=norm_power, hi=norm_power,
                             trials=0, seed=rng.seed),
        pass_a=err_ci.hi <= 6 * eps,
        pass_b=abs(rel_power - n) <= 4 * math.sqrt(n),
        pass_c=rate >= capacity(p.snr) - theorem1_gap(gamma, n),
        pass_d=mass >= math.exp(-4.0) / scaled.volume,
    )


def theorem1_suite(lat: Lattice, eps, snr, dithers=100, trials=2000, *,
                   rng: RngStream) -> dict:
    """Audit a population of continuous dithers against all four events.

    The code lattice is scaled by find_err_inv(lat, eps) * sigma_eff. The
    shaping theorem promises a pass fraction of at least one half over the
    dither measure; the suite compares against 0.5 minus three binomial
    standard errors.
    """
    if dithers < 1:
        raise InvalidParams(f"dithers must be at least 1, got {dithers}")
    params = channel_params(1.0, 1.0 / snr)
    err_inv = find_err_inv(lat, eps, rng=rng.child(0))
    scale = err_inv * params.sigma_eff
    config = codec_config(lat, scale, params, dither="cont")
    audits = []
    for i in range(dithers):
        t = sample_normal(params.sigma_s, lat.n, rng.child(1000 + i), trials=1)[0]
        audits.append(dither_audit(config, t, eps, trials, rng.child(2000 + i)))
    frac = sum(a.all_pass for a in audits) / dithers
    threshold = 0.5 - 3 * math.sqrt(0.25 / dithers)
    return {
        "fraction": frac,
        "threshold": threshold,
        "margin": frac - threshold,
        "pass": frac >= threshold,
        "err_inv": err_inv,
        "scale": scale,
        "flag_fractions": {f: sum(getattr(a, f"pass_{f}") for a in audits) / dithers
                           for f in "abcd"},
        "audits": audits,
    }


def negative_moment_check(lat: Lattice, sigma, dithers, rng: RngStream) -> CIEstimate:
    """Mean of 1/f_sigma(Lambda+T) over Gaussian dithers; covers V(Lambda).

    The reciprocal masses are certified to a relative 1e-13, and the CI is
    widened by that certified tolerance so near-deterministic cases (flat
    lattices, where the sample variance collapses) stay honest.
    """
    if dithers < 100:
        raise InvalidParams("need at least 100 dithers")
    t = sample_normal(sigma, lat.n, rng.child(0), trials=dithers)
    rel = 1e-13
    f = batch_coset_stats(lat, t, sigma, rel_tol=rel)["mass"]
    vals = 1.0 / f
    pad = float(vals.mean()) * rel * 4
    return mean_ci(vals, seed=rng.seed, pad=pad)


def chernoff_power_check(lat: Lattice, sigma_s, eps, dithers,
                         rng: RngStream) -> dict:
    """Tails of the exact conditional power over Gaussian dithers.

    Compares Pr_T[E[||X/sigma_s||^2 | T] >= (1+eps) n] against
    exp(-(eps^2/4 - eps^3/6) n) and the matching lower tail against
    exp(-(eps^2/4 + eps^3/6) n).
    """
    if not (0 < eps < 1):
        raise InvalidParams("eps must be in (0,1)")
    t = sample_normal(sigma_s, lat.n, rng.child(0), trials=dithers)
    power = batch_coset_stats(lat, t, sigma_s, rel_tol=1e-11)["power"] / sigma_s**2
    n = lat.n
    hi_ct = int((power >= (1 + eps) * n).sum())
    lo_ct = int((power <= (1 - eps) * n).sum())
    bound_hi = math.exp(-(eps**2 / 4 - eps**3 / 6) * n)
    bound_lo = math.exp(-(eps**2 / 4 + eps**3 / 6) * n)
    upper = proportion_ci(hi_ct, dithers, seed=rng.seed)
    lower = proportion_ci(lo_ct, dithers, seed=rng.seed)
    return {
        "upper": upper, "bound_upper": bound_hi,
        "lower": lower, "bound_lower": bound_lo,
        "pass": upper.lo <= bound_hi and lower.lo <= bound_lo,
    }


def run_trials(config: CodecConfig, t, rng: RngStream,
               compare_escape=False) -> dict:
    """Vectorized end-to-end trials, one per dither row of t.

    Streams: child 0 signal draw, child 1 channel noise; `transmit_batch`
    does the rest. Error indicators are integer-exact. With compare_escape
    (peak control off only) also decodes the effective noise and counts
    disagreements with the error indicator; the decoder errs exactly when
    the effective noise escapes.
    """
    scaled = config.scaled
    p = config.params
    t = np.atleast_2d(np.asarray(t, dtype=float))
    m = t.shape[0]
    x, c = batch_coset_sample(scaled, t, p.sigma_s, rng.child(0))
    w = sample_normal(p.sigma_w, scaled.n, rng.child(1), trials=m)
    tx = transmit_batch(config, t, x, c, w)
    err = tx.err
    out = {
        "errors": int(err.sum()),
        "err": err,
        "p_err": proportion_ci(int(err.sum()), m, seed=rng.seed),
        "avg_power": float((tx.x_sent**2).sum(axis=1).mean()) / scaled.n,
        "failures": int(tx.failure.sum()),
    }
    if compare_escape:
        if config.peak != "off":
            raise InvalidParams("escape comparison needs peak control off")
        w_eff = (p.alpha - 1.0) * x + p.alpha * w
        esc = decode_batch(scaled, w_eff).any(axis=1)
        out["escapes"] = int(esc.sum())
        out["mismatches"] = int((esc != err).sum())
    return out


def transmission_experiment(config: CodecConfig, trials, rng: RngStream) -> dict:
    """Draw per-trial dithers by config mode, then run the trial engine.

    Returns run_trials' report, the per-trial error indicators `err`
    included, plus a rate proxy: the exact per-dither entropy rate of the
    first few dithers (they are exchangeable), from one batch_coset_stats
    call.
    """
    n, sigma = config.lattice.n, config.params.sigma_s
    t = draw_dithers(config, rng.child(100), trials)
    out = run_trials(config, t, rng)
    k = 1 if config.dither == "none" else min(8, trials)
    law = batch_coset_stats(config.scaled, t[:k], sigma, rel_tol=1e-12)
    out["rate_proxy"] = float(np.mean(coset_entropy(law["mass"], law["power"], sigma, n) / n))
    return out


def markov_error_suite(lat: Lattice, eps, snr, gammas=(2.0, 6.0), dithers=500,
                       trials=2000, *, rng: RngStream) -> dict:
    """Markov bound on the per-dither error rate.

    The average error over the dither measure is at most eps by the scale
    normalization, so the fraction of dithers with rate >= gamma*eps must
    stay under 1/gamma plus sampling slack. The per-dither rates are the
    theorem1_suite audits' error rates, on its dithers and streams.
    """
    bad = [g for g in gammas if not g >= 1]
    if bad:
        raise InvalidParams(f"gammas must be at least 1, got {bad}")
    suite = theorem1_suite(lat, eps, snr, dithers, trials, rng=rng)
    rates = np.array([a.err_rate.p_hat for a in suite["audits"]])
    report = {"err_inv": suite["err_inv"], "gammas": {}, "pass": True,
              "mean_rate": float(rates.mean())}
    for g in gammas:
        frac = float((rates >= g * eps).mean())
        bound = 1.0 / g
        slack = 3 * math.sqrt(bound * (1 - bound) / dithers)
        ok = frac <= bound + slack
        report["gammas"][g] = {"fraction": frac, "bound": bound,
                               "slack": slack, "pass": ok}
        report["pass"] &= ok
    return report


def sampling_lemma_suite(lat: Lattice, sigma_s, trials, rng: RngStream) -> dict:
    """Dithered lattice samples must be exactly Gaussian in law.

    Draws T ~ N(0, sigma_s^2 I), then X ~ D_{Lambda+T, sigma_s}, and tests
    X against N(0, sigma_s^2 I): per-coordinate KS, an equiprobable-bin
    chi-square on ||X||^2/sigma_s^2 against chi2(n), and a 3-standard-error
    check on the mean squared norm. KS and chi-square share a Bonferroni
    budget of 0.01.
    """
    if trials < 10_000:
        raise InvalidParams("need at least 10^4 trials")
    from scipy import stats

    n = lat.n
    t = sample_normal(sigma_s, n, rng.child(0), trials=trials)
    x, _ = batch_coset_sample(lat, t, sigma_s, rng.child(1))

    ks_p = [float(stats.kstest(x[:, i], "norm", args=(0.0, sigma_s)).pvalue)
            for i in range(n)]
    r2 = (x**2).sum(axis=1) / sigma_s**2
    nbins = 64
    edges = stats.chi2.ppf(np.linspace(0.0, 1.0, nbins + 1), df=n)
    edges[0], edges[-1] = -np.inf, np.inf
    counts = np.histogram(r2, bins=edges)[0]
    radial_p = float(stats.chisquare(counts, trials / nbins).pvalue)
    z = (float(r2.mean()) - n) / (float(r2.std(ddof=1)) / math.sqrt(trials))
    per_test = 0.01 / (n + 1)
    ok = all(p > per_test for p in ks_p) and radial_p > per_test and abs(z) <= 3
    return {
        "ks_p": ks_p, "radial_p": radial_p, "mean_z": float(z),
        "per_test_level": per_test, "pass": ok,
    }


def discrete_sampling_suite(coarse: Lattice, fine: Lattice, sigma, trials,
                            rng: RngStream) -> dict:
    """Discretely dithered samples must reproduce D_{fine,sigma} exactly.

    T' = (D_{fine,sigma} mod coarse) per trial, then X ~ D_{coarse+T',sigma};
    the composition must equal D_{fine,sigma} in law. Chi-square against the
    exact masses, bins pooled from the tail up so every expected count is
    at least 5; it passes at a p-value above 0.001. The masses are the
    enumerated law, apart from the sampler.
    """
    from scipy import stats

    tp = sample_dither_discrete(coarse, fine, sigma, rng.child(0), trials=trials)
    x, _ = batch_coset_sample(coarse, tp, sigma, rng.child(1))
    spec = enumerate_masses(fine, np.zeros(fine.n), sigma, DEFAULT_TAIL)
    cf = np.rint(fine.coords_of(x)).astype(np.int64)
    key_of = {tuple(k): i for i, k in enumerate(map(tuple, spec.coords))}
    counts = np.zeros(len(spec.probs) + 1)
    for row in map(tuple, cf):
        counts[key_of.get(row, len(spec.probs))] += 1
    expected = np.append(spec.probs * trials, 0.0)
    obs, exp = _pool_from_tail(counts, expected)
    pval = float(stats.chisquare(obs, exp * (obs.sum() / exp.sum())).pvalue)
    return {"p_value": pval, "bins": len(exp), "pass": pval > 0.001}


def _pool_from_tail(counts, expected):
    """Pool bins from the last one up into runs of at least 5 expected.

    The bins are in decreasing-mass order (the overflow bin last), so every
    run closes as soon as it expects 5 draws; a short run left at the head
    joins its neighbour. Returns the pooled (observed, expected) arrays.
    """
    obs, exp = [], []
    run_o = run_e = 0.0
    for o, e in zip(counts[::-1], expected[::-1]):
        run_o, run_e = run_o + o, run_e + e
        if run_e >= 5.0:
            obs.append(run_o)
            exp.append(run_e)
            run_o = run_e = 0.0
    if exp:
        obs[-1] += run_o
        exp[-1] += run_e
    else:
        obs, exp = [run_o], [run_e]
    return np.asarray(obs), np.asarray(exp)


def peak_tail_check(lat: Lattice, sigma_s, trials, rng: RngStream) -> dict:
    """Coordinate tail of the shaped signal vs the sub-Gaussian bound.

    X comes from the dithered construction, whose coordinate marginals are
    exactly N(0, sigma_s^2); Pr[|X_i| > t sigma_s] <= 2 exp(-t^2/2) must
    hold within the CI (tested on the first coordinate, at t = 1, 2, 3).
    """
    t = sample_normal(sigma_s, lat.n, rng.child(0), trials=trials)
    x, _ = batch_coset_sample(lat, t, sigma_s, rng.child(1))
    out = {"cases": {}, "pass": True}
    for tv in (1.0, 2.0, 3.0):
        k = int((np.abs(x[:, 0]) > tv * sigma_s).sum())
        ci = proportion_ci(k, trials, seed=rng.seed)
        bound = 2 * math.exp(-tv**2 / 2)
        ok = ci.lo <= bound
        out["cases"][tv] = {"ci": ci, "bound": bound, "pass": ok}
        out["pass"] &= ok
    return out


def effective_noise_tail_check(lat: Lattice, snr, trials, rng: RngStream) -> dict:
    """Norm tail of W_eff = (1-alpha) X + alpha W for X ~ D_{Lambda, sigma_s}.

    Checks Pr[||W_eff||^2 > (1+eps) n sigma_eff^2] <= exp(-(n/4)(eps^2-eps^3))
    at eps = 0.3 and 0.5.
    """
    params = channel_params(1.0, 1.0 / snr)
    n = lat.n
    x, _ = batch_coset_sample(lat, np.zeros((trials, n)), params.sigma_s,
                              rng.child(0))
    w = sample_normal(params.sigma_w, n, rng.child(1), trials=trials)
    weff2 = (((params.alpha - 1.0) * x + params.alpha * w) ** 2).sum(axis=1)
    out = {"cases": {}, "pass": True}
    for ev in (0.3, 0.5):
        k = int((weff2 > (1 + ev) * n * params.sigma_eff2).sum())
        ci = proportion_ci(k, trials, seed=rng.seed)
        bound = math.exp(-(n / 4) * (ev**2 - ev**3))
        ok = ci.lo <= bound
        out["cases"][ev] = {"ci": ci, "bound": bound, "pass": ok}
        out["pass"] &= ok
    return out


def tail_bounds_suite(trials, rng: RngStream) -> dict:
    """Both tail families on an n=8 and an n=16 lattice.

    E8 is dilated by 4; both bounds are dilation-invariant statements.
    """
    e8 = scale_lattice(standard_lattice("E8"), 4.0)
    z16 = standard_lattice("Z16")
    report = {
        "peak": {
            "E8": peak_tail_check(e8, 1.0, trials, rng.child(0)),
            "Z16": peak_tail_check(z16, 1.0, trials, rng.child(1)),
        },
        "w_eff": {
            "E8": effective_noise_tail_check(e8, 1.0, trials, rng.child(2)),
            "Z16": effective_noise_tail_check(z16, 1.0, trials, rng.child(3)),
        },
    }
    report["pass"] = all(
        case["pass"] for part in (report["peak"], report["w_eff"])
        for case in part.values()
    )
    return report


def converse_experiment(lat: Lattice, sigma_s, sigma_w, trials,
                        rng: RngStream) -> ConverseReport:
    """Low-SNR converse: error probability vs the mass at zero.

    The coding distribution is the centered discrete Gaussian (no dither,
    sigma_s fixed a priori); the decoder is the MMSE-scaled closest point.
    Whenever SNR < 1 the error probability must exceed (1 - P_0)/2 up to
    CI slack, and the entropy rate must sit under the closed-form cap.
    """
    params = channel_params(sigma_s**2, sigma_w**2)
    config = codec_config(lat, 1.0, params, dither="none")
    n = lat.n
    p0 = mass_zero(lat, sigma_s, rel_tol=1e-9)
    entropy_rate = entropy_exact(lat, np.zeros(n), sigma_s) / n
    upper = (-math.log(p0) / n + math.pi * (1 - p0)
             + 1.8 * math.exp(-1.7 * n) / n)
    res = run_trials(config, np.zeros((trials, n)), rng.child(0))
    half_gap = 0.5 * (1 - p0)
    applies = params.snr < 1
    return ConverseReport(
        p0=p0,
        entropy_rate=entropy_rate,
        entropy_upper=upper,
        p_err=res["p_err"],
        half_gap=half_gap,
        snr=params.snr,
        converse_applies=applies,
        entropy_ok=entropy_rate <= upper + 1e-9,
        error_ok=(not applies) or res["p_err"].hi >= half_gap,
    )
