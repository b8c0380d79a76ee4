"""End-to-end acceptance checks.

Ten criteria, each printing one `[criterion N] PASS/FAIL` line with the
measured quantities before asserting. Run with `-s` (or `-rA`) to see the
lines for passing tests. Every statistical check runs from a fixed seed.
"""

import json
import math
import time

import numpy as np
import pytest

import latgauss.cli as cli
from latgauss.analysis import (
    capacity,
    cdlp_sandwich,
    dispersion,
    dither_rate_bound,
    finite_blocklength,
    theorem1_gap,
)
from latgauss.codec import channel_params, codec_config
from latgauss.lattices import scale_lattice, standard_lattice
from latgauss.montecarlo import (
    converse_experiment,
    discrete_sampling_suite,
    negative_moment_check,
    run_trials,
    sampling_lemma_suite,
    tail_bounds_suite,
    theorem1_suite,
    zn_err_inv,
)
from latgauss.rng import RngStream
from latgauss.sampling import sample_normal


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_dithered_samples_are_gaussian():
    # Z4 and A2, sigma_s = 1, 10^5 draws each: per-coordinate KS plus an
    # equiprobable radial chi-square at Bonferroni level 0.01, and the mean
    # squared norm within 3 standard errors; the pair must finish inside a
    # minute
    t0 = time.monotonic()
    z4 = sampling_lemma_suite(standard_lattice("Z4"), 1.0, 100_000, RngStream(7))
    a2 = sampling_lemma_suite(standard_lattice("A2"), 1.0, 100_000, RngStream(93))
    elapsed = time.monotonic() - t0
    ok = z4["pass"] and a2["pass"] and elapsed < 60.0
    assert _report(
        1, ok,
        f"Z4 min ks_p {min(z4['ks_p']):.3f} radial_p {z4['radial_p']:.3f} "
        f"mean_z {z4['mean_z']:+.2f}; A2 min ks_p {min(a2['ks_p']):.3f} "
        f"radial_p {a2['radial_p']:.3f} mean_z {a2['mean_z']:+.2f}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_discrete_dither_composition():
    # coarse/fine pairs (2Z, Z) and (Z^2, Z^2/2) at sigma = 2, 10^5 draws:
    # the composed law must match the fine discrete Gaussian, chi-square
    # p-value above 0.001
    z = standard_lattice("Z")
    z2 = standard_lattice("Z2")
    a = discrete_sampling_suite(scale_lattice(z, 2.0), z, 2.0, 100_000,
                                RngStream(201))
    b = discrete_sampling_suite(z2, scale_lattice(z2, 0.5), 2.0, 100_000,
                                RngStream(92))
    ok = a["pass"] and b["pass"]
    assert _report(
        2, ok,
        f"(2Z,Z) p={a['p_value']:.4f} bins={a['bins']}; "
        f"(Z2,Z2/2) p={b['p_value']:.4f} bins={b['bins']}",
    )


def test_criterion_03_decoder_error_equals_escape_event():
    # the MMSE-scaled closest-point rule must err exactly when the
    # effective noise leaves the Voronoi cell: 10^5 paired indicators on
    # Z4 and E8 with zero disagreements
    z4 = standard_lattice("Z4")
    par = channel_params(1.0, 10.0)
    cfg = codec_config(z4, zn_err_inv(4, 0.01) * par.sigma_eff, par)
    t = sample_normal(par.sigma_s, 4, RngStream(90).child(100), trials=100_000)
    r4 = run_trials(cfg, t, RngStream(90), compare_escape=True)

    e8 = standard_lattice("E8")
    par8 = channel_params(1.0, 1.0)
    cfg8 = codec_config(e8, 5.0 * par8.sigma_eff, par8)
    t8 = sample_normal(1.0, 8, RngStream(91).child(100), trials=100_000)
    r8 = run_trials(cfg8, t8, RngStream(91), compare_escape=True)

    nontrivial = 0 < r4["errors"] < 100_000 and 0 < r8["errors"] < 100_000
    ok = r4["mismatches"] == 0 and r8["mismatches"] == 0 and nontrivial
    assert _report(
        3, ok,
        f"Z4 errors {r4['errors']} mismatches {r4['mismatches']}; "
        f"E8 errors {r8['errors']} mismatches {r8['mismatches']}",
    )


def test_criterion_04_dither_population_goodness():
    # E8, eps 0.05, snr 1: at least half of 100 dithers (minus three
    # binomial standard errors) must satisfy all four goodness events,
    # inside ten minutes
    t0 = time.monotonic()
    got = theorem1_suite(standard_lattice("E8"), 0.05, 1.0, dithers=100,
                         trials=2000, rng=RngStream(104))
    elapsed = time.monotonic() - t0
    ok = got["pass"] and elapsed < 600.0
    assert _report(
        4, ok,
        f"fraction {got['fraction']:.2f} >= threshold {got['threshold']:.2f}, "
        f"flags {got['flag_fractions']}, err_inv {got['err_inv']:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_05_negative_moment_recovers_volume():
    # E[1/f_1(Lambda+T)] over 10^4 Gaussian dithers: the 99% interval must
    # cover the cell volume for Z, 2Z and A2
    z = standard_lattice("Z")
    cases = [
        ("Z", z, 1.0),
        ("2Z", scale_lattice(z, 2.0), 2.0),
        ("A2", standard_lattice("A2"), math.sqrt(3.0) / 2.0),
    ]
    rows = []
    ok = True
    for i, (name, lat, vol) in enumerate(cases):
        ci = negative_moment_check(lat, 1.0, 10_000, RngStream(105).child(i))
        covered = ci.lo <= vol <= ci.hi
        ok &= covered
        rows.append(f"{name} [{ci.lo:.6f},{ci.hi:.6f}] covers {vol:.6f}: {covered}")
    assert _report(5, ok, "; ".join(rows))


def test_criterion_06_low_snr_converse():
    # Z, sigma_s 1, sigma_w 2 (snr 0.25), no dither, 10^5 trials: the mass
    # at zero is certified to 1e-9, the entropy rate must sit under the
    # closed-form cap, and the error CI must reach (1 - P0)/2
    got = converse_experiment(standard_lattice("Z"), 1.0, 2.0, 100_000,
                              RngStream(106))
    p0_ok = abs(got.p0 - 0.3989422782668617) <= 1e-8
    ok = (got.converse_applies and got.entropy_ok and got.error_ok and p0_ok)
    assert _report(
        6, ok,
        f"P0 {got.p0:.10f}, entropy {got.entropy_rate:.5f} <= "
        f"{got.entropy_upper:.5f}, p_err {got.p_err.p_hat:.4f} "
        f"(hi {got.p_err.hi:.4f}) >= half-gap {got.half_gap:.4f}",
    )


def test_criterion_07_smoothing_sandwich():
    # eps 0.05: on Z the sandwich ends match their closed-form targets and
    # the middle (exact on Zn, Dn and E8, Monte Carlo elsewhere) lands
    # within 1e-2 of the known inverse error function; Z2 and E8 must
    # report a consistent bracket
    z = cdlp_sandwich(standard_lattice("Z"), 0.05, rng=RngStream(95))
    z_ok = (
        abs(z["lower"] - 2.6974) <= 1e-3
        and abs(z["mid"] - 3.9199) <= 1e-2
        and abs(z["upper"] - 5.4325) <= 1e-3
        and z["ok"]
    )
    z2 = cdlp_sandwich(standard_lattice("Z2"), 0.05, rng=RngStream(80))
    e8 = cdlp_sandwich(standard_lattice("E8"), 0.05, rng=RngStream(81))
    ok = z_ok and z2["ok"] and e8["ok"]
    assert _report(
        7, ok,
        f"Z {z['lower']:.4f} <= {z['mid']:.4f} <= {z['upper']:.4f}; "
        f"Z2 ok {z2['ok']} ({z2['lower']:.3f},{z2['mid']:.3f},{z2['upper']:.3f}); "
        f"E8 ok {e8['ok']} ({e8['lower']:.3f},{e8['mid']:.3f},{e8['upper']:.3f})",
    )


def test_criterion_08_tail_bounds():
    # coordinate tails Pr[|X_i| > t sigma_s] <= 2 exp(-t^2/2) for t in
    # {1,2,3} and norm tails of the effective noise for eps {0.3, 0.5} on
    # an n=8 and an n=16 lattice, 10^5 trials per case
    got = tail_bounds_suite(100_000, RngStream(108))
    formulas = True
    for part in got["peak"].values():
        for tv, case in part["cases"].items():
            formulas &= case["bound"] == pytest.approx(2 * math.exp(-(tv**2) / 2))
    ok = got["pass"] and formulas
    peak_hi = max(
        case["ci"].hi
        for part in got["peak"].values()
        for case in part["cases"].values()
    )
    assert _report(
        8, ok,
        f"all peak and w_eff cases under their bounds "
        f"(worst peak CI hi {peak_hi:.4f}); pass={got['pass']}",
    )


def test_criterion_09_closed_form_calculators():
    checks = [
        ("capacity(1)", capacity(1.0), 0.34657, 1e-4),
        ("dispersion(1)", dispersion(1.0), 0.375, 1e-4),
        ("dispersion(1e6)", dispersion(1e6), 0.5, 1e-6),
        ("theorem1_gap(1,100)", theorem1_gap(1.0, 100), 0.24, 1e-4),
        ("intro_gap(100,0.05)", finite_blocklength(1.0, 100, 0.05).intro_gap,
         0.31631, 1e-4),
        ("dither_rate_bound(0.5)", dither_rate_bound(0.5)["bound"], 0.29727,
         1e-4),
    ]
    ok = True
    worst = 0.0
    for name, got, want, tol in checks:
        err = abs(got - want)
        ok &= err <= tol
        worst = max(worst, err / tol)
    assert _report(
        9, ok,
        "; ".join(f"{n}={g:.6f}" for n, g, _, _ in checks)
        + f" (worst error {worst:.2f}x tolerance)",
    )


def test_criterion_10_byte_identical_reruns(capsys):
    argv = ["verify", "--suite", "chernoff", "--seed", "5"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    sim = ["simulate", "--lattice", "Z2", "--snr", "1", "--eps", "0.05",
           "--scale", "2.0", "--trials", "5000", "--seed", "5"]
    assert cli.run(sim) == 0
    sim_first = capsys.readouterr().out
    assert cli.run(sim) == 0
    sim_second = capsys.readouterr().out
    ok = first == second and sim_first == sim_second and first != ""
    doc = json.loads(first)
    ok &= set(doc["meta"]) == {"seed", "config_hash", "version"}
    assert _report(
        10, ok,
        f"verify and simulate outputs byte-identical across reruns "
        f"({len(first)} and {len(sim_first)} bytes)",
    )
