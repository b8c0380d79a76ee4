import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import latgauss.montecarlo as montecarlo
from latgauss.codec import channel_params, codec_config
from latgauss.errors import InvalidParams, ResolutionExceeded
from latgauss.lattices import (
    decode_batch,
    enumerate_coset,
    random_mod_p_lattice,
    reduce_batch,
    scale_lattice,
    standard_lattice,
)
from latgauss.measures import batch_coset_stats, entropy_exact, enumerate_masses
from latgauss.montecarlo import (
    ConverseReport,
    chernoff_power_check,
    converse_experiment,
    discrete_sampling_suite,
    dither_audit,
    effective_noise_tail_check,
    find_err_inv,
    inverse_error_function,
    markov_error_suite,
    mean_ci,
    negative_moment_check,
    peak_tail_check,
    proportion_ci,
    run_trials,
    sampling_lemma_suite,
    tail_bounds_suite,
    theorem1_suite,
    transmission_experiment,
    zn_err_inv,
    Z99,
    _critical_scales,
)
from latgauss.rng import RngStream
from latgauss.sampling import sample_normal

Z = standard_lattice("Z")
Z4 = standard_lattice("Z4")
CONA = random_mod_p_lattice(8, 4, 5, RngStream(20240901, 0))
CONA_UNIT = scale_lattice(CONA, CONA.volume ** -0.125)


def test_proportion_ci_is_clopper_pearson_99():
    ci = proportion_ci(37, 200, seed=5)
    assert ci.p_hat == pytest.approx(0.185)
    assert ci.lo == pytest.approx(float(stats.beta.ppf(0.005, 37, 164)), rel=1e-12)
    assert ci.hi == pytest.approx(float(stats.beta.ppf(0.995, 38, 163)), rel=1e-12)
    assert ci.trials == 200 and ci.seed == 5
    for n in (1, 2, 7, 50, 400, 2000, 100_000):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            ci = proportion_ci(k, n)
            if k > 0:
                assert ci.lo == pytest.approx(float(stats.beta.ppf(0.005, k, n - k + 1)),
                                              rel=1e-12)
            if k < n:
                assert ci.hi == pytest.approx(float(stats.beta.ppf(0.995, k + 1, n - k)),
                                              rel=1e-12)
    assert proportion_ci(0, 50).lo == 0.0
    assert proportion_ci(50, 50).hi == 1.0
    with pytest.raises(InvalidParams):
        proportion_ci(5, 4)
    with pytest.raises(InvalidParams):
        proportion_ci(-1, 4)
    with pytest.raises(InvalidParams):
        proportion_ci(0, 0)


def test_mean_ci_normal_approximation():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    ci = mean_ci(vals, seed=3, pad=0.25)
    z99 = float(stats.norm.ppf(0.995))
    half = z99 * vals.std(ddof=1) / 2.0 + 0.25
    assert ci.p_hat == pytest.approx(2.5)
    assert ci.lo == pytest.approx(2.5 - half, rel=1e-12)
    assert ci.hi == pytest.approx(2.5 + half, rel=1e-12)
    with pytest.raises(InvalidParams):
        mean_ci([1.0])


def test_zn_err_inv_closed_form():
    # two-sided per-coordinate tail solved for the union of n coordinates
    assert zn_err_inv(1, 0.05) == pytest.approx(3.919927969080108, rel=1e-12)
    assert zn_err_inv(8, 0.05) == pytest.approx(5.454015793439943, rel=1e-12)
    assert zn_err_inv(1, 0.05) / 2.0 == pytest.approx(3.919927969080108 / 2)
    p = (1 - 0.95 ** (1 / 4)) / 2
    assert zn_err_inv(4, 0.05) == pytest.approx(2 * float(stats.norm.isf(p)), rel=1e-14)
    for n in (1, 2, 8, 16, 64):
        for eps in (1e-6, 1e-3, 0.01, 0.05, 0.2, 0.5):
            # 1 - (1 - eps)^(1/n) in complement form: computed directly it
            # loses about 1e-10 of p to rounding at n = 64, eps = 1e-6
            p = -math.expm1(math.log1p(-eps) / n) / 2
            assert zn_err_inv(n, eps) / 0.5 == pytest.approx(4 * float(stats.norm.isf(p)),
                                                            rel=1e-14)


def test_voronoi_escape_matches_closed_form():
    # the decoded point is nonzero exactly when N(0, I) leaves the cell of 0
    want1 = 2 * float(stats.norm.sf(0.5))
    stay = 1 - want1
    for lat, want, seed in ((Z, want1, 41), (standard_lattice("Z2"), 1 - stay**2, 42)):
        z = sample_normal(1.0, lat.n, RngStream(seed).child(0), trials=100_000)
        ci = proportion_ci(int(decode_batch(lat, z).any(axis=1).sum()), 100_000)
        assert ci.lo <= want <= ci.hi


@pytest.mark.parametrize(
    "lat",
    [
        standard_lattice("Z3"),
        standard_lattice("D4"),
        standard_lattice("D8"),
        standard_lattice("E8"),
        standard_lattice("A2"),
        scale_lattice(standard_lattice("D4"), 0.5),
        CONA_UNIT,
    ],
    ids=["Z3", "D4", "D8", "E8", "A2", "halfD4", "conA-8-4-5"],
)
def test_critical_scales_reproduce_escape_indicator(lat):
    # s(z) is the dilation at which z crosses the Voronoi boundary, so the
    # escape indicator of the dilated lattice must equal s(z) > c exactly
    z = RngStream(43).generator().standard_normal((200, lat.n))
    s = _critical_scales(lat, z)
    for c in (0.8, 1.0, 1.3):
        sc = scale_lattice(lat, c)
        esc = decode_batch(sc, z).any(axis=1)
        np.testing.assert_array_equal(esc, s > c)


@pytest.mark.parametrize(
    "lat",
    [standard_lattice("A2"), standard_lattice("D5"), standard_lattice("D6"),
     standard_lattice("D8"), CONA_UNIT],
    ids=["A2", "D5", "D6", "D8", "conA-8-4-5"],
)
def test_critical_scales_match_the_ball_reference(lat):
    # reference: every nonzero lattice vector in the ball of twice the
    # covering bound, a superset of the facet vectors
    _, pts = enumerate_coset(lat, np.zeros(lat.n), 2.0 * lat.covering_bound * (1 + 1e-9))
    cand = pts[(pts**2).sum(axis=1) > 1e-18]
    z = RngStream(47).generator().standard_normal((500, lat.n))
    want = (2.0 * (z @ cand.T) / (cand**2).sum(axis=1)).max(axis=1)
    np.testing.assert_allclose(_critical_scales(lat, z), want, rtol=1e-12, atol=0)


def test_inverse_error_function_agrees_with_closed_form():
    # the Z^n family self-checks against the closed form internally, so a
    # clean return already certifies agreement within 5x the tolerance
    got = inverse_error_function(standard_lattice("Z2"), 0.05, trials=50_000,
                                 rng=RngStream(44))
    assert got == pytest.approx(zn_err_inv(2, 0.05), rel=6e-3)


def test_inverse_error_function_guards():
    with pytest.raises(InvalidParams):
        inverse_error_function(Z, 0.7, rng=RngStream(1))
    with pytest.raises(InvalidParams):
        inverse_error_function(Z, 0.0, rng=RngStream(1))
    with pytest.raises(ResolutionExceeded) as err:
        inverse_error_function(Z, 0.05, trials=2000, tol=1e-7,
                               rng=RngStream(1), max_trials=2000)
    # the message names what to change: the width reached at the cap
    s = np.sort(_critical_scales(Z, sample_normal(1.0, 1, RngStream(1).child(0),
                                                  trials=2000)))
    k = math.ceil(0.95 * 2000)
    d = math.ceil(Z99 * math.sqrt(2000 * 0.05 * 0.95)) + 1
    width = (s[k + d - 1] - s[k - d - 1]) / s[k - 1]
    for part in ("dimension 1", "eps 0.05", "tol 1e-07", "2000 rows drawn",
                 f"relative width (hi - lo)/q {width:.3g}",
                 "find_err_inv runs the defaults", "a larger eps needs fewer rows"):
        assert part in str(err.value)


def _record_draws(monkeypatch, lat):
    # every sample_normal call of the inversion: (stream id, rows, scales)
    calls = []

    def spy(sigma, n, rng, trials):
        z = sample_normal(sigma, n, rng, trials=trials)
        calls.append((rng.stream_id, trials, _critical_scales(lat, z)))
        return z

    monkeypatch.setattr(montecarlo, "sample_normal", spy)
    return calls


def test_inverse_error_function_ladder_keeps_every_row(monkeypatch):
    # 100 rows leave the 99% interval undefined, so rung 1 grows x4; later
    # rungs are sized from the interval. No row is drawn twice, and the
    # estimate is the order statistic of every row drawn.
    lat = standard_lattice("E8")
    rng = RngStream(61)
    calls = _record_draws(monkeypatch, lat)
    got = inverse_error_function(lat, 0.05, trials=100, tol=1e-2, rng=rng)
    ids = [c[0] for c in calls]
    assert len(set(ids)) == len(ids)
    assert calls[0][:2] == (rng.child(0).stream_id, 100)
    assert calls[1][:2] == (rng.child(4096).stream_id, 300)
    rungs = {rng.child(r * 4096 + c).stream_id for r in range(8) for c in range(4)}
    assert set(ids) <= rungs and len(calls) > 2
    s = np.concatenate([c[2] for c in calls])
    n = sum(c[1] for c in calls)
    assert s.size == n
    k = math.ceil(0.95 * n)
    assert got == np.partition(s, k - 1)[k - 1]


def test_inverse_error_function_sizes_one_rung_on_e8(monkeypatch):
    # rung 0 predicts about 5.5M rows, and one sized rung reaches tol
    calls = _record_draws(monkeypatch, standard_lattice("E8"))
    got = inverse_error_function(standard_lattice("E8"), 0.05, trials=200_000,
                                 rng=RngStream(1))
    assert sum(c[1] for c in calls) <= 7_000_000
    assert got == pytest.approx(4.7625, rel=2e-3)


EPS_GRID = (0.01, 0.05, 0.2)


def test_find_err_inv_on_d2_is_rotated_z2():
    # D2 is sqrt(2) Z2 rotated, so its Dn quadrature root has a closed form
    d2 = standard_lattice("D2")
    for eps in EPS_GRID:
        got = find_err_inv(d2, eps, rng=RngStream(1))
        assert abs(got - zn_err_inv(2, eps) / math.sqrt(2)) <= 1e-12


@pytest.mark.parametrize("name,want", [
    ("D4", 3.9215091138), ("D8", 4.5286741327), ("D16", 5.0590624953),
])
def test_find_err_inv_on_dn_matches_an_independent_quadrature(name, want):
    # roots at eps 0.05 of 1 - G_n(s) by scipy.integrate.quad and brentq
    got = find_err_inv(standard_lattice(name), 0.05, rng=RngStream(1))
    assert abs(got - want) <= 1e-9


def test_zn_err_inv_holds_where_one_minus_eps_rounds_to_one():
    eps = 1e-17
    s = find_err_inv(Z4, eps, rng=RngStream(1))
    p = math.erfc(s / (2 * math.sqrt(2)))
    assert math.isfinite(s)
    assert -math.expm1(4 * math.log1p(-p)) == pytest.approx(eps, rel=1e-9)


def test_find_err_inv_on_zn_is_the_closed_form():
    for name in ("Z", "Z4", "Z16"):
        lat = scale_lattice(standard_lattice(name), 3.0)
        for eps in EPS_GRID:
            assert find_err_inv(lat, eps, rng=RngStream(1)) == zn_err_inv(lat.n, eps) / 3.0


@pytest.mark.parametrize("name", ["Z4", "D4", "D16", "E8"])
def test_find_err_inv_divides_by_the_scale(name):
    lat = standard_lattice(name)
    base = find_err_inv(lat, 0.05, rng=RngStream(1))
    for c in (2.0, -0.5):
        assert find_err_inv(scale_lattice(lat, c), 0.05, rng=RngStream(1)) == base / abs(c)


@pytest.mark.parametrize("name", ["D4", "D8", "D16", "E8"])
def test_find_err_inv_lies_within_the_sampled_estimate(name):
    # the sampled estimate stops once its 99% interval is narrower than
    # tol q, so the exact value must sit within tol q of it
    lat = standard_lattice(name)
    for i, eps in enumerate(EPS_GRID):
        q = inverse_error_function(lat, eps, trials=50_000, tol=1e-2,
                                   rng=RngStream(71).child(i))
        assert abs(find_err_inv(lat, eps, rng=RngStream(1)) - q) <= 1e-2 * q


def test_shipped_e8_table_matches_the_quadrature(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import e8_err_inv_table as e8_table

    e8 = standard_lattice("E8")
    for eps in EPS_GRID:
        s = find_err_inv(e8, eps, rng=RngStream(1))
        assert abs(1.0 - e8_table.e8_cdf(s) - eps) <= 1e-9
    assert find_err_inv(e8, 0.05, rng=RngStream(1)) == pytest.approx(4.762617261, abs=1e-8)


def test_find_err_inv_guards():
    for eps in (0.0, 0.7):
        for name in ("Z", "D4", "E8", "A2"):
            with pytest.raises(InvalidParams):
                find_err_inv(standard_lattice(name), eps, rng=RngStream(1))


def _forbid_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("the error curve was sampled")

    monkeypatch.setattr(montecarlo, "inverse_error_function", sampled)
    monkeypatch.setattr(montecarlo, "_critical_scales", sampled)


@pytest.mark.parametrize("argv", [
    ["simulate", "--lattice", "Z16", "--snr", "1", "--trials", "2000"],
    ["sweep", "--lattice", "D4", "--snr-grid", "1", "--trials", "500"],
    ["verify", "--suite", "theorem1", "--lattice", "E8", "--dithers", "2",
     "--trials", "100"],
    ["verify", "--suite", "markov", "--lattice", "E8", "--dithers", "2",
     "--trials", "100"],
], ids=["simulate-Z16", "sweep-D4", "theorem1-E8", "markov-E8"])
def test_families_never_sample_the_error_curve(argv, monkeypatch, capsys):
    import latgauss.cli as cli

    _forbid_sampling(monkeypatch)
    assert cli.run(argv + ["--seed", "5"]) == 0
    capsys.readouterr()


def test_cdlp_sandwich_never_samples_on_e8(monkeypatch):
    from latgauss.analysis import cdlp_sandwich

    _forbid_sampling(monkeypatch)
    got = cdlp_sandwich(standard_lattice("E8"), 0.05, rng=RngStream(5))
    assert got["mid"] == find_err_inv(standard_lattice("E8"), 0.05, rng=RngStream(1))
    assert got["ok"]


@pytest.mark.parametrize("name,eps", [("A2", 0.05)])
def test_find_err_inv_samples_outside_the_families(name, eps, monkeypatch):
    calls = []

    def sampled(lat, eps, trials=200_000, tol=1e-3, *, rng):
        calls.append((lat, eps, trials, tol, rng))
        return 1.25

    monkeypatch.setattr(montecarlo, "inverse_error_function", sampled)
    lat, rng = standard_lattice(name), RngStream(3)
    assert find_err_inv(lat, eps, rng=rng) == 1.25
    assert calls == [(lat, eps, 200_000, 1e-3, rng)]


@pytest.mark.parametrize("spec,eps", [
    ("E8", 1e-7), ("D4", 9.9e-7), ("D4", 1e-17), ("E8", 1e-17), ("2*D8", 5e-7),
])
def test_find_err_inv_refuses_dn_and_e8_below_the_exact_range(spec, eps, monkeypatch):
    # the sampled ladder needs rows in proportion to 1/eps and cannot
    # finish below 1e-6, so the route fails at once instead of sampling
    from latgauss.cli import parse_lattice

    _forbid_sampling(monkeypatch)
    lat = parse_lattice(spec)
    with pytest.raises(InvalidParams) as err:
        find_err_inv(lat, eps, rng=RngStream(3))
    assert lat.family[0] in str(err.value)
    assert "[1e-06, 0.5]" in str(err.value)


@pytest.mark.parametrize("spec,eps", [("E8", "1e-7"), ("D4", "5e-7")])
def test_simulate_refuses_dn_and_e8_below_the_exact_range(spec, eps, monkeypatch,
                                                          capsys):
    import latgauss.cli as cli

    _forbid_sampling(monkeypatch)
    argv = ["simulate", "--lattice", spec, "--snr", "1", "--eps", eps,
            "--trials", "100"]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[1e-06, 0.5]" in err


@pytest.mark.parametrize(
    "lat,volume,dithers",
    [(Z, 1.0, 2000), (scale_lattice(Z, 2.0), 2.0, 500), (standard_lattice("A2"), math.sqrt(3) / 2, 500)],
    ids=["Z", "2Z", "A2"],
)
def test_negative_moment_covers_the_volume(lat, volume, dithers):
    # E[1/f_sigma(Lambda+T)] telescopes to the cell volume for Gaussian T
    ci = negative_moment_check(lat, 1.0, dithers, RngStream(46))
    assert ci.lo <= volume <= ci.hi
    assert ci.trials == dithers


def test_negative_moment_needs_enough_dithers():
    with pytest.raises(InvalidParams):
        negative_moment_check(Z, 1.0, 99, RngStream(0))


def test_chernoff_power_tails():
    got = chernoff_power_check(Z4, 1.0, 0.9, 2000, RngStream(50))
    assert got["bound_upper"] == pytest.approx(
        math.exp(-(0.9**2 / 4 - 0.9**3 / 6) * 4), rel=1e-14
    )
    assert got["bound_lower"] == pytest.approx(
        math.exp(-(0.9**2 / 4 + 0.9**3 / 6) * 4), rel=1e-14
    )
    assert got["pass"]
    with pytest.raises(InvalidParams):
        chernoff_power_check(Z4, 1.0, 1.0, 200, RngStream(0))


def test_sampling_lemma_passes_and_control_fails(monkeypatch):
    got = sampling_lemma_suite(Z4, 1.0, 10_000, RngStream(51))
    assert got["pass"]
    assert len(got["ks_p"]) == 4
    assert got["per_test_level"] == pytest.approx(0.01 / 5)
    assert abs(got["mean_z"]) <= 3
    # broken control: without the dither (T = 0) the law concentrates on the
    # bare lattice and the Gaussian hypothesis must be rejected
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "sample_normal",
                  lambda sigma, n, rng, trials: np.zeros((trials, n)))
        bad = sampling_lemma_suite(Z, 0.3, 10_000, RngStream(52))
    assert not bad["pass"]
    with pytest.raises(InvalidParams):
        sampling_lemma_suite(Z4, 1.0, 5000, RngStream(0))


def test_discrete_sampling_composition():
    got = discrete_sampling_suite(scale_lattice(Z, 2.0), Z, 2.0, 20_000,
                                  RngStream(53))
    assert got["pass"]
    assert got["p_value"] > 0.001
    assert got["bins"] >= 2


def test_discrete_sampling_pools_every_bin_to_five(monkeypatch):
    # criterion 2's (Z^2, Z^2/2) case: most of its support expects under 5
    # draws, and the chi-square holds only if every pooled bin expects 5
    pooled = []

    def spy(counts, expected):
        out = pool(counts, expected)
        pooled.append((out, expected))
        return out

    pool = montecarlo._pool_from_tail
    monkeypatch.setattr(montecarlo, "_pool_from_tail", spy)
    z2 = standard_lattice("Z2")
    got = discrete_sampling_suite(z2, scale_lattice(z2, 0.5), 2.0, 100_000,
                                  RngStream(92))
    (obs, exp), expected = pooled[0]
    assert (expected < 5).sum() > 100
    assert exp.min() >= 5.0
    assert exp.sum() == pytest.approx(expected.sum(), rel=1e-12)
    assert obs.sum() == 100_000 and got["bins"] == exp.size


def test_dither_audit_profile_matches_measures():
    # mass, power and rate read from the audit's spec agree with the
    # independent measures routes on shifted A2 and E8 cosets; E8 at
    # the criterion-4 scale (err_inv 4.762 times sigma_eff)
    params = channel_params(1.0, 1.0)
    cases = [
        (standard_lattice("A2"), 2.0, [0.3, -0.7]),
        (standard_lattice("E8"), 3.367, [0.4, -1.1, 0.2, 0.9, -0.3, 0.05, 1.3, -0.6]),
    ]
    for lat, scale, t in cases:
        config = codec_config(lat, scale, params)
        scaled = config.scaled
        t = np.asarray(t)
        n = lat.n
        got = dither_audit(config, t, 0.05, 200, RngStream(58))
        power = batch_coset_stats(scaled, reduce_batch(scaled, t[None]), 1.0,
                                  rel_tol=1e-11)["power"][0]
        mass = enumerate_masses(scaled, t, 1.0, 1e-12).mass
        assert got.mass == pytest.approx(mass, rel=1e-9)
        assert got.avg_power.p_hat * n * params.sigma_s2 == pytest.approx(power, rel=1e-9)
        assert got.rate * n == pytest.approx(entropy_exact(scaled, t, 1.0), rel=1e-9)


def test_theorem1_suite_structure_and_pass():
    got = theorem1_suite(Z, 0.05, 1.0, dithers=20, trials=500, rng=RngStream(54))
    assert got["pass"]
    assert got["fraction"] >= got["threshold"]
    assert got["threshold"] == pytest.approx(0.5 - 3 * math.sqrt(0.25 / 20))
    assert got["margin"] == pytest.approx(got["fraction"] - got["threshold"])
    assert got["err_inv"] == pytest.approx(zn_err_inv(1, 0.05))
    assert got["scale"] == pytest.approx(got["err_inv"] * math.sqrt(0.5))
    assert len(got["audits"]) == 20
    for key in "abcd":
        assert 0.0 <= got["flag_fractions"][key] <= 1.0


def test_markov_bound_on_dither_error_rates():
    got = markov_error_suite(Z, 0.05, 1.0, dithers=120, trials=400,
                             rng=RngStream(55))
    assert got["pass"]
    for g, rep in got["gammas"].items():
        assert rep["bound"] == pytest.approx(1.0 / g)
        assert rep["fraction"] <= rep["bound"] + rep["slack"]
    # the scale normalization targets eps, so the dither-averaged rate
    # should land in that neighborhood
    assert got["mean_rate"] <= 3 * 0.05


def test_markov_rates_are_the_theorem1_audits():
    # Markov's inequality is applied to the very per-dither rates that
    # theorem1 audits: same dithers, same streams
    e8 = standard_lattice("E8")
    got = markov_error_suite(e8, 0.05, 1.0, dithers=20, trials=400,
                             rng=RngStream(62))
    audits = theorem1_suite(e8, 0.05, 1.0, dithers=20, trials=400,
                            rng=RngStream(62))["audits"]
    rates = np.array([a.err_rate.p_hat for a in audits])
    assert got["err_inv"] == find_err_inv(e8, 0.05, rng=RngStream(1))
    assert got["mean_rate"] == float(rates.mean())
    assert set(got["gammas"]) == {2.0, 6.0}
    for g, rep in got["gammas"].items():
        assert rep["fraction"] == float((rates >= g * 0.05).mean())


def test_converse_experiment_low_snr():
    got = converse_experiment(Z, 1.0, 2.0, 20_000, RngStream(56))
    assert isinstance(got, ConverseReport)
    assert got.p0 == pytest.approx(0.3989422782668617, rel=1e-8)
    assert got.half_gap == pytest.approx(0.5 * (1 - got.p0))
    assert got.snr == pytest.approx(0.25)
    assert got.converse_applies
    assert got.entropy_upper == pytest.approx(
        -math.log(got.p0) + math.pi * (1 - got.p0) + 1.8 * math.exp(-1.7), rel=1e-12
    )
    assert got.entropy_rate == pytest.approx(1.4189384329387842, abs=1e-9)
    assert got.entropy_ok
    assert got.error_ok
    assert got.p_err.hi >= got.half_gap


def test_run_trials_error_equals_effective_noise_escape():
    # genie check: with MMSE scaling the decoder errs exactly when
    # (alpha-1) X + alpha W leaves the Voronoi cell
    z2 = standard_lattice("Z2")
    cfg = codec_config(z2, 2.0, channel_params(1.0, 1.0))
    t = sample_normal(1.0, 2, RngStream(57).child(100), trials=2000)
    got = run_trials(cfg, t, RngStream(57), compare_escape=True)
    assert got["mismatches"] == 0
    assert got["escapes"] == got["errors"]
    assert got["failures"] == 0
    assert got["p_err"].p_hat == pytest.approx(got["errors"] / 2000)


def test_run_trials_escape_comparison_needs_peak_off():
    cfg = codec_config(Z, 1.0, channel_params(1.0, 1.0), peak="zeroize",
                       peak_budget=4.0)
    with pytest.raises(InvalidParams):
        run_trials(cfg, np.zeros((10, 1)), RngStream(0), compare_escape=True)


def test_transmission_experiment_contract():
    cfg = codec_config(standard_lattice("Z2"), 2.0, channel_params(1.0, 1.0))
    got = transmission_experiment(cfg, 500, RngStream(59))
    assert set(got) == {"errors", "err", "p_err", "avg_power", "failures",
                        "rate_proxy"}
    assert got["rate_proxy"] > 0
    assert got["err"].shape == (500,)
    assert got["errors"] == int(got["err"].sum())


def test_peak_tail_bound_holds():
    got = peak_tail_check(Z4, 1.0, 20_000, RngStream(60))
    assert got["pass"]
    for tv, case in got["cases"].items():
        assert case["bound"] == pytest.approx(2 * math.exp(-(tv**2) / 2))
        assert case["ci"].lo <= case["bound"]


def test_effective_noise_tail_bound_holds():
    got = effective_noise_tail_check(Z4, 1.0, 20_000, RngStream(61))
    assert got["pass"]
    for ev, case in got["cases"].items():
        assert case["bound"] == pytest.approx(math.exp(-(4 / 4) * (ev**2 - ev**3)))


def test_tail_bounds_suite_smoke():
    got = tail_bounds_suite(2000, RngStream(58))
    assert got["pass"]
    assert set(got["peak"]) == {"E8", "Z16"}
    assert set(got["w_eff"]) == {"E8", "Z16"}
