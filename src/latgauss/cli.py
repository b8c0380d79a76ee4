"""Command-line front end for the shaping library.

Conventions shared by every subcommand:

* Reproducibility. ``--seed`` fixes every random draw. Precedence: the
  flag, then a ``seed=`` line in ``--config``, then the LATGAUSS_SEED
  environment variable, then the documented default 20240901. A re-run
  with the same resolved options is byte-identical.
* Outputs. JSON documents carry a ``meta`` object and CSV tables a
  leading ``#`` comment line, both embedding the seed, a sha256 hash of
  the resolved options, and the tool version.
* Config files. ``--config FILE`` reads flat ``key=value`` lines (``#``
  comments allowed); keys are long option names of the subcommand being
  run, and explicit flags override file values.
* Units. Rates and entropies are nats per channel use; snr is a power
  ratio; sigma values are amplitudes in channel units; power is per
  dimension in channel units squared; error quantities are probabilities.
* Exit codes: 0 success, 1 a suite or sandwich check failed, 2 usage or
  parameter errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import cdlp_sandwich, finite_blocklength
from .codec import channel_params, codec_config
from .errors import LatgaussError, UsageError
from .lattices import from_json, nld, scale_lattice, standard_lattice, to_json
from .measures import (
    batch_coset_stats,
    entropy_exact,
    flatness_factor,
    mass_zero,
    smoothing_parameter,
)
from .montecarlo import (
    chernoff_power_check,
    converse_experiment,
    discrete_sampling_suite,
    find_err_inv,
    markov_error_suite,
    negative_moment_check,
    sampling_lemma_suite,
    tail_bounds_suite,
    theorem1_suite,
    transmission_experiment,
)
from .rng import DEFAULT_SEED, RngStream
from .sampling import sample_coset

SEED_ENV = "LATGAUSS_SEED"


# ---------------------------------------------------------------------------
# shared plumbing


def parse_lattice(spec):
    """Lattice from a name (Z4, D3, E8, A2), SCALE*NAME, or a JSON file."""
    spec = spec.strip()
    if os.path.sep in spec or spec.endswith(".json"):
        try:
            with open(spec, encoding="utf-8") as fh:
                return from_json(json.load(fh))
        except OSError as exc:
            raise UsageError(f"cannot read lattice file {spec!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"lattice file {spec!r} is not valid JSON: {exc}")
    if "*" in spec:
        stxt, _, name = spec.partition("*")
        try:
            c = float(stxt)
        except ValueError:
            raise UsageError(f"bad lattice scale prefix in {spec!r}")
        return scale_lattice(standard_lattice(name), c)
    return standard_lattice(spec)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _config_hash(ns):
    # Paths and the handler are presentation, not experiment identity.
    skip = {"func", "config", "csv"}
    d = {k: v for k, v in vars(ns).items() if k not in skip and not callable(v)}
    blob = json.dumps(_jsonable(d), sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _meta(ns):
    return {"seed": ns.seed, "config_hash": _config_hash(ns),
            "version": __version__}


def _print_json(doc, ns):
    doc = dict(doc)
    doc["meta"] = _meta(ns)
    sys.stdout.write(json.dumps(_jsonable(doc), sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _csv_meta_line(ns):
    m = _meta(ns)
    return f"# latgauss {m['version']} seed={m['seed']} config={m['config_hash']}"


def _emit_csv(lines, path, ns):
    text = "\n".join([_csv_meta_line(ns)] + lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _pick(value, default):
    return default if value is None else value


def resolve_channel(ns):
    """Exactly one of --snr or the --sigma-s2/--sigma-w2 pair."""
    has_snr = ns.snr is not None
    has_pair = ns.sigma_s2 is not None or ns.sigma_w2 is not None
    if has_snr and has_pair:
        raise UsageError("give either --snr or the --sigma-s2/--sigma-w2 "
                         "pair, not both")
    if has_snr:
        if not ns.snr > 0:
            raise UsageError("--snr must be positive")
        return channel_params(1.0, 1.0 / ns.snr)
    if ns.sigma_s2 is None or ns.sigma_w2 is None:
        raise UsageError("need --snr or both --sigma-s2 and --sigma-w2")
    return channel_params(ns.sigma_s2, ns.sigma_w2)


def parse_dither(spec):
    if spec == "none" or spec == "cont":
        return spec, None
    if spec.startswith("discrete:"):
        return "discrete", parse_lattice(spec.split(":", 1)[1])
    raise UsageError(f"--dither {spec!r}: must be none, cont, or discrete:<lattice>")


def parse_peak(spec):
    """(mode, codec_config keywords); a bare zeroize gets its budget later."""
    if spec == "off" or spec == "zeroize":
        return spec, {}
    mode, _, value = spec.partition(":")
    key = {"zeroize": "peak_budget", "modb": "mod_b"}.get(mode)
    if key is None:
        raise UsageError(f"--peak {spec!r}: must be off, zeroize[:P], or modb:<B>")
    try:
        return mode, {key: float(value)}
    except ValueError:
        raise UsageError(f"--peak {spec!r}: {value!r} is not a number") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_lattice(ns):
    lat = parse_lattice(ns.lattice)
    doc = {
        "lattice": to_json(lat),
        "volume": lat.volume,
        "covering_bound": lat.covering_bound,
    }
    if ns.sigma is not None:
        doc["nld"] = nld(lat, ns.sigma)
    _print_json(doc, ns)
    return 0


def _parse_shift(ns, lat):
    """The --shift of `ns` as a vector for `lat`; zeros when it is not given."""
    shift = np.zeros(lat.n) if ns.shift is None else np.asarray(ns.shift)
    if shift.shape != (lat.n,):
        raise UsageError(f"--shift needs {lat.n} comma-separated values")
    return shift


def cmd_measure(ns):
    lat = parse_lattice(ns.lattice)
    shift = _parse_shift(ns, lat)
    row = batch_coset_stats(lat, shift[None], ns.sigma)
    fb = flatness_factor(lat, ns.sigma, samples=ns.flatness_samples,
                         seed=ns.seed)
    sm = smoothing_parameter(lat, ns.eps)
    doc = {
        "lattice": ns.lattice,
        "sigma": ns.sigma,
        "shift": shift,
        "f_mass": row["mass"][0],
        "tail_bound": row["tail"][0],
        "P0": mass_zero(lat, ns.sigma),
        "entropy": entropy_exact(lat, shift, ns.sigma),
        "flatness_lower": fb.lower,
        "flatness_upper": fb.upper,
        "eta": sm.s,
        "eta_eps": ns.eps,
    }
    _print_json(doc, ns)
    return 0


def cmd_sample(ns):
    lat = parse_lattice(ns.lattice)
    pts = sample_coset(lat, _parse_shift(ns, lat), ns.sigma, RngStream(ns.seed), ns.n_samples)
    lines = [",".join(_fmt(float(v)) for v in row) for row in pts]
    _emit_csv(lines, ns.csv, ns)
    return 0


def _build_codec(ns, lat, params, err_inv, modes):
    """Config for the parsed --dither and --peak `modes` at one channel.

    The scale is err_inv * sigma_eff, or --scale when err_inv is None.
    """
    dither, fine, peak, peak_kw = modes
    if peak == "zeroize" and not peak_kw:  # a budget a Gaussian rarely hits
        peak_kw = {"peak_budget": 4.0 * params.sigma_s2}
    scale = ns.scale if err_inv is None else err_inv * params.sigma_eff
    return codec_config(lat, scale, params, dither=dither, dither_fine=fine,
                        peak=peak, **peak_kw)


def cmd_simulate(ns):
    lat = parse_lattice(ns.lattice)
    params = resolve_channel(ns)
    modes = (*parse_dither(ns.dither), *parse_peak(ns.peak))  # before any work
    root = RngStream(ns.seed)
    err_inv = None
    if ns.scale is None:
        err_inv = find_err_inv(lat, ns.eps, rng=root.child(1))
    config = _build_codec(ns, lat, params, err_inv, modes)
    res = transmission_experiment(config, ns.trials, root.child(2))
    err = res.pop("err")
    if ns.csv:
        rows = ["trial,error"]
        rows += [f"{i},{int(e)}" for i, e in enumerate(err)]
        _emit_csv(rows, ns.csv, ns)
    ci = res["p_err"]
    doc = {
        "p_err": ci.p_hat,
        "ci": [ci.lo, ci.hi],
        "avg_power": res["avg_power"],
        "rate_proxy": res["rate_proxy"],
        "errors": res["errors"],
        "failures": res["failures"],
        "trials": ns.trials,
        "snr": params.snr,
        "scale": config.scale,
        "err_inv": err_inv,
    }
    _print_json(doc, ns)
    return 0


def cmd_sweep(ns):
    bad = [snr for snr in ns.snr_grid if not snr > 0]
    if bad:
        raise UsageError(f"--snr-grid entries must be positive, got {bad}")
    lat = parse_lattice(ns.lattice)
    modes = (*parse_dither(ns.dither), *parse_peak(ns.peak))  # before any work
    root = RngStream(ns.seed)
    err_inv = find_err_inv(lat, ns.eps, rng=root.child(1))
    lines = ["snr,scale,p_err,ci_lo,ci_hi,avg_power,rate_proxy"]
    for i, snr in enumerate(ns.snr_grid):
        config = _build_codec(ns, lat, channel_params(1.0, 1.0 / snr), err_inv,
                              modes)
        r = transmission_experiment(config, ns.trials, root.child(10 + i))
        ci = r["p_err"]
        lines.append(",".join(_fmt(v) for v in (
            snr, config.scale, ci.p_hat, ci.lo, ci.hi,
            r["avg_power"], r["rate_proxy"],
        )))
    _emit_csv(lines, ns.csv, ns)
    return 0


class _Suite(NamedTuple):
    defaults: dict  # flag -> default value; these are the flags it reads
    note: str  # appended to the suite's line of the verify epilog
    run: Callable  # (params, root RngStream) -> (details, ok)


def _verdict(res):
    return res, res["pass"]


def _covers_volume(lat, ci):
    ok = ci.lo <= lat.volume <= ci.hi
    return {"ci": ci, "volume": lat.volume, "pass": ok}, ok


_SUITES = {
    "sampling-lemma": _Suite(
        {"lattice": "Z4", "sigma_s": 1.0, "trials": 100_000}, "",
        lambda p, root: _verdict(sampling_lemma_suite(
            parse_lattice(p["lattice"]), p["sigma_s"], p["trials"], rng=root))),
    "discrete-sampling-lemma": _Suite(
        {"lattice": "2*Z", "fine": "Z", "sigma": 2.0, "trials": 100_000}, "",
        lambda p, root: _verdict(discrete_sampling_suite(
            parse_lattice(p["lattice"]), parse_lattice(p["fine"]), p["sigma"],
            p["trials"], rng=root))),
    "negative-moment": _Suite(
        {"lattice": "Z", "sigma": 1.0, "dithers": 10_000}, "",
        lambda p, root: _covers_volume(
            lat := parse_lattice(p["lattice"]),
            negative_moment_check(lat, p["sigma"], p["dithers"], root))),
    "chernoff": _Suite(
        {"lattice": "Z4", "sigma_s": 1.0, "eps": 0.9, "dithers": 2000}, "",
        lambda p, root: _verdict(chernoff_power_check(
            parse_lattice(p["lattice"]), p["sigma_s"], p["eps"], p["dithers"],
            root))),
    "tail-bounds": _Suite(
        {"trials": 100_000}, "(lattices fixed: 4*E8 and Z16)",
        lambda p, root: _verdict(tail_bounds_suite(trials=p["trials"], rng=root))),
    "markov": _Suite(
        {"lattice": "Z4", "eps": 0.05, "snr": 1.0, "dithers": 500,
         "trials": 2000, "gammas": (2.0, 6.0)}, "",
        lambda p, root: _verdict(markov_error_suite(
            parse_lattice(p["lattice"]), p["eps"], p["snr"], gammas=p["gammas"],
            dithers=p["dithers"], trials=p["trials"], rng=root))),
    "converse": _Suite(
        {"lattice": "Z", "sigma_s": 1.0, "sigma_w": 2.0, "trials": 100_000}, "",
        lambda p, root: (
            rep := converse_experiment(parse_lattice(p["lattice"]), p["sigma_s"],
                                       p["sigma_w"], p["trials"], root),
            rep.entropy_ok and rep.error_ok)),
    "theorem1": _Suite(
        {"lattice": "E8", "eps": 0.05, "snr": 1.0, "dithers": 100,
         "trials": 2000}, "",
        lambda p, root: _verdict({k: v for k, v in theorem1_suite(
            parse_lattice(p["lattice"]), p["eps"], p["snr"], dithers=p["dithers"],
            trials=p["trials"], rng=root).items() if k != "audits"})),
}


def _flag(key):
    return key.replace("_", "-")


def _default_text(value):
    if isinstance(value, tuple):
        return ",".join(_default_text(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _suites_epilog():
    """verify's epilog: each suite's defaults, no "key value" pair split."""
    lines = ["suite defaults (any flag overrides):"]
    for name, suite in _SUITES.items():
        pairs = [f"{_flag(k)} {_default_text(v)}" for k, v in suite.defaults.items()]
        rows = pairs[:1]
        for pair in pairs[1:]:
            if len(rows[-1]) + 2 + len(pair) <= 52:  # 27 + 52 < 80 columns
                rows[-1] += ", " + pair
            else:
                rows[-1] += ","
                rows.append(pair)
        if suite.note:
            rows[-1] += " " + suite.note
        lines.append(f"  {name:<25}" + ("\n" + " " * 27).join(rows))
    return "\n".join(lines) + "\n"


def cmd_verify(ns):
    suite = _SUITES[ns.suite]
    ignored = sorted({key for other in _SUITES.values() for key in other.defaults
                      if key not in suite.defaults and getattr(ns, key) is not None})
    if ignored:
        raise UsageError(
            f"suite {ns.suite} does not read "
            f"{', '.join('--' + _flag(k) for k in ignored)}; it reads "
            f"{', '.join('--' + _flag(k) for k in suite.defaults)}")
    params = {k: _pick(getattr(ns, k), v) for k, v in suite.defaults.items()}
    details, ok = suite.run(params, RngStream(ns.seed))
    doc = {"suite": ns.suite, "params": params, "details": details,
           "pass": ok}
    _print_json(doc, ns)
    return 0 if ok else 1


def cmd_analyze(ns):
    lats = [(spec, parse_lattice(spec)) for spec in ns.lattices or []]
    if lats and not 0.0 < ns.eps < 0.5:  # cdlp_sandwich's range, before any output
        raise UsageError(f"--eps must be in (0, 0.5) with --lattices, got {ns.eps}")
    root = RngStream(ns.seed)
    cols = ["snr", "n", "eps", "capacity", "dispersion",
            "normal_approx_rate", "delta_eps_n", "intro_gap"]
    if ns.gamma is not None:
        cols.append("theorem1_gap")
    lines = [",".join(cols)]
    for snr in ns.snr_grid:
        for n in ns.n_grid:
            rep = finite_blocklength(snr, n, ns.eps, gamma=ns.gamma)
            row = [snr, n, ns.eps, rep.capacity, rep.dispersion,
                   rep.normal_approx_rate, rep.delta_eps_n, rep.intro_gap]
            if ns.gamma is not None:
                row.append(rep.theorem1_gap)
            lines.append(",".join(_fmt(v) for v in row))
    # every sandwich before any output, so a refused lattice prints nothing
    sandwich = {spec: cdlp_sandwich(lat, ns.eps, rng=root.child(50 + i))
                for i, (spec, lat) in enumerate(lats)}
    _emit_csv(lines, ns.csv, ns)
    if ns.csv or sandwich:
        _print_json({"eps": ns.eps, "sandwich": sandwich}, ns)
    return 1 if any(not v["ok"] for v in sandwich.values()) else 0


def cmd_converse(ns):
    suite = _SUITES["converse"]
    rep, ok = suite.run({k: getattr(ns, k) for k in suite.defaults},
                        RngStream(ns.seed))
    doc = _jsonable(rep)
    doc["pass"] = ok
    _print_json(doc, ns)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _float_list(text):
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, "
                                         f"got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _int_list(text):
    try:
        vals = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _str_list(text):
    vals = [t.strip() for t in text.split(",") if t.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help=f"RNG seed; default {DEFAULT_SEED}, overridable by the "
             f"{SEED_ENV} environment variable (flag wins over config file "
             f"wins over environment)")
    common.add_argument(
        "--config", metavar="FILE",
        help="flat key=value file of long option names; explicit flags "
             "override file values")

    parser = argparse.ArgumentParser(
        prog="latgauss",
        description="Discrete Gaussian shaping over lattices: exact "
                    "measures, seeded experiments, and verification suites.",
    )
    parser.add_argument("--version", action="version",
                        version=f"latgauss {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                metavar="subcommand")

    p = sub.add_parser(
        "lattice", parents=[common],
        help="describe a lattice as JSON",
        description="JSON description: basis (row-major), n, volume, and a "
                    "covering-radius upper bound (channel units). With "
                    "--sigma also the normalized log density report (nats "
                    "per dimension).")
    p.add_argument("--lattice", required=True,
                   help="name (Z, Z4, D3, E8, A2), SCALE*NAME, or JSON file")
    p.add_argument("--sigma", type=float,
                   help="noise deviation for the density report (amplitude)")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "measure", parents=[common],
        help="exact Gaussian measures of a lattice",
        description="JSON record: f_mass = sum of the sigma-Gaussian "
                    "density over lattice+shift with its certified relative "
                    "tail_bound; P0 = probability of the zero point "
                    "(probability); entropy of the coset distribution "
                    "(nats); flatness bracket (dimensionless); eta = "
                    "smoothing parameter at eta-eps (amplitude scaling).")
    p.add_argument("--lattice", required=True,
                   help="name, SCALE*NAME, or JSON file")
    p.add_argument("--sigma", type=float, required=True,
                   help="Gaussian deviation (amplitude)")
    p.add_argument("--shift", type=_float_list,
                   help="coset shift, comma-separated; default zeros")
    p.add_argument("--eps", type=float, default=0.01,
                   help="smoothing-parameter target (default 0.01)")
    p.add_argument("--flatness-samples", type=int, default=512,
                   help="cell points for the flatness lower bound "
                        "(default 512)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser(
        "sample", parents=[common],
        help="draw discrete Gaussian samples",
        description="CSV, one sample per line: the coordinates of a point "
                    "of lattice+shift drawn from the sigma-discrete "
                    "Gaussian (channel units).")
    p.add_argument("--lattice", required=True,
                   help="name, SCALE*NAME, or JSON file")
    p.add_argument("--shift", type=_float_list,
                   help="coset shift, comma-separated; default zeros")
    p.add_argument("--sigma", type=float, required=True,
                   help="Gaussian deviation (amplitude)")
    p.add_argument("--n-samples", type=int, default=1,
                   help="number of rows to emit (default 1)")
    p.add_argument("--csv", metavar="FILE",
                   help="write the table here instead of stdout")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="end-to-end shaping + AWGN + decoding experiment",
        description="JSON summary: p_err with its 99%% Clopper-Pearson ci "
                    "(probability), avg_power per dimension (channel units "
                    "squared), rate_proxy = exact dither-averaged entropy "
                    "rate (nats per channel use). The code lattice is "
                    "scaled so the effective noise escapes with "
                    "probability about --eps, unless --scale overrides.")
    p.add_argument("--lattice", required=True,
                   help="name, SCALE*NAME, or JSON file")
    p.add_argument("--snr", type=float,
                   help="signal-to-noise power ratio (sets sigma_s2=1)")
    p.add_argument("--sigma-s2", type=float,
                   help="signal power per dimension (channel units squared)")
    p.add_argument("--sigma-w2", type=float,
                   help="noise power per dimension (channel units squared)")
    p.add_argument("--eps", type=float, default=0.05,
                   help="target error probability (default 0.05); on Dn "
                        "and E8 it must lie in [1e-6, 0.5]")
    p.add_argument("--dither", default="cont",
                   help="none | cont | discrete:<lattice> (default cont)")
    p.add_argument("--peak", default="off",
                   help="off | zeroize[:P] | modb:<B>; P is the per-"
                        "dimension power cap (default 4*sigma_s2), B the "
                        "folding modulus (default off)")
    p.add_argument("--trials", type=int, default=100_000,
                   help="transmissions to simulate (default 100000)")
    p.add_argument("--scale", type=float,
                   help="fix the lattice scale directly, skipping the "
                        "inversion of the error curve")
    p.add_argument("--csv", metavar="FILE",
                   help="also write a per-trial CSV (columns: trial index, "
                        "error indicator)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="simulate across an SNR grid",
        description="CSV columns: snr (power ratio), scale (amplitude), "
                    "p_err/ci_lo/ci_hi (probability, 99%% Clopper-Pearson), "
                    "avg_power (channel units squared per dimension), "
                    "rate_proxy (nats per channel use).")
    p.add_argument("--lattice", required=True,
                   help="name, SCALE*NAME, or JSON file")
    p.add_argument("--snr-grid", type=_float_list, required=True,
                   help="comma-separated SNR values (power ratios)")
    p.add_argument("--eps", type=float, default=0.05,
                   help="target error probability (default 0.05); on Dn "
                        "and E8 it must lie in [1e-6, 0.5]")
    p.add_argument("--dither", default="cont",
                   help="none | cont | discrete:<lattice> (default cont)")
    p.add_argument("--peak", default="off",
                   help="off | zeroize[:P] | modb:<B> (default off)")
    p.add_argument("--trials", type=int, default=20_000,
                   help="transmissions per grid point (default 20000)")
    p.add_argument("--csv", metavar="FILE",
                   help="write the table here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "verify", parents=[common],
        help="run a named verification suite",
        description="JSON verdict for one suite; exit 1 if it fails. "
                    "Probabilities are compared through 99%% confidence "
                    "intervals, rates and entropies are nats per channel "
                    "use, power is per dimension in sigma_s^2 units.",
        epilog=_suites_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--suite", required=True, choices=sorted(_SUITES),
                   help="suite name")
    p.add_argument("--lattice", help="name, SCALE*NAME, or JSON file")
    p.add_argument("--fine", help="fine lattice for the discrete dither "
                                  "suite")
    p.add_argument("--sigma", type=float,
                   help="Gaussian deviation (amplitude)")
    p.add_argument("--sigma-s", type=float,
                   help="signal deviation (amplitude)")
    p.add_argument("--sigma-w", type=float,
                   help="noise deviation (amplitude)")
    p.add_argument("--eps", type=float, help="error or deviation target "
                                             "(probability)")
    p.add_argument("--snr", type=float, help="power ratio")
    p.add_argument("--trials", type=int, help="per-dither or total trials")
    p.add_argument("--dithers", type=int, help="dither population size")
    p.add_argument("--gammas", type=_float_list,
                   help="Markov thresholds, comma-separated")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "analyze", parents=[common],
        help="finite-blocklength table and sandwich reports",
        description="CSV columns: snr (power ratio), n (dimension), eps "
                    "(probability), capacity and normal_approx_rate (nats "
                    "per channel use), dispersion (nats^2), delta_eps_n and "
                    "intro_gap and theorem1_gap (nats per channel use or "
                    "per dimension). With --lattices also a JSON report "
                    "bracketing each lattice's inverse error function "
                    "between smoothing parameters of the dual (amplitude "
                    "scalings).")
    p.add_argument("--snr-grid", type=_float_list, required=True,
                   help="comma-separated SNR values (power ratios)")
    p.add_argument("--n-grid", type=_int_list, required=True,
                   help="comma-separated dimensions")
    p.add_argument("--eps", type=float, default=0.05,
                   help="target error probability (default 0.05); with "
                        "--lattices it must lie in (0, 0.5), and on Dn and "
                        "E8 in [1e-6, 0.5)")
    p.add_argument("--gamma", type=float,
                   help="modulation loss; adds the theorem1_gap column")
    p.add_argument("--lattices", type=_str_list,
                   help="comma-separated lattice specs for sandwich reports")
    p.add_argument("--csv", metavar="FILE",
                   help="write the table here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "converse", parents=[common],
        help="low-SNR converse experiment",
        description="JSON report: p0 (probability of the zero point), "
                    "entropy_rate vs entropy_upper (nats per channel use), "
                    "p_err with 99%% Clopper-Pearson ci vs half_gap = "
                    "(1-p0)/2 (probability). Exit 1 if a check fails.")
    conv = {k: _default_text(v) for k, v in _SUITES["converse"].defaults.items()}
    p.set_defaults(func=cmd_converse, **_SUITES["converse"].defaults)
    p.add_argument("--lattice",
                   help=f"name, SCALE*NAME, or JSON file (default {conv['lattice']})")
    p.add_argument("--sigma-s", type=float,
                   help=f"signal deviation (amplitude, default {conv['sigma_s']})")
    p.add_argument("--sigma-w", type=float,
                   help=f"noise deviation (amplitude, default {conv['sigma_w']})")
    p.add_argument("--trials", type=int,
                   help=f"transmissions (default {conv['trials']})")

    return parser


# ---------------------------------------------------------------------------
# config file and entry point


def _config_flags(path):
    """Translate key=value lines into long flags (inserted before the
    user's own flags, so the command line wins)."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                key = key.strip().lower().replace("_", "-")
                if not sep or not key:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                flags += [f"--{key}", val.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    return flags


def _inject_config(argv):
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    idx = next((i for i, t in enumerate(argv) if not t.startswith("-")), None)
    if idx is None:
        return argv
    return argv[:idx + 1] + _config_flags(path) + argv[idx + 1:]


def _finish_namespace(ns):
    if getattr(ns, "seed", None) is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            ns.seed = DEFAULT_SEED
        else:
            try:
                ns.seed = int(env)
            except ValueError:
                raise UsageError(f"{SEED_ENV} must be an integer, "
                                 f"got {env!r}")


def run(argv=None) -> int:
    """Parse and execute one command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv)
        ns = parser.parse_args(argv)
        _finish_namespace(ns)
        return ns.func(ns)
    except SystemExit as exc:  # argparse usage errors, --help, --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatgaussError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
