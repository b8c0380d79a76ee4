import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import latgauss.cli as cli
import latgauss.montecarlo as montecarlo
from latgauss.lattices import standard_lattice


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_sampling_lemma_passes(capsys):
    code, doc = run_json(capsys, [
        "verify", "--suite", "sampling-lemma", "--lattice", "Z4",
        "--sigma-s", "1", "--trials", "100000", "--seed", "7",
    ])
    assert code == 0
    assert doc["pass"] is True
    assert doc["suite"] == "sampling-lemma"
    assert doc["details"]["radial_p"] > doc["details"]["per_test_level"]
    assert doc["meta"]["seed"] == 7
    assert doc["meta"]["version"] == cli.__version__
    assert len(doc["meta"]["config_hash"]) == 64


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["simulate", "--lattice", "Z", "--snr", "1", "--eps", "0.05",
            "--scale", "2.0", "--trials", "2000", "--seed", "9"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["trials"] == 2000
    assert doc["ci"][0] <= doc["p_err"] <= doc["ci"][1]


def test_simulate_per_trial_csv(tmp_path, capsys):
    log = tmp_path / "trials.csv"
    code = cli.run(["simulate", "--lattice", "Z", "--snr", "1", "--eps", "0.05",
                    "--scale", "2.0", "--trials", "500", "--seed", "9",
                    "--csv", str(log)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    lines = log.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("# latgauss ")
    assert lines[1] == "trial,error"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 500
    assert sum(int(r[1]) for r in rows) == doc["errors"]


def test_unknown_lattice_name_is_usage_error(capsys):
    assert cli.run(["lattice", "--lattice", "Q7"]) == 2
    assert "error" in capsys.readouterr().err


def test_conflicting_channel_flags_rejected(capsys):
    code = cli.run(["simulate", "--lattice", "Z", "--snr", "1",
                    "--sigma-s2", "1", "--sigma-w2", "1", "--eps", "0.05",
                    "--scale", "1.0", "--trials", "100"])
    assert code == 2
    code = cli.run(["simulate", "--lattice", "Z", "--eps", "0.05",
                    "--scale", "1.0", "--trials", "100"])
    assert code == 2


def test_missing_config_file_is_usage_error(capsys):
    assert cli.run(["verify", "--suite", "chernoff",
                    "--config", "/no/such/file.cfg"]) == 2


def test_env_seed_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
    assert cli.run(["lattice", "--lattice", "Z"]) == 2


def test_env_seed_applies_and_flag_wins(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "42")
    code, doc = run_json(capsys, ["lattice", "--lattice", "Z"])
    assert code == 0
    assert doc["meta"]["seed"] == 42
    code, doc = run_json(capsys, ["lattice", "--lattice", "Z", "--seed", "3"])
    assert doc["meta"]["seed"] == 3


def test_failing_suite_exits_one(monkeypatch, capsys):
    # every shipped suite checks a statement that holds for all reachable
    # inputs, so the failure path is exercised by stubbing one suite's call
    stub = cli._SUITES["chernoff"]._replace(
        run=lambda params, root: ({"pass": False}, False))
    monkeypatch.setitem(cli._SUITES, "chernoff", stub)
    code, doc = run_json(capsys, ["verify", "--suite", "chernoff"])
    assert code == 1
    assert doc["pass"] is False


def test_unknown_suite_is_usage_error(capsys):
    assert cli.run(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("argv, value", [
    (["simulate", "--lattice", "A2", "--snr", "2", "--scale", "1",
      "--peak", "zeroize:abc", "--trials", "100"], "abc"),
    (["simulate", "--lattice", "A2", "--snr", "2", "--scale", "1",
      "--peak", "modb:", "--trials", "100"], "modb:"),
    (["verify", "--suite", "markov", "--gammas", "0", "--dithers", "2",
      "--trials", "100"], "0.0"),
    (["verify", "--suite", "markov", "--gammas", "-2", "--dithers", "2",
      "--trials", "100"], "-2.0"),
    (["verify", "--suite", "markov", "--gammas", "0.5", "--dithers", "2",
      "--trials", "100"], "0.5"),
    (["verify", "--suite", "theorem1", "--dithers", "0", "--trials", "100"], "0"),
    (["verify", "--suite", "markov", "--dithers", "0", "--trials", "100"], "0"),
])
def test_bad_values_are_usage_errors(argv, value, capsys):
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error")
    assert value in err


def test_verify_rejects_flags_the_suite_does_not_read(tmp_path, capsys):
    assert cli.run(["verify", "--suite", "negative-moment", "--dithers", "100",
                    "--snr", "5", "--gammas", "3", "--fine", "E8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "does not read --fine, --gammas, --snr;" in err
    assert "it reads --lattice, --sigma, --dithers" in err
    # config keys become flags, so they are checked the same way
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_w = 3\n", encoding="utf-8")
    assert cli.run(["verify", "--suite", "chernoff", "--config", str(cfg)]) == 2
    assert "does not read --sigma-w;" in capsys.readouterr().err


def _forbid_inversion(monkeypatch):
    # the front door and the sampled inversion behind it: D4 reaches only
    # the front door, a lattice outside the families both
    def inversion(*args, **kwargs):
        raise AssertionError("the error curve was inverted")

    monkeypatch.setattr(cli, "find_err_inv", inversion)
    monkeypatch.setattr(montecarlo, "inverse_error_function", inversion)


def test_sweep_checks_the_grid_before_any_work(monkeypatch, capsys):
    _forbid_inversion(monkeypatch)
    assert cli.run(["sweep", "--lattice", "D4", "--snr-grid", "1,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "got [0.0]" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--lattice", "D4", "--snr", "1", "--dither", "bogus"],
    ["simulate", "--lattice", "D4", "--snr", "1", "--peak", "bogus"],
    ["sweep", "--lattice", "D4", "--snr-grid", "1", "--dither", "bogus"],
    ["sweep", "--lattice", "D4", "--snr-grid", "1", "--peak", "bogus"],
], ids=["simulate-dither", "simulate-peak", "sweep-dither", "sweep-peak"])
def test_modes_are_parsed_before_the_inversion(argv, monkeypatch, capsys):
    _forbid_inversion(monkeypatch)
    assert cli.run(argv + ["--trials", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'bogus'" in err


@pytest.mark.parametrize("command", [["lattice"], ["measure", "--sigma", "1"]])
def test_non_finite_basis_is_rejected(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis": [[NaN, 0], [0, 1]]}', encoding="utf-8")
    assert cli.run([command[0], "--lattice", str(bad)] + command[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "basis entry (0, 0) is not finite: nan" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_lattice_rejects_a_non_finite_sigma(value, capsys):
    assert cli.run(["lattice", "--lattice", "Z", "--sigma", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"sigma must be positive and finite, got {value}" in err


@pytest.mark.parametrize("pair, message", [
    (["inf", "1"], "got inf and 1.0"), (["1", "nan"], "got 1.0 and nan"),
], ids=["inf-signal", "nan-noise"])
def test_simulate_rejects_non_finite_variances_before_the_inversion(
        pair, message, monkeypatch, capsys):
    _forbid_inversion(monkeypatch)
    assert cli.run(["simulate", "--lattice", "E8", "--sigma-s2", pair[0],
                    "--sigma-w2", pair[1], "--trials", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"sigma_s2 and sigma_w2 must be positive and finite, {message}" in err


def test_analyze_checks_the_sandwich_eps_before_printing(capsys):
    argv = ["analyze", "--snr-grid", "1", "--n-grid", "100", "--eps", "0.5"]
    assert cli.run(argv + ["--lattices", "Z"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "got 0.5" in err
    assert cli.run(argv) == 0  # the table alone accepts eps = 0.5
    assert "\nsnr,n,eps," in capsys.readouterr().out


def test_analyze_computes_every_sandwich_before_printing(capsys):
    # E8 below eps 1e-6 is refused by the err_inv route; the table is not
    # printed ahead of the refusal
    assert cli.run(["analyze", "--snr-grid", "1", "--n-grid", "100",
                    "--lattices", "Z2,E8", "--eps", "1e-7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[1e-06, 0.5]" in err


def test_analyze_parses_every_lattice_before_printing(capsys):
    assert cli.run(["analyze", "--snr-grid", "1", "--n-grid", "100",
                    "--lattices", "Z2,Q7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Q7" in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--lattice", "Z", "--snr", "1", "--scale", "2",
      "--trials", "0"], "trials must be at least 1, got 0"),
    (["converse", "--trials", "0"], "trials must be at least 1, got 0"),
    (["verify", "--suite", "tail-bounds", "--trials", "0"],
     "trials must be at least 1, got 0"),
    (["sample", "--lattice", "Z", "--sigma", "1", "--n-samples", "0"],
     "trials must be at least 1, got 0"),
    (["measure", "--lattice", "Z", "--sigma", "-1"],
     "sigma must be positive and finite, got -1.0"),
    (["verify", "--suite", "sampling-lemma", "--sigma-s", "-1",
      "--trials", "10000"], "sigma must be positive and finite, got -1.0"),
], ids=["simulate", "converse", "tail-bounds", "sample", "measure",
        "sampling-lemma"])
def test_errors_name_the_value(argv, message, capsys):
    assert cli.run(argv) == 2
    assert message in capsys.readouterr().err


def test_config_file_fills_flags_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dithers = 400\nseed = 13\n# comment line\n", encoding="utf-8")
    code, doc = run_json(capsys, ["verify", "--suite", "chernoff",
                                  "--config", str(cfg)])
    assert code == 0
    assert doc["meta"]["seed"] == 13
    assert doc["params"]["dithers"] == 400
    code, doc = run_json(capsys, ["verify", "--suite", "chernoff",
                                  "--config", str(cfg), "--dithers", "200"])
    assert doc["params"]["dithers"] == 200
    assert doc["meta"]["seed"] == 13


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_flag = 1\n", encoding="utf-8")
    assert cli.run(["verify", "--suite", "chernoff", "--config", str(cfg)]) == 2


def test_sample_csv_shape(capsys):
    code = cli.run(["sample", "--lattice", "Z", "--shift", "0.5",
                    "--sigma", "1", "--n-samples", "5", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# latgauss ")
    assert "seed=3" in lines[0]
    data = lines[1:]
    assert len(data) == 5
    for row in data:
        # Z + 1/2 coset: every sample is a half integer
        assert float(row) % 1.0 == 0.5


def test_sample_e8_wide_sigma(capsys):
    # the E8 kernel draws without enumerating the 28.7M-point certified ball
    code = cli.run(["sample", "--lattice", "E8", "--sigma", "1.3", "--n-samples", "3"])
    assert code == 0
    data = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(data) == 3
    for row in data:
        standard_lattice("E8").coords_of([float(v) for v in row.split(",")])


def test_lattice_json_document(capsys):
    code, doc = run_json(capsys, ["lattice", "--lattice", "A2", "--seed", "5"])
    assert code == 0
    assert doc["lattice"]["n"] == 2
    assert doc["lattice"]["name"] == "A2"
    assert len(doc["lattice"]["basis"]) == 2
    assert doc["volume"] == pytest.approx(3**0.5 / 2)
    assert set(doc["meta"]) == {"seed", "config_hash", "version"}


def test_measure_record_fields(capsys):
    code, doc = run_json(capsys, ["measure", "--lattice", "Z", "--sigma", "1",
                                  "--eps", "0.01", "--seed", "2"])
    assert code == 0
    for key in ("lattice", "sigma", "f_mass", "tail_bound", "P0", "entropy",
                "flatness_lower", "flatness_upper", "eta", "eta_eps"):
        assert key in doc
    assert doc["P0"] == pytest.approx(0.3989422782668617, rel=1e-8)
    assert doc["eta"] == pytest.approx(3.2552472998369826, rel=1e-9)
    assert doc["flatness_lower"] <= doc["flatness_upper"]


def test_analyze_grid_csv(capsys):
    code = cli.run(["analyze", "--snr", "1", "--n", "4,16", "--eps", "0.05",
                    "--seed", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[1].split(",")
    assert header[:3] == ["snr", "n", "eps"]
    for col in ("capacity", "dispersion", "normal_approx_rate",
                "delta_eps_n", "intro_gap"):
        assert col in header
    assert len(lines) == 4  # meta, header, two grid rows


def test_analyze_sandwich_json_and_csv_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = cli.run(["analyze", "--snr", "1", "--n", "4", "--eps", "0.05",
                    "--lattices", "Z", "--csv", str(out), "--seed", "6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    sw = doc["sandwich"]["Z"]
    assert sw["ok"] is True
    assert sw["lower"] < sw["mid"] < sw["upper"]
    assert out.read_text(encoding="utf-8").startswith("# latgauss ")


def test_removed_inversion_knob_is_a_usage_error(tmp_path, capsys):
    assert cli.run(["simulate", "--lattice", "Z", "--snr", "1",
                    "--inv-trials", "5"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("inv_trials = 5\n", encoding="utf-8")
    assert cli.run(["analyze", "--snr-grid", "1", "--n-grid", "100",
                    "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def test_readme_command_lines_parse():
    # every latgauss line of the README's command-line block must name
    # only flags the parser knows; nothing is run
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("latgauss ")]
    assert len(lines) == 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line[len("latgauss "):]))
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    assert cli.__version__ in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 2
    assert cli.run(["bogus"]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import; only the two sampling
    # suites need it, and they import it when they run. scipy.optimize
    # costs about 0.2 s; smoothing_parameter imports it when it runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    code = ("import sys, latgauss.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
