"""Smoke test of the benchmark itself: python3 -m pytest perfbench

Runs every workload briefly (theorem1-e8 shrunk by --smoke) and checks that
each named metric prints with its unit, that failed checks and raising calls
are counted, that the tracer reaches every binding of a function, and that
the benchmark refuses to run without the package sources.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(WORKLOADS) + 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for res in results[:-1]:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert results[-1]["correct"]


def _args(workload):
    return argparse.Namespace(workload=workload, seed=5, seconds=0.2, trace=0,
                              smoke=True)


def test_failed_check_is_counted_and_metrics_still_print(monkeypatch, capsys):
    monkeypatch.setattr(WORKLOADS["power-e8"], "check",
                        lambda self, inp, out: ["forced failure"])
    res = run.run_one(_args("power-e8"))
    assert not res["correct"]
    # the repeat of call 0 is compared by digest, not re-checked
    assert 1 <= res["failed"] < res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert res["metrics"]["ok_frac"]["value"] < 1.0
    assert "forced failure" in capsys.readouterr().out


def test_raising_call_is_counted(monkeypatch):
    def boom(self, inp):
        raise RuntimeError("forced")

    monkeypatch.setattr(WORKLOADS["escape-conA"], "call", boom)
    res = run.run_one(_args("escape-conA"))
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["ok_frac"]["value"] == 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    import latgauss.cli  # noqa: F401  loads every traced module
    from latgauss import lattices, sampling

    original = lattices.decode_batch
    tracer = Tracer()
    assert {"latgauss.lattices.decode_batch", "latgauss.sampling.decode_batch",
            "latgauss.montecarlo.decode_batch"} <= set(tracer.bindings("lattices.decode_batch"))
    assert {"latgauss.lattices.enumerate_coset", "latgauss.measures.enumerate_coset",
            "latgauss.montecarlo.enumerate_coset"} <= set(tracer.bindings("lattices.enumerate_coset"))
    tracer.install()
    try:
        assert sampling.decode_batch is lattices.decode_batch is not original
        e8 = lattices.standard_lattice("E8")
        sampling.batch_coset_sample(e8, [[0.1] * 8], 0.3, sampling.RngStream(1))
    finally:
        tracer.remove()
    assert lattices.decode_batch is original
    names = {s.name for s in tracer.spans}
    # sampling reaches enumerate_coset through a function-local import
    assert {"sampling.batch_coset_sample", "lattices.enumerate_coset"} <= names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "codec-e8", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
