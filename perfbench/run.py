"""latgauss benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload codec-e8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The process makes the next call only after the previous one returns and
runs no second thread: BLAS is held to one thread (see below). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from spans recorded around
latgauss' public functions (see spans.py), and the spans are written to
.perfbench/. Every earlier stdout line is for people: a `meta` block and the
run's details.

Call 1 repeats call 0 on identical inputs, and their output digests must
match. A traced run alternates an untraced and a traced call on the same
inputs; their digests must match too, and their times give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads. With the default two threads on a
# two-CPU host shared with other jobs, a dgemm waits for its slower thread:
# alternating blocks of batch_coset_stats calls in one process took a median
# 0.42 s with two threads against 0.27 s with one while the host was busy,
# and 0.24 s either way while it was quiet.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from spans import Tracer, metric_units, report
from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up is timed in at least SETUP_REPEATS fresh interpreters, and in enough
# of them to add up to SETUP_MIN_S. The host's speed drifts over tens of
# seconds, so the samples are spread over the run between calls rather than
# taken in one burst: back to back, the median of 11 samples had an
# IQR/median of 0.24 (codec-e8) and 0.28 (power-e8), barely better than the
# median of 5.
SETUP_REPEATS = 9
SETUP_MIN_S = 3.0

E2E_UNITS = {"setup_s": "s", "rows_per_s": "1/s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MiB", "ok_frac": "fraction"}


def tail(times):
    """Time at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples). With ten samples or fewer no
    percentile qualifies, and the maximum is reported as percentile 100.
    """
    v = sorted(times)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def blas_threads():
    """(library, thread count) of the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return Path(path).name, fn()
    return None, None


def run_meta(workload, seed, seconds):
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    lib, threads = blas_threads()
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas": lib, "blas_threads": threads,
            "workload": workload, "seed": seed, "seconds": seconds,
            "src_lines": src_lines}


def setup_sample(name):
    """Seconds a fresh interpreter takes to import latgauss and set up `name`."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            "from workloads import WORKLOADS; "
            f"WORKLOADS[{name!r}]().setup(); print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, seed, seconds, traced, setup_repeats=0, setup_min_s=0.0):
    """Closed-loop calls for `seconds` of call time; returns the run record.

    Input indices are 0, 0, 1, 2, ... untraced, and 0, 0, 1, 1, ... traced,
    where the second of each pair runs under the tracer. With
    `setup_repeats`, that many set-up samples (see setup_sample), or enough
    to add up to `setup_min_s`, are taken between calls, spread evenly over
    the run; their time is not call time.
    """
    tracer = Tracer() if traced else None
    calls = []  # dicts: seconds, units, traced, problems
    digests = {}
    setups = []
    want = setup_repeats
    start = time.perf_counter()
    paused = 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    def take_setups(until):
        nonlocal want, paused
        t0 = time.perf_counter()
        while len(setups) < min(want, until):
            setups.append(setup_sample(wl.name))
            want = max(want, math.ceil(setup_min_s / setups[0]))
        paused += time.perf_counter() - t0

    i = 0
    while i < 2 or elapsed() < seconds or (traced and i % 2):
        take_setups(1 + want * elapsed() / seconds)
        j = i // 2 if traced else max(0, i - 1)
        repeat = i == 1 or (traced and i % 2 == 1)
        on = traced and i % 2 == 1
        inp = wl.inputs(seed, j)
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.call(inp)
            problems = []
        except Exception as exc:  # a raising call is a failed call; keep going
            out = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if on:
            tracer.remove()
        if out is not None:
            d = digest(out)
            if repeat:
                if d != digests.get(j):
                    problems.append(f"digest of input {j} differs on repeat")
            else:
                digests[j] = d
                problems += wl.check(inp, out)
        calls.append({"seconds": dt, "units": wl.units(inp) if out is not None else 0,
                      "traced": on, "problems": problems})
        i += 1
    take_setups(want)
    pooled = wl.finish()
    return {"calls": calls, "pooled": pooled, "tracer": tracer, "setups": setups}


def e2e_metrics(calls, setup_s):
    times = [c["seconds"] for c in calls]
    failed = sum(1 for c in calls if c["problems"])
    return {
        "setup_s": setup_s,
        "rows_per_s": sum(c["units"] for c in calls if not c["problems"]) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(calls) - failed) / len(calls),
    }


def run_one(args):
    wl = WORKLOADS[args.workload](smoke=args.smoke)
    wl.setup()
    meta = run_meta(args.workload, args.seed, args.seconds)
    meta["unit"] = wl.unit
    print(json.dumps({"meta": meta}))
    # set-up time is an end-to-end metric; a traced run does not report it
    repeats, min_s = ((0, 0.0) if args.trace else (3, 0.0) if args.smoke
                      else (SETUP_REPEATS, SETUP_MIN_S))
    rec = measure(wl, args.seed, args.seconds, bool(args.trace), repeats, min_s)
    calls = rec["calls"]
    setup_s = statistics.median(rec["setups"]) if rec["setups"] else None
    if rec["pooled"]:  # a pooled check speaks for every call of the run
        for c in calls:
            c["problems"] = c["problems"] + rec["pooled"]
    failed = sum(1 for c in calls if c["problems"])
    for k, c in enumerate(calls):
        for p in c["problems"]:
            print(f"call {k} failed: {p}")
    detail = {"calls": len(calls), "failed": failed,
              "failed_frac": failed / len(calls), "checks": wl.summary}
    if args.trace:
        plain = [c for c in calls if not c["traced"]]
        on = [c for c in calls if c["traced"]]
        metrics = report(rec["tracer"].spans, len(on), sum(c["seconds"] for c in on))
        m_plain, m_on = e2e_metrics(plain, setup_s), e2e_metrics(on, setup_s)
        metrics["trace.op_p50_s_delta"] = m_on["op_p50_s"] - m_plain["op_p50_s"]
        metrics["trace.rows_per_s_delta"] = m_on["rows_per_s"] - m_plain["rows_per_s"]
        units = metric_units()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec["tracer"].write(path, meta)
        detail["spans_file"] = str(path.relative_to(ROOT))
        detail["spans"] = len(rec["tracer"].spans)
        detail["traced_calls"] = len(on)
    else:
        metrics = e2e_metrics(calls, setup_s)
        units = E2E_UNITS
        _, pct, n = tail([c["seconds"] for c in calls])
        detail["op_tail_percentile"] = pct
        detail["op_samples"] = n
        detail["setup_runs_s"] = rec["setups"]
    print(json.dumps({"detail": detail}))
    for name, unit in units.items():
        print(f"{args.workload}  {name:52s} {metrics[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def run_all(args):
    """Each workload in a fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink theorem1-e8 to seconds (for the benchmark's own test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "latgauss" / "__init__.py").is_file():
        print(f"error: no latgauss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
