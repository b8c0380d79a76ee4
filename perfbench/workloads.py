"""The four benchmark workloads.

Each workload builds its lattices in `setup` (timed as set-up), makes the
inputs of call j from (seed, j) with its own generator (not timed), makes one
call into latgauss (timed), and checks the call's output (not timed). The
package only ever receives the generated inputs. `finish` runs the checks
that need the whole run's outputs.

Calls go through module attributes (`self.mc.run_trials`, not a name bound
at import time), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

# Ensemble of escape-conA. It is fixed, not drawn from --seed: decode speed
# of a Construction-A member varies 14x between draws (137 to 1916 rows/s
# over 24 draws), so a seed-drawn 4-member ensemble moves rows/s by about
# 50% between seeds and no bound could hold. The noise comes from --seed.
ENSEMBLE_SEED = 20240901

# Two-sided normal quantile for the negative-moment check of power-e8: 99%
# family-wise over up to 100 runs (Bonferroni, 1e-4 per run), so that a
# correct package fails a campaign of benchmark runs at most 1% of the time.
Z_NEG_MOMENT = 3.890591886413094

# Rows per call of codec-e8 and power-e8. Their real callers send one large
# block: `latgauss simulate` passes 100,000 trials to one run_trials call and
# `latgauss sweep` 20,000, and the chernoff and negative-moment suites pass
# their whole dither set to one batch_coset_stats call. Each call rebuilds
# the shared coset support (enumerate_coset of about 120,000 points), so
# small blocks would overweight that fixed cost. At 256 rows, the kernels'
# default chunk, the support build is about 5% of a call, and a 20-second
# run still makes 16-27 calls.
BLOCK = 256


def call_seed(seed, j):
    """64-bit seed of call j's inputs; j = 0 is the workload seed itself."""
    if j == 0:
        return seed
    return int(np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0])


def _canon(obj, h):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            _canon(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for v in obj:
            _canon(v, h)
    elif is_dataclass(obj):
        _canon({f.name: getattr(obj, f.name) for f in fields(obj)}, h)
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def digest(obj):
    """sha256 of a call's output: arrays by bytes, floats by their hex form."""
    h = hashlib.sha256()
    _canon(obj, h)
    return h.hexdigest()


class Workload:
    """`check` sees each distinct input once; `finish` checks the pooled run.

    `smoke` shrinks a workload whose single call takes seconds, so the
    benchmark's own test stays short.
    """

    def __init__(self, smoke=False):
        self.summary = {}

    def finish(self):
        return []


class CodecE8(Workload):
    """run_trials on E8 at the criterion-3 settings, one dither block a call."""

    name = "codec-e8"
    unit = "transmissions"
    block = BLOCK

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.errors = 0
        self.rows = 0

    def setup(self):
        from latgauss import codec, lattices, montecarlo, rng

        self.mc = montecarlo
        self.RngStream = rng.RngStream
        params = codec.channel_params(1.0, 1.0)
        e8 = lattices.standard_lattice("E8")
        self.config = codec.codec_config(e8, 5.0 * params.sigma_eff, params,
                                         dither="cont", peak="off")
        self.config.scaled  # built lazily otherwise

    def inputs(self, seed, j):
        s = call_seed(seed, j)
        t = np.random.default_rng(s).standard_normal((self.block, 8))
        return t, self.RngStream(s)

    def call(self, inp):
        t, stream = inp
        return self.mc.run_trials(self.config, t, stream, compare_escape=True)

    def units(self, inp):
        return inp[0].shape[0]

    def check(self, inp, out):
        self.errors += out["errors"]
        self.rows += inp[0].shape[0]
        if out["mismatches"] != 0:
            return [f"{out['mismatches']} error/escape mismatches"]
        return []

    def finish(self):
        self.summary = {"errors": self.errors, "rows": self.rows}
        if not 0 < self.errors < self.rows:
            return [f"pooled errors {self.errors} not in (0, {self.rows})"]
        return []


class EscapeConA(Workload):
    """Voronoi-escape classification on a Construction-A (8, 4, 5) ensemble.

    One call decodes a block of N(0, 0.2^2 I) noise on each of the four
    members in turn (four decode_batch calls).
    """

    name = "escape-conA"
    unit = "noise vectors"
    sigma = 0.2
    block = 32  # rows per member and call
    checked_rows = 2  # per member and call, against enumerate_coset

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.escapes = 0
        self.rows = 0

    def setup(self):
        from latgauss import lattices, rng

        self.lat = lattices
        self.members = []
        for i in range(4):
            lat = lattices.random_mod_p_lattice(8, 4, 5,
                                                rng.RngStream(ENSEMBLE_SEED, i))
            self.members.append(lattices.scale_lattice(lat, lat.volume ** -0.125))

    def inputs(self, seed, j):
        g = np.random.default_rng(call_seed(seed, j))
        return [g.standard_normal((self.block, 8)) * self.sigma for _ in self.members]

    def call(self, inp):
        return [self.lat.decode_batch(m, y) for m, y in zip(self.members, inp)]

    def units(self, inp):
        return sum(y.shape[0] for y in inp)

    def check(self, inp, out):
        problems = []
        for k, (m, y, c) in enumerate(zip(self.members, inp, out)):
            self.escapes += int(np.any(c != 0, axis=1).sum())
            self.rows += y.shape[0]
            for r in range(min(self.checked_rows, y.shape[0])):
                d2 = float(((m.embed(c[r]) - y[r]) ** 2).sum())
                _, pts = self.lat.enumerate_coset(m, -y[r], math.sqrt(d2))
                closer = (pts**2).sum(axis=1) < d2 - self.lat._TIE_REL * (1.0 + d2)
                if closer.any():
                    problems.append(f"member {k} row {r}: a coset point is closer")
        return problems

    def finish(self):
        self.summary = {"escapes": self.escapes, "rows": self.rows,
                        "escape_rate": self.escapes / max(self.rows, 1)}
        return []


class Theorem1E8(Workload):
    """`latgauss verify --suite theorem1` at its defaults, in-process."""

    name = "theorem1-e8"
    unit = "dithers audited"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        # smoke: Z instead of E8 and two dithers, so a verdict takes seconds
        self.extra = ["--lattice", "Z", "--dithers", "2", "--trials", "100"] if smoke else []
        self.dithers = 2 if smoke else 100

    def setup(self):
        from latgauss import cli

        self.cli = cli

    def inputs(self, seed, j):
        return ["verify", "--suite", "theorem1", "--seed", str(call_seed(seed, j)),
                *self.extra]

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(argv)
        return code, buf.getvalue()

    def units(self, inp):
        return self.dithers

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        try:
            verdict = json.loads(text)["pass"]
        except (ValueError, KeyError) as exc:
            return [f"unreadable verdict: {exc!r}"]
        return [] if verdict is True else ["suite did not pass"]


class PowerE8(Workload):
    """batch_coset_stats on 5/sqrt(2) E8, as the chernoff and negative-moment
    suites call it: one block of N(0, I) dithers a call."""

    name = "power-e8"
    unit = "dithers certified"
    block = BLOCK

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.inverse_mass = []

    def setup(self):
        from latgauss import codec, lattices, measures

        self.lat = lattices
        self.measures = measures
        params = codec.channel_params(1.0, 1.0)
        e8 = lattices.standard_lattice("E8")
        self.scaled = codec.codec_config(e8, 5.0 * params.sigma_eff, params).scaled

    def inputs(self, seed, j):
        return np.random.default_rng(call_seed(seed, j)).standard_normal((self.block, 8))

    def call(self, t):
        red = self.lat.reduce_batch(self.scaled, t)
        return self.measures.batch_coset_stats(self.scaled, red, 1.0, rel_tol=1e-11)

    def units(self, inp):
        return inp.shape[0]

    def check(self, inp, out):
        mass, power = out["mass"], out["power"]
        bad = ~(np.isfinite(mass) & (mass > 0) & np.isfinite(power) & (power > 0))
        self.inverse_mass.append(1.0 / mass)
        return [f"{int(bad.sum())} rows with a non-finite or non-positive mass or power"] if bad.any() else []

    def finish(self):
        # negative-moment identity: E[1/f_1(Lambda + T)] = vol(Lambda), T ~ N(0, I)
        if not self.inverse_mass:  # every call failed already
            return []
        v = np.concatenate(self.inverse_mass)
        mean = float(v.mean())
        half = Z_NEG_MOMENT * float(v.std(ddof=1)) / math.sqrt(v.size) if v.size > 1 else math.inf
        vol = self.scaled.volume
        self.summary = {"mean_inverse_mass": mean, "half_width": half, "volume": vol,
                        "z": (mean - vol) / (half / Z_NEG_MOMENT)}
        if not abs(mean - vol) <= half:
            return [f"mean 1/mass {mean:.6g} +- {half:.3g} misses the volume {vol:.6g}"]
        return []


WORKLOADS = {w.name: w for w in (CodecE8, EscapeConA, Theorem1E8, PowerE8)}
