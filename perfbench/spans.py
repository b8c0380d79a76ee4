"""Per-layer spans for latgauss, recorded from outside the package.

A Tracer replaces every public function of the traced modules, at every
module attribute through which callers reach it, with a wrapper that records
a span (name, start, end, parent) and, for a few functions, a count taken at
the same boundary. Function-local imports inside the package resolve the
module attribute at call time, so they reach the wrapper too. Spans stay in
memory; `write` dumps them when the run ends. Nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import types

LAYERS = ("lattices", "measures", "sampling", "codec", "montecarlo", "cli")

# function -> argument whose leading dimension is the span's row count
ROW_ARGS = {
    "lattices.decode_batch": "points",
    "lattices.reduce_batch": "points",
    "sampling.batch_coset_sample": "shifts",
    "measures.batch_coset_stats": "shifts",
    "sampling.sample_normal": "trials",
    "montecarlo.run_trials": "t",
    "codec.coords_differ": "diff",
    # the initial rung size; the rungs grow x4 from it
    "montecarlo.inverse_error_function": "trials",
}

# (function, metric) pairs reported per traced workload call
CALLS = ("lattices.enumerate_coset", "lattices.closest_point",
         "montecarlo.inverse_error_function", "measures.enumerate_masses",
         "sampling.discrete_gaussian", "montecarlo.dither_audit", "cli.run")
ROWS = ("sampling.batch_coset_sample", "measures.batch_coset_stats",
        "lattices.decode_batch", "lattices.reduce_batch",
        "sampling.sample_normal", "montecarlo.run_trials", "codec.coords_differ")
SELF = ("sampling.batch_coset_sample", "measures.batch_coset_stats",
        "lattices.enumerate_coset", "lattices.decode_batch",
        "lattices.closest_point", "lattices.reduce_batch",
        "montecarlo.inverse_error_function", "sampling.sample_normal",
        "measures.enumerate_masses", "sampling.discrete_gaussian",
        "montecarlo.dither_audit", "montecarlo.run_trials",
        "codec.coords_differ", "cli.run")
SUPPORT = ("sampling.batch_coset_sample", "measures.batch_coset_stats",
           "sampling.discrete_gaussian")
FAILED = ("lattices", "measures", "sampling")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF:
        if name in ROWS:
            units[f"{name}.rows"] = "count"
        if name in CALLS:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in SUPPORT:
            units[f"{name}.support_points"] = "count"
    units["lattices.enumerate_coset.points"] = "count"
    units["montecarlo.inverse_error_function.rows_drawn"] = "count"
    units["montecarlo.inverse_error_function.useful_ratio"] = "ratio"
    for layer in FAILED:
        units[f"{layer}.failed"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "fraction"
    units["trace.span_coverage"] = "fraction"
    units["trace.op_p50_s_delta"] = "s"
    units["trace.rows_per_s_delta"] = "1/s"
    return units


def _leading_dim(value):
    if value is None:  # sample_normal(trials=None) draws one row
        return 1
    if isinstance(value, int):
        return value
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return 1 if len(shape) < 2 else int(shape[0])


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = 0
        self.error = None


class Tracer:
    """Wrappers for latgauss' public functions; install only around calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        wrappers = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != "latgauss" and not modname.startswith("latgauss."):
                continue
            for attr, obj in sorted(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("latgauss.") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patches.append((module, attr, obj, wrappers[obj]))

    def bindings(self, name):
        """Module attributes that carry the wrapper for function `name`."""
        return sorted(f"{m.__name__}.{a}" for m, a, fn, _ in self._patches
                      if f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" == name)

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        row_arg = ROW_ARGS.get(name)
        sig = inspect.signature(fn) if row_arg else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if row_arg:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.count = _leading_dim(bound.arguments[row_arg])
            elif name == "lattices.enumerate_coset":
                span.count = int(out[0].shape[0])
            return out

        return wrapper

    def write(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "count": s.count, "error": s.error}) + "\n")


def report(spans, ops, op_wall_s):
    """Per-layer metrics from the spans of `ops` traced workload calls.

    `op_wall_s` is the summed wall time of those calls as timed by the
    benchmark. Self time is a span's duration minus its children's.
    """
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    calls, rows, self_s, support, drawn = {}, {}, {}, {}, {}
    trials = []
    failed = {layer: 0 for layer in FAILED}
    layer_self = {layer: 0.0 for layer in LAYERS}
    roots = 0.0
    for i, s in enumerate(spans):
        layer = s.name.partition(".")[0]
        own = dur[i] - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.count
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        layer_self[layer] += own
        if s.parent < 0:
            roots += dur[i]
        if s.name == "montecarlo.inverse_error_function":
            trials.append(s.count)
        parent_layer = spans[s.parent].name.partition(".")[0] if s.parent >= 0 else None
        if s.error and layer in failed and parent_layer != layer:
            failed[layer] += 1
        if s.name in ("lattices.enumerate_coset", "sampling.sample_normal"):
            into = support if s.name == "lattices.enumerate_coset" else drawn
            p = s.parent
            while p >= 0:
                into[p] = into.get(p, 0) + s.count
                p = spans[p].parent
    per_op = 1.0 / max(ops, 1)
    out = {}
    for name in SELF:
        if name in ROWS:
            out[f"{name}.rows"] = rows.get(name, 0) * per_op
        if name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0) * per_op
        out[f"{name}.self_s"] = self_s.get(name, 0.0) * per_op
        if name in SUPPORT:
            idx = [i for i, s in enumerate(spans) if s.name == name]
            out[f"{name}.support_points"] = (
                sum(support.get(i, 0) for i in idx) / len(idx) if idx else 0.0)
    out["lattices.enumerate_coset.points"] = (
        rows.get("lattices.enumerate_coset", 0) * per_op)
    inv = [i for i, s in enumerate(spans)
           if s.name == "montecarlo.inverse_error_function"]
    total_drawn = sum(drawn.get(i, 0) for i in inv)
    final_rows = 0
    for i, t in zip(inv, trials):
        # rows drawn over R rungs is t (4^R - 1) / 3; the last rung has t 4^(R-1)
        if t > 0 and drawn.get(i, 0) > 0:
            r = round(math.log(3 * drawn[i] / t + 1, 4))
            final_rows += t * 4 ** (r - 1)
    out["montecarlo.inverse_error_function.rows_drawn"] = total_drawn * per_op
    out["montecarlo.inverse_error_function.useful_ratio"] = (
        final_rows / total_drawn if total_drawn else 0.0)
    for layer in FAILED:
        out[f"{layer}.failed"] = failed[layer]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / op_wall_s if op_wall_s else 0.0
    out["trace.span_coverage"] = roots / op_wall_s if op_wall_s else 0.0
    return out
