"""Spans around the public functions of each stgames module.

The tracer wraps functions from outside the library: every `stgames.*`
namespace that binds the same function object gets the wrapper, because
modules import kernels by name (`solve_lp` into `coop` and `incentives`,
`run_dynamics` into `coordination`, `resilience` and `scenario`). Spans
(name, start, end, parent) stay in memory; a layer's self time is its spans'
time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _horizon(args, kwargs, pos):
    return kwargs["horizon"] if "horizon" in kwargs else args[pos]


def _tableau_shape(lp):
    """Rows and columns of the dense simplex tableau `lp.solve_lp` builds.

    Computed from the problem's array shapes and bounds, not measured: free
    variables split in two, finite two-sided bounds add a row, every
    inequality gets a slack and every row not of the form <= b (b >= 0)
    after sign normalization gets an artificial column.
    """
    a = np.asarray(lp.lhs, dtype=float)
    m, n = a.shape
    lo = np.zeros(n) if lp.lower is None else np.asarray(lp.lower, dtype=float)
    hi = np.full(n, np.inf) if lp.upper is None else np.asarray(lp.upper, dtype=float)
    free = np.isinf(lo) & np.isinf(hi)
    cols = n + int(free.sum())
    boxed = int((np.isfinite(lo) & np.isfinite(hi)).sum())
    shift = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    b = np.asarray(lp.rhs, dtype=float) - a @ shift
    senses = list(lp.senses)
    slack = sum(s != "==" for s in senses) + boxed
    art = sum(s == "==" or (s == ">=") == (bi >= 0) for s, bi in zip(senses, b))
    return m + boxed, cols + slack + art


def _count_lp(c, args, kwargs, sol):
    rows, cols = _tableau_shape(args[0])
    c["lp.calls"] += 1
    c["lp.pivots"] += sol.iterations
    c["lp.rows_max"] = max(c["lp.rows_max"], rows)
    c["lp.tableau_mb_max"] = max(c["lp.tableau_mb_max"], rows * cols * 8 / 2 ** 20)


def _count_flow(c, args, kwargs, fa):
    c["congestion.solves"] += 1
    c["congestion.paths_max"] = max(c["congestion.paths_max"], len(fa.paths))


def _count_bytes(c, args, kwargs, paths):
    c["scenario.bytes_written"] += sum(os.path.getsize(p) for p in paths
                                       if not p.endswith(".meta.json"))


def _count_dynamics(c, args, kwargs, trace):
    c["learning.run_dynamics_calls"] += 1
    c["learning.steps"] += _horizon(args, kwargs, 2)


def _counter(key, of=lambda args, kwargs, result: 1):
    def count(c, args, kwargs, result):
        c[key] += of(args, kwargs, result)
    return count


# (module, attribute, self-time metric, count hook); a dotted attribute is a
# static method on a class.
TARGETS = (
    ("cli", "main", "cli.self_s", _counter("cli.invocations")),
    ("scenario", "parse_scenario", "scenario.parse_s", None),
    ("scenario", "run_scenario", "scenario.run_self_s", None),
    ("scenario", "write_outputs", "scenario.export_s", _count_bytes),
    ("strategic", "StrategicGame.from_tables", "strategic.from_tables_s", None),
    ("strategic", "enumerate_pure_nash", "strategic.nash_s", None),
    ("strategic", "is_nash", "strategic.nash_s", None),
    ("strategic", "welfare_and_poa", "strategic.nash_s", None),
    ("learning", "run_dynamics", "learning.run_dynamics_s", _count_dynamics),
    ("learning", "diagnostics", "learning.diagnostics_s",
     _counter("learning.gap_samples", lambda a, k, r: len(r.gap_series))),
    ("coordination", "run_two_timescale", "coordination.run_two_timescale_s",
     _counter("coordination.epochs", lambda a, k, r: len(r.epochs))),
    ("coordination", "stackelberg_solve", "coordination.stackelberg_solve_s", None),
    ("coop", "shapley", "coop.shapley_s", None),
    ("coop", "core_nonempty", "coop.core_nonempty_s", None),
    ("coop", "nucleolus", "coop.nucleolus_s",
     _counter("coop.nucleolus_stages", lambda a, k, r: r.stages)),
    ("coop", "is_superadditive", "coop.checks_s", None),
    ("coop", "is_convex", "coop.checks_s", None),
    ("lp", "solve_lp", "lp.solve_s", _count_lp),
    ("matching", "deferred_acceptance", "matching.deferred_acceptance_s", None),
    ("matching", "enumerate_stable", "matching.enumerate_stable_s", None),
    ("congestion", "wardrop_equilibrium", "congestion.solve_s", _count_flow),
    ("congestion", "system_optimum", "congestion.solve_s", _count_flow),
    ("congestion", "price_of_anarchy", "congestion.solve_s", None),
    ("congestion", "braess_delta", "congestion.solve_s", None),
    ("congestion", "marginal_cost_tolls", "congestion.solve_s", None),
    ("incentives", "design_incentive", "incentives.design_s", None),
    ("resilience", "run_consensus_scenario", "resilience.consensus_s",
     _counter("resilience.rounds", lambda a, k, r: _horizon(a, k, 1))),
)

# metric -> layer, for every layer the traced pass reports
LAYER_OF = {metric: metric.split(".")[0] for _, _, metric, _ in TARGETS}


class Tracer:
    """Installs span wrappers, records spans and counts, and restores the
    original bindings on exit."""

    def __init__(self):
        self.spans = []                 # (name, start, end, parent index)
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)   # per layer
        self._stack = []
        self._undo = []

    def _wrap(self, metric, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (metric, start, end, parent)
                tracer.calls[LAYER_OF[metric]] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def __enter__(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "stgames" or name.startswith("stgames."))]
        for module, attr, metric, count in TARGETS:
            home = sys.modules[f"stgames.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                fn = self._wrap(metric, original.__func__, count)
                setattr(cls, meth, staticmethod(fn))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(metric, original, count)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, wrapper)
                        self._undo.append((ns, name, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def self_times(self):
        """Self time per metric name, summed over spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
