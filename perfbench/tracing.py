"""Spans around the calls each crofton layer exposes to its caller.

Wrappers are bound at the call sites (the importing module's attribute) for
the traced run only and restored afterwards; nothing in crofton itself is
edited. A span's layer is the part of its name before the first dot, which is
the crofton module that does the work.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import crofton.montecarlo as montecarlo
import crofton.tessellation as tessellation
import crofton.verify as verify

LAYERS = ("cli", "verify", "montecarlo", "zero_cell", "renewal", "tessellation", "geometry", "measure")


class Recorder:
    """Spans (name, start, end, parent index, verdict id) plus named counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.verdict = -1
        self._child = []  # per span: time covered by its child spans
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._child.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.verdict)
            if parent >= 0:
                self._child[parent] += t1 - t0

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; `after(result, *args, **kwargs)` adds counts."""

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def totals(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, t0, t1, _parent, _verdict), child in zip(self.spans, self._child):
            a = agg[name]
            a[0] += 1
            a[1] += t1 - t0
            a[2] += t1 - t0 - child
        return agg

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[name], t0, t1, parent, verdict] for name, t0, t1, parent, verdict in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "verdict"], "names": names, "spans": rows}, f)


# ---------------------------------------------------------------------------
# call-site bindings


def _count(rec, key):
    def after(_out, *_a, **_kw):
        rec.counts[key] += 1

    return after


def _traced_engine(rec, engine):
    """Time the block methods of a path engine and count the cells they step through."""

    def cells(key_fn):
        def after(_out, *args, **_kw):
            rec.counts["zero_cell.path_cell_steps"] += key_fn(*args)
            rec.counts["montecarlo.blocks"] += 1

        return after

    engine.run_block = rec.wrap("zero_cell.path", engine.run_block, cells(lambda rng, m, n: m * (n + 1)))
    engine.path_start = rec.wrap("zero_cell.path", engine.path_start, cells(lambda rng: 1))
    engine.path_steps = rec.wrap("zero_cell.path", engine.path_steps, cells(lambda state, rng, n: n))
    return engine


def _traced_make_engine(rec, fn):
    def make(*args, **kwargs):
        return _traced_engine(rec, rec.call("zero_cell.make_path_engine", fn, *args, **kwargs))

    return make


def _traced_batch(rec, cls):
    """Constructor of batch zero-cell samplers whose `sample(rng, m)` is timed and counted."""

    def after(_out, _rng, m, **_kw):
        rec.counts["zero_cell.zero_cells"] += m

    def make(*args, **kwargs):
        batch = cls(*args, **kwargs)
        batch.sample = rec.wrap("zero_cell.zero_cells", batch.sample, after)
        return batch

    return make


def _traced_two_sample(rec, fn):
    def counted(gen):
        def block(rng, m):
            rec.counts["montecarlo.blocks"] += 1
            return gen(rng, m)

        return block

    def two_sample(gen_a, gen_b, *args, **kwargs):
        return rec.call("montecarlo.two_sample", fn, counted(gen_a), counted(gen_b), *args, **kwargs)

    return two_sample


def _traced_experiment(rec, cls):
    def method(fn):
        def traced(self, *args, **kwargs):
            return rec.call("montecarlo.estimator", fn, self, *args, **kwargs)

        return traced

    names = ("estimate_q_many", "estimate_interarrival", "estimate_mean_gap",
             "estimate_stationary_delay", "estimate_conditional_pattern", "thinning_separation")
    return type("Traced" + cls.__name__, (cls,), {n: method(getattr(cls, n)) for n in names})


def _verdict_counts(rec):
    def after(report, *_a, **_kw):
        rec.counts["verify.verdicts"] += 1
        rec.counts["verify.attempts"] += len(report.attempts)
        rec.counts["verify.first_attempt_passes"] += bool(report.attempts[0]["passed"])

    return after


def _bindings(rec):
    """(namespace, attribute, replacement) for every traced call site."""
    renewal_in_verify = ("q_vector", "p_by_renewal_recursion", "p_by_inclusion_exclusion",
                         "mean_recurrence", "marginal_thinning_ratio")
    renewal_in_mc = ("q_vector", "p_by_renewal_recursion", "stationary_delay",
                     "conditional_pattern_prob", "marginal_thinning_ratio")
    out = [(verify.VERIFY_TARGETS, t, rec.wrap("verify.target", fn, _verdict_counts(rec)))
           for t, fn in verify.VERIFY_TARGETS.items()]
    out += [(mod, n, rec.wrap("renewal.call", getattr(mod, n), _count(rec, "renewal.calls")))
            for mod, names in ((verify, renewal_in_verify), (montecarlo, renewal_in_mc)) for n in names]
    for mod in (verify, montecarlo, tessellation):
        out.append((mod, "lambda_of", rec.wrap("measure.lambda_of", mod.lambda_of,
                                               _count(rec, "measure.lambda_of_calls"))))
    for mod in (verify, montecarlo):
        out.append((mod, "contains", rec.wrap("geometry.contains", mod.contains,
                                              _count(rec, "geometry.contains_calls"))))

    def stit_after(tess, *_a, **_kw):
        rec.counts["tessellation.stit_runs"] += 1
        rec.counts["tessellation.stit_cells"] += tess.n_cells

    def zero_cell_after(cell, *_a, **_kw):
        rec.counts["tessellation.zero_cells_found"] += cell is not None

    def boundary_after(touches, *_a, **_kw):
        rec.counts["tessellation.boundary_rejects"] += bool(touches)

    out += [
        (verify, "stit_run", rec.wrap("tessellation.stit_run", verify.stit_run, stit_after)),
        (verify, "nest", rec.wrap("tessellation.nest", verify.nest, _count(rec, "tessellation.nest_calls"))),
        (verify, "zero_cell_of", rec.wrap("tessellation.zero_cell_of", verify.zero_cell_of, zero_cell_after)),
        (verify, "touches_boundary",
         rec.wrap("tessellation.touches_boundary", verify.touches_boundary, boundary_after)),
        (verify, "_RectBatchZeroCells", _traced_batch(rec, verify._RectBatchZeroCells)),
        (verify, "sample_zero_cell",
         rec.wrap("zero_cell.zero_cells", verify.sample_zero_cell, _count(rec, "zero_cell.zero_cells"))),
        (verify, "Experiment", _traced_experiment(rec, verify.Experiment)),
        (verify, "ergodic_average", rec.wrap("montecarlo.ergodic", verify.ergodic_average)),
        (verify, "two_sample_containment_test", _traced_two_sample(rec, verify.two_sample_containment_test)),
        (montecarlo, "make_path_engine", _traced_make_engine(rec, montecarlo.make_path_engine)),
        (tessellation, "split", rec.wrap("geometry.split", tessellation.split, _count(rec, "geometry.split_calls"))),
        (tessellation, "sample_hitting", rec.wrap("measure.sample_hitting", tessellation.sample_hitting,
                                                  _count(rec, "measure.sample_hitting_calls"))),
    ]
    return out


def _get(ns, attr):
    return ns[attr] if isinstance(ns, dict) else getattr(ns, attr)


def _set(ns, attr, value):
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


@contextlib.contextmanager
def traced(rec: Recorder):
    """Bind every wrapper for the duration of the block, then restore the originals."""
    bindings = _bindings(rec)
    originals = [(ns, attr, _get(ns, attr)) for ns, attr, _ in bindings]
    try:
        for ns, attr, value in bindings:
            _set(ns, attr, value)
        yield rec
    finally:
        for ns, attr, value in reversed(originals):
            _set(ns, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: Recorder, wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    tot = rec.totals()
    c = rec.counts

    def incl(name):
        return tot[name][1] if name in tot else 0.0

    def self_s(name):
        return tot[name][2] if name in tot else 0.0

    def rate(n, s):
        return n / s if s > 0 else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, _incl, self_time) in tot.items():
        layer_self[name.split(".", 1)[0]] += self_time
    covered = sum(layer_self.values())
    verdicts = c["verify.verdicts"]
    m = {
        "zero_cell.path_cell_steps": (c["zero_cell.path_cell_steps"], "count"),
        "zero_cell.path_s": (incl("zero_cell.path"), "s"),
        "zero_cell.path_steps_per_s": (rate(c["zero_cell.path_cell_steps"], incl("zero_cell.path")), "1/s"),
        "zero_cell.zero_cells": (c["zero_cell.zero_cells"], "count"),
        "zero_cell.zero_cell_s": (incl("zero_cell.zero_cells"), "s"),
        "zero_cell.zero_cells_per_s": (rate(c["zero_cell.zero_cells"], incl("zero_cell.zero_cells")), "1/s"),
        "montecarlo.blocks": (c["montecarlo.blocks"], "count"),
        "montecarlo.estimators_s": (self_s("montecarlo.estimator"), "s"),
        "montecarlo.two_sample_self_s": (self_s("montecarlo.two_sample"), "s"),
        "montecarlo.ergodic_self_s": (self_s("montecarlo.ergodic"), "s"),
        "renewal.calls": (c["renewal.calls"], "count"),
        "tessellation.stit_runs": (c["tessellation.stit_runs"], "count"),
        "tessellation.stit_cells": (c["tessellation.stit_cells"], "count"),
        "tessellation.stit_s": (incl("tessellation.stit_run"), "s"),
        "tessellation.stit_cells_per_s": (rate(c["tessellation.stit_cells"], incl("tessellation.stit_run")), "1/s"),
        "tessellation.nest_calls": (c["tessellation.nest_calls"], "count"),
        "tessellation.nest_s": (incl("tessellation.nest"), "s"),
        "tessellation.zero_cell_of_s": (incl("tessellation.zero_cell_of"), "s"),
        "tessellation.touches_boundary_s": (incl("tessellation.touches_boundary"), "s"),
        "geometry.contains_calls": (c["geometry.contains_calls"], "count"),
        "geometry.contains_s": (incl("geometry.contains"), "s"),
        "geometry.split_calls": (c["geometry.split_calls"], "count"),
        "geometry.split_s": (incl("geometry.split"), "s"),
        "measure.lambda_of_calls": (c["measure.lambda_of_calls"], "count"),
        "measure.lambda_of_s": (incl("measure.lambda_of"), "s"),
        "measure.sample_hitting_calls": (c["measure.sample_hitting_calls"], "count"),
        "measure.sample_hitting_s": (incl("measure.sample_hitting"), "s"),
        "verify.attempts": (c["verify.attempts"], "count"),
        "verify.first_attempt_pass_ratio": (c["verify.first_attempt_passes"] / verdicts if verdicts else 0.0, "ratio"),
        "verify.stit_accept_ratio": (
            rate(c["tessellation.zero_cells_found"] - c["tessellation.boundary_rejects"], c["tessellation.stit_runs"]),
            "ratio",
        ),
        "trace.overhead_ratio": (wall_s / untraced_wall_s - 1.0, "ratio"),
        "trace.unattributed_s": (wall_s - covered, "s"),
        "trace.wall_s": (wall_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m
