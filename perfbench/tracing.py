"""Spans around calls into rvqlab's layers, recorded from outside the package.

Consumer modules import names by value (``loss`` imports ``cdf``, ``skew``
and ``channel`` import ``hermitian_eig``, ``loss``, ``harness`` and ``skew``
import ``sample_channel``), so a name is wrapped in every consumer namespace
that holds it, and the ``RngStream`` methods are wrapped on the class.  A name
that a later version of the package no longer has is skipped, and its metrics
read 0.

Spans keep name, layer, start, end, parent and thread.  Each thread has its
own stack of open spans; a span opened on a harness pool thread with an empty
stack takes the run span as its parent.  Spans live in memory until the
traced run ends.
"""

from __future__ import annotations

import inspect
import json
import threading
from time import perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "attrs")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


def _codewords(fn):
    """Span attribute: codewords drawn, from the call's own arguments."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        return {"codewords": (bound.get("n_channels", 1) * bound["n_codebooks"]
                              << bound["bits"])}
    return count


def _n_evals(fn):
    """Span attribute: objective evaluations the optimizer reports."""
    return lambda args, kwargs, result: {"evals": result.n_evals}


class Tracer:
    """Patches rvqlab's layer boundaries with span-recording wrappers.

    Use as a context manager around the calls to trace; every patch is undone
    on exit.  ``run_span`` wraps one ``harness.run`` call.
    """

    def __init__(self, rvqlab):
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._undo = []
        self._rvqlab = rvqlab

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, layer, stack[-1] if stack else tracer.root,
                        threading.get_ident())
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_span(self, run, config):
        """Call ``run(config)`` inside the root span of this trace."""
        self.spans = []
        self.root = Span("harness.run", "harness", None, threading.get_ident())
        self._stack().append(self.root)
        self.root.start = perf_counter()
        try:
            return run(config)
        finally:
            self.root.end = perf_counter()
            self._stack().pop()
            self.spans.append(self.root)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, name, layer, attrs=None):
        """Wrap ``owner.attr``; ``attrs(original)`` makes the span-attribute
        function, called with (args, kwargs, result)."""
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer,
                                        attrs(original) if attrs else None))

    def _patch_tasks(self, harness):
        """Give every preset task a ``harness.task`` span.

        The builder table is the one private name used: it is the only place
        the task callables exist before ``harness.run`` calls them.
        """
        builders = getattr(harness, "_BUILDERS", None)
        if not isinstance(builders, dict):
            return
        tracer = self

        def wrap_builder(build):
            def traced_build(config):
                columns, tasks = build(config)
                return columns, [(label, tracer._wrap(fn, "harness.task", "harness"))
                                 for label, fn in tasks]
            return traced_build

        for key, build in list(builders.items()):
            builders[key] = wrap_builder(build)
            self._undo.append((builders, key, build))

    def __enter__(self):
        r = self._rvqlab
        loss, skew, harness, channel = r.loss, r.skew, r.harness, r.channel
        for owner, attr in ((loss, "delta1_mc"), (loss, "delta2_mc"),
                            (loss, "avg_delta_snr"), (loss, "avg_delta_mi"),
                            (harness, "skew_candidates_avg"),
                            (skew, "delta1_sk_mc")):
            self._patch(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}",
                        "mc", _codewords)
        for attr in ("delta1_quadrature", "delta2_quadrature"):
            self._patch(loss, attr, f"loss.{attr}", "quadrature")
        for attr in ("delta1_closed", "delta1_asympt", "delta2_exact2",
                     "delta2_appx", "delta2_asympt"):
            self._patch(loss, attr, f"loss.{attr}", "closed")
        for owner in (loss, harness):
            self._patch(owner, "cdf", "wnorm.cdf", "wnorm")
        for owner in (loss, harness, skew):
            self._patch(owner, "sample_channel", "channel.sample_channel", "channel")
        for owner in (channel, skew):
            self._patch(owner, "hermitian_eig", "linalg.hermitian_eig", "linalg")
        for attr in ("derive", "generator"):
            self._patch(r.rng.RngStream, attr, f"rng.{attr}", "rng")
        self._patch(skew, "optimize_skew_a1", "skew.optimize_skew_a1", "skew",
                    _n_evals)
        self._patch_tasks(harness)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return False

    # -- output ----------------------------------------------------------

    def dump(self, path):
        """Write the spans of the last traced run as JSON lists
        [name, layer, start_s, end_s, parent_index, thread]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.layer, s.start - self.root.start,
                 s.end - self.root.start,
                 index.get(id(s.parent)) if s.parent is not None else None,
                 s.thread] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "layer", "start_s", "end_s",
                                   "parent", "thread"], "spans": rows}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _mean_us(spans):
    return 1e6 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


def layer_metrics(spans, root):
    """Per-layer metrics and layer shares of one traced ``harness.run``."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def self_time(s):
        kids = children.get(id(s), ())
        return s.duration - _union_length((max(k.start, s.start), min(k.end, s.end))
                                          for k in kids)

    by_layer = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def outermost(layers):
        return [s for s in spans if s.layer in layers
                and (s.parent is None or s.parent.layer not in layers)]

    wall = root.duration
    tasks = named("harness.task")
    # harness time is wall time in which no other layer runs on any thread
    in_layers = [s for s in spans if s.layer != "harness"
                 and s.parent is not None and s.parent.layer == "harness"]
    harness_self = wall - _union_length((s.start, s.end) for s in in_layers)
    # thread-busy time: task spans summed over threads, plus run time outside
    # every task (preset building, CSV and manifest writing)
    busy = (sum(t.duration for t in tasks)
            + wall - _union_length((t.start, t.end) for t in tasks))

    mc = by_layer.get("mc", [])
    mc_self = sum(self_time(s) for s in mc)
    codewords = sum(s.attrs["codewords"] for s in outermost({"mc"}))
    quad = by_layer.get("quadrature", [])
    cdf = by_layer.get("wnorm", [])
    cdf_in_quad = [s for s in cdf if s.parent is not None
                   and s.parent.layer == "quadrature"]
    opt = by_layer.get("skew", [])
    opt_s = sum(s.duration for s in opt)
    evals = sum(s.attrs["evals"] for s in opt)
    durations = [t.duration for t in tasks]
    overhead = sum(s.duration for s in outermost({"channel", "rng", "linalg"}))

    metrics = {
        "harness.self_s": harness_self,
        "harness.task_imbalance": (max(durations) * len(durations) / sum(durations)
                                   if durations else 0.0),
        "mc.codewords": codewords,
        "mc.self_s": mc_self,
        "mc.codewords_per_s": codewords / mc_self if mc_self > 0 else 0.0,
        "rng.derive_calls": len(named("rng.derive")),
        "rng.derive_us": _mean_us(named("rng.derive")),
        "rng.generator_calls": len(named("rng.generator")),
        "rng.generator_us": _mean_us(named("rng.generator")),
        "channel.sample_calls": len(by_layer.get("channel", [])),
        "channel.sample_us": _mean_us(by_layer.get("channel", [])),
        "linalg.eig_calls": len(by_layer.get("linalg", [])),
        "linalg.eig_us": _mean_us(by_layer.get("linalg", [])),
        "skew.optimizer_s": opt_s,
        "skew.objective_evals": evals,
        "skew.objective_us": 1e6 * opt_s / evals if evals else 0.0,
        "wnorm.cdf_calls": len(cdf),
        "wnorm.cdf_us": _mean_us(cdf),
        "quadrature.self_s": sum(self_time(s) for s in quad),
        "quadrature.evals_per_value": len(cdf_in_quad) / len(quad) if quad else 0.0,
        "closed.calls": len(by_layer.get("closed", [])),
        "closed.us": _mean_us(by_layer.get("closed", [])),
    }
    shares = {
        "mc": mc_self / busy,
        "wnorm.cdf": sum(s.duration for s in outermost({"wnorm"})) / busy,
        "skew": opt_s / busy,
        "channel+rng+linalg": overhead / busy,
    }
    return metrics, shares
