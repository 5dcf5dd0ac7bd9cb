"""Spans around queuelab's public functions, installed from outside.

Python binds one function under several module names (`simulate` lives
in microsim, scalestats and cli), so each wrapper replaces every
attribute of every loaded queuelab module that holds the original, and
`uninstall` puts the originals back.  Service laws are traced by wrapping
`make_service_dist`: each law it returns has its hazard, sf, density and
sampler replaced by spans tagged with the law's family.

A span records its group, function, law, start, end, parent span and
path id (the replicate of the nearest enclosing call that names one).
Self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("group", "fn", "law", "path", "parent", "start", "end",
                 "child", "work")

    def as_dict(self, index):
        return {"id": index, "name": self.group, "fn": self.fn, "law": self.law,
                "path": self.path, "parent": self.parent, "start": self.start,
                "end": self.end, "self_s": self.end - self.start - self.child,
                "work": self.work}


def _size(args, kwargs, result):
    return (int(getattr(result, "size", 1)),)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _replicate(args):
    return int(getattr(args[0], "replicate", -1))


# (module, attribute, span group, path id); the group names the layer metric
SPANS = [
    ("dists", "holder_check", "dists.holder_check", None),
    ("microsim", "simulate", "microsim.simulate", _replicate),
    ("microsim", "compensator", "microsim.compensator", _replicate),
    ("microsim", "invariant_ages", "microsim.invariant_ages", None),
    ("microsim", "conservation_check", "microsim.conservation_check", _replicate),
    ("fluid", "solve_fluid", "fluid.solve_fluid", None),
    ("limitsim", "run_limit", "limitsim.run_limit", _replicate),
    ("limitsim", "simulate_field", "limitsim.simulate_field", None),
    ("limitsim", "conv_H", "limitsim.conv_H", None),
    ("limitsim", "solve_cmse", "limitsim.solve_cmse", None),
    ("limitsim", "s_op", "limitsim.readout", None),
    ("limitsim", "hat_nu", "limitsim.readout", None),
    ("limitsim", "hat_nu_stieltjes", "limitsim.readout", None),
    ("limitsim", "rep_hatx_residual", "limitsim.residuals", None),
    ("limitsim", "smg_bookkeeping_residual", "limitsim.residuals", None),
    ("limitsim", "simulate_hw", "limitsim.simulate_hw", None),
    ("scalestats", "verify_flln", "scalestats.verify", None),
    ("scalestats", "verify_fclt", "scalestats.verify", None),
    ("scalestats", "verify_insensitivity", "scalestats.verify", None),
    ("scalestats", "verify_moments", "scalestats.verify", None),
    ("scalestats", "verify_sae", "scalestats.verify", None),
    ("scalestats", "verify_representation", "scalestats.verify", None),
    ("scalestats", "ks_distance", "scalestats.estimators", None),
    ("scalestats", "counter_profile", "scalestats.estimators", None),
    ("scalestats", "diffusion_scale", "scalestats.estimators", None),
    ("scalestats", "qv_estimate", "scalestats.estimators", None),
    ("scalestats", "moment_bound_check", "scalestats.estimators", None),
    ("cli", "run", "cli.run", None),
    ("cli", "validate_config", "cli.validate_config", None),
]
# service-law callables traced on every law make_service_dist returns
LAW_KERNELS = {"hazard": "dists.hazard", "sf": "dists.sf",
               "density": "dists.density", "sampler": "dists.sampler"}
# group -> (work count names, counts from (args, kwargs, result))
WORK = {
    "dists.hazard": (("points",), _size),
    "dists.sf": (("points",), _size),
    "dists.density": (("points",), _size),
    "dists.sampler": (("draws",), _size),
    "microsim.simulate": (("events", "spans"),
                          lambda a, k, r: (r.ev_time.size, r.span_theta.size)),
    "fluid.solve_fluid": (("steps",), lambda a, k, r: (r.grid.size - 1,)),
    "limitsim.simulate_field": (("cells",), lambda a, k, r: (r.W.size,)),
    "limitsim.conv_H": (("columns",), lambda a, k, r: (a[0].W.shape[1],)),
    "limitsim.solve_cmse": (("steps",), lambda a, k, r: (len(a[0]) - 1,)),
    "limitsim.simulate_hw": (("path_steps",), lambda a, k, r: (
        round(_arg(a, k, 0, "T") / _arg(a, k, 1, "dt"))
        * int(_arg(a, k, 5, "n_paths")),)),
}
# scipy calls counted, not timed, in the namespace of one module
COUNTED = [("limitsim", "fftconvolve", "limitsim.fftconvolve")]
LAWS = ("exponential", "gamma", "lognormal")


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def wrap(self, fn, group, path=None, law=None):
        spans, stack = self.spans, self._stack
        work = WORK.get(group, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            s = Span()
            s.group, s.fn, s.law, s.parent = group, fn.__name__, law, parent
            s.child, s.work = 0.0, ()
            s.path = (path(args) if path is not None
                      else spans[parent].path if parent >= 0 else -1)
            stack.append(len(spans))
            spans.append(s)
            s.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = _clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += s.end - s.start
            if work is not None:
                s.work = work(args, kwargs, result)
            return result

        return traced

    def count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def traced_law(self, dist):
        family = dist.name.split("(")[0]
        return dataclasses.replace(dist, **{
            attr: self.wrap(getattr(dist, attr), group, law=family)
            for attr, group in LAW_KERNELS.items()})

    def install(self):
        """Replace every binding of the traced functions in loaded modules."""
        mods = {name.split(".")[-1]: m for name, m in list(sys.modules.items())
                if name.startswith("queuelab.")}
        for mod, attr, group, path in SPANS:
            if mod in mods:
                original = getattr(mods[mod], attr)
                self._rebind(mods.values(), original,
                             self.wrap(original, group, path))
        for mod, attr, key in COUNTED:
            if mod in mods:
                original = getattr(mods[mod], attr)
                self._rebind([mods[mod]], original, self.count(original, key))
        original = mods["dists"].make_service_dist

        @functools.wraps(original)
        def make_service_dist(*args, **kwargs):
            return self.traced_law(original(*args, **kwargs))

        self._rebind(mods.values(), original, make_service_dist)

    def _rebind(self, modules, original, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, original))

    def uninstall(self):
        while self._restore:
            m, attr, original = self._restore.pop()
            setattr(m, attr, original)


def layer_metrics(spans, counts):
    """Per-layer numbers from one round's spans and counters.

    Every group gets calls and self_s, every work count its name; groups
    that did not run read 0.  The per-1e5-point, per-path and per-call
    figures repeat the units of the ROADMAP baseline table.
    """
    groups = {g for _, _, g, _ in SPANS} | set(LAW_KERNELS.values())
    calls, work = Counter(), Counter()
    self_s, incl = defaultdict(float), defaultdict(float)
    law_s, law_pts = defaultdict(float), Counter()
    nodes = 0
    for s in spans:
        dur = s.end - s.start
        calls[s.group] += 1
        self_s[s.group] += dur - s.child
        incl[s.group] += dur
        for key, n in zip(WORK.get(s.group, ((),))[0], s.work):
            work[f"{s.group}.{key}"] += n
        if s.law is not None:
            law_s[s.group, s.law] += dur - s.child
            law_pts[s.group, s.law] += s.work[0]
        if (s.group == "dists.hazard" and s.parent >= 0
                and spans[s.parent].group == "microsim.compensator"):
            nodes += s.work[0]

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {}
    for g in sorted(groups):
        m[f"{g}.calls"] = calls[g]
        m[f"{g}.self_s"] = self_s[g]
    for g, (keys, _) in WORK.items():
        for key in keys:
            m[f"{g}.{key}"] = work[f"{g}.{key}"]
    for g in ("dists.hazard", "dists.sf"):
        m[f"{g}.ns_per_point"] = per(self_s[g], work[f"{g}.points"], 1e9)
    for g in ("dists.hazard", "dists.sf", "dists.density"):
        for law in LAWS:
            m[f"{g}.ms_per_1e5.{law}"] = per(law_s[g, law], law_pts[g, law], 1e8)
    sim = "microsim.simulate"
    m[f"{sim}.us_per_event"] = per(self_s[sim], work[f"{sim}.events"], 1e6)
    m[f"{sim}.ms_per_path"] = per(incl[sim], calls[sim], 1e3)
    m[f"{sim}.events_per_path"] = per(work[f"{sim}.events"], calls[sim], 1)
    m["microsim.compensator.nodes"] = nodes
    m["limitsim.conv_H.ms_per_call"] = per(incl["limitsim.conv_H"],
                                           calls["limitsim.conv_H"], 1e3)
    for _, _, key in COUNTED:
        m[f"{key}.calls"] = counts[key]
    return m
