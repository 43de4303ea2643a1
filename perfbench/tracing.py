"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

For the length of one operation the tracer wraps every public function
of each frictionlab module at every name under which the package's
modules hold it (so a caller that imported the name sees the wrapper),
plus the sweep's private member function, numpy.fft.rfft/irfft and
Field.__post_init__. Nothing under src/ changes. A span records name,
start, end, parent, thread and the thread's CPU clock at start and end;
spans stay in memory until the operation ends. A layer is the module a
span's name starts with.

Self time is busy time: a span's thread CPU time minus that of its
children on the same thread. Wall-clock self times would be useless on
the threaded sweep, where each GIL wait lands in whatever Python code
happens to be waiting; the waiting is measured on its own instead, as
experiments.sweep.member_wait_s.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "spectral", "ksmap", "euler_poisson", "keller_segel",
           "characteristics", "diagnostics", "profiles", "spectrum",
           "experiments", "io")

# layers reported as <layer>.share
SHARE_LAYERS = ("experiments", "euler_poisson", "spectral", "keller_segel",
                "ksmap", "diagnostics", "characteristics", "core", "io")


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu0", "cpu1",
                 "extra")

    def __init__(self, name, parent, thread, start, cpu0):
        self.name, self.parent, self.thread = name, parent, thread
        self.start, self.end, self.cpu0, self.cpu1 = start, start, cpu0, cpu0
        self.extra = None


def _step_ep_extra(args, kwargs, _out):
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    return (dt, p.epsilon)


def _trig_interp_extra(args, kwargs, _out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    points = args[2] if len(args) > 2 else kwargs["points"]
    return np.size(points) * (grid.n // 2 + 1)     # points x modes


def _write_csv_extra(_args, _kwargs, out):
    return os.path.getsize(out)


EXTRAS = {"euler_poisson.step_ep": _step_ep_extra,
          "spectral.trig_interp": _trig_interp_extra,
          "io.write_csv": _write_csv_extra}


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _wrap(self, name, fn, extra=None):
        spans, local, tracer = self.spans, self._local, self
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            # a pool thread has no open span of its own: its parent is the
            # span the operation's thread is blocked in (the submitter)
            opener = stack or tracer._main_stack
            span = Span(name, opener[-1] if opener else tracer.root,
                        threading.get_ident(), clock(), cpu_clock())
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.cpu1 = cpu_clock()
                span.end = clock()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, out)
            return out
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "frictionlab" or name.startswith("frictionlab.")]
        wrappers = {}
        for layer in MODULES:
            mod = sys.modules[f"frictionlab.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    full = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(full, obj, EXTRAS.get(full))
        member = sys.modules["frictionlab.experiments"]._sweep_member
        wrappers[id(member)] = self._wrap("experiments.sweep_member", member)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, name, wrappers[id(obj)])
        for name in ("rfft", "irfft"):
            self._patch(np.fft, name,
                        self._wrap("spectral.fft", getattr(np.fft, name)))
        field_cls = sys.modules["frictionlab.core"].Field
        self._patch(field_cls, "__post_init__",
                    self._wrap("core.field", field_cls.__post_init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, operation):
        """Call operation() with every wrapper installed under a root span."""
        self.spans.clear()
        self.root = Span("op", None, threading.get_ident(), 0.0, 0.0)
        self._main_stack = self._local.__dict__.setdefault("stack", [])
        self.install()
        try:
            self.root.cpu0 = time.thread_time()
            self.root.start = time.perf_counter()
            try:
                return operation()
            finally:
                self.root.end = time.perf_counter()
                self.root.cpu1 = time.thread_time()
        finally:
            self.uninstall()

    def write_spans(self, path):
        """Write the last operation's spans as gzipped CSV, times in
        seconds from the operation's start."""
        index = {id(self.root): 0}
        for i, span in enumerate(self.spans, start=1):
            index[id(span)] = i
        t0 = self.root.start
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,thread,start_s,end_s,cpu_s\n")
            for i, span in enumerate([self.root] + self.spans):
                parent = "" if span.parent is None else index[id(span.parent)]
                fh.write(f"{i},{parent},{span.name},{span.thread},"
                         f"{span.start - t0:.9f},{span.end - t0:.9f},"
                         f"{span.cpu1 - span.cpu0:.9f}\n")


def self_times(spans, root) -> dict:
    """Span id -> thread CPU time minus that of its same-thread children.

    Children on other threads (sweep members under the sweep) add nothing
    to the parent's thread CPU time, so nothing is subtracted for them.
    """
    out = {id(span): span.cpu1 - span.cpu0 for span in [root] + spans}
    for span in spans:
        if span.parent.thread == span.thread:
            out[id(span.parent)] -= span.cpu1 - span.cpu0
    return out


def _under(span, name) -> bool:
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the last traced operation, plus detail that
    is not a metric (EP steps per sweep member)."""
    spans, root = tracer.spans, tracer.root
    selfs = self_times(spans, root)
    calls, self_s = Counter(), defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += selfs[id(span)]
    wall = root.end - root.start

    def per_call_us(name):
        return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

    steps = [s.extra for s in spans if s.name == "euler_poisson.step_ep"]
    dts = [dt for dt, _ in steps]
    ep_steps = calls["euler_poisson.step_ep"]
    all_steps = ep_steps + calls["keller_segel.step_ks"]
    fft_in_ep = sum(1 for s in spans if s.name == "spectral.fft"
                    and _under(s, "euler_poisson.simulate_ep"))
    members = [s for s in spans if s.name == "experiments.sweep_member"]
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {
        "experiments.op.self_s": (layer_self["experiments"], "s"),
        "experiments.sweep.member_wait_s": (
            sum((s.end - s.start) - (s.cpu1 - s.cpu0) for s in members), "s"),
        "euler_poisson.simulate_ep.self_s": (
            self_s["euler_poisson.simulate_ep"], "s"),
        "euler_poisson.dt.min": (min(dts) if dts else 0.0, "tau"),
        "euler_poisson.dt.median": (
            statistics.median(dts) if dts else 0.0, "tau"),
        "euler_poisson.dt.max": (max(dts) if dts else 0.0, "tau"),
        "spectral.fft.per_ep_step": (
            fft_in_ep / ep_steps if ep_steps else 0.0, "1/step"),
        "spectral.trig_interp.ops": (
            sum(s.extra for s in spans if s.name == "spectral.trig_interp"),
            "computed-ops"),
        "characteristics.semi_lagrangian_oracle.self_s": (
            self_s["characteristics.semi_lagrangian_oracle"], "s"),
        "core.field.constructions": (calls["core.field"], "count"),
        "core.field.per_step": (
            calls["core.field"] / all_steps if all_steps else 0.0, "1/step"),
        "io.write_csv.bytes": (
            sum(s.extra for s in spans if s.name == "io.write_csv"), "bytes"),
    }
    for name in ("euler_poisson.step_ep", "euler_poisson.stable_dt",
                 "spectral.fft", "spectral.deriv", "spectral.dealias",
                 "spectral.inverse_gradient", "spectral.trig_interp",
                 "keller_segel.step_ks", "keller_segel.stable_dt_ks",
                 "ksmap.ks_map_torus", "diagnostics.record_ep",
                 "diagnostics.record_ks", "characteristics.reconstruct_eulerian",
                 "io.write_csv"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_us"] = (per_call_us(name), "us")
    for name in ("diagnostics.norms", "characteristics.trajectory_position"):
        m[f"{name}.calls"] = (calls[name], "count")
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / wall, "ratio")

    steps_by_eps = Counter(eps for _, eps in steps)
    detail = {"op_wall_s": wall, "spans": len(spans),
              "ep_steps_by_epsilon": {f"{e:g}": steps_by_eps[e]
                                      for e in sorted(steps_by_eps, reverse=True)}}
    return m, detail
