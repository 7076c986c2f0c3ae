"""Spans around the public calls of the proxpoint modules, recorded from
outside the library.

``Tracer.install`` replaces each traced public function, wherever a
proxpoint module holds a reference to it, with a wrapper that records a
span (name, layer, start, end, parent span) and a few attributes read
from the call's arguments and result. Resolvent factories additionally
wrap the callable they return, so each resolvent application is counted
and timed on the enclosing span. Nothing in the library is edited; the
wrappers are removed by ``Tracer.uninstall``.

Spans are kept in memory and written out once, at the end of a run.
Timestamps come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux), so spans written by different processes share one time base.
"""

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("problems", "operators", "methods", "splitting", "pep_cert", "cli")

# (module, function, kind). Kinds: "span" records a span; "factory" also
# wraps the returned resolvent; "engine" also reads iteration count,
# restarts and trace size; "fista" and "soft" only count calls.
TARGETS = [
    ("problems", "rotation_worst_case", "span"),
    ("problems", "strongly_monotone_toy", "span"),
    ("problems", "toy_saddle", "span"),
    ("problems", "basis_pursuit_instance", "span"),
    ("problems", "bilinear_game_instance", "span"),
    ("problems", "tv_instance", "span"),
    ("operators", "linear_resolvent", "factory"),
    ("operators", "saddle_resolvent_map", "factory"),
    ("operators", "preconditioned_resolvent_map", "factory"),
    ("operators", "yosida", "span"),
    ("methods", "ppm", "engine"),
    ("methods", "accelerated_ppm", "engine"),
    ("methods", "general_ppm", "engine"),
    ("methods", "guler", "engine"),
    ("methods", "restarted", "engine"),
    ("methods", "forward_method", "engine"),
    ("splitting", "accelerated_saddle_ppm", "engine"),
    ("splitting", "accelerated_prox_multipliers", "engine"),
    ("splitting", "pdhg", "engine"),
    ("splitting", "drs", "engine"),
    ("splitting", "admm", "engine"),
    ("splitting", "operator_norm", "span"),
    ("splitting", "pdhg_preconditioner", "span"),
    ("splitting", "fista_strongly_convex", "fista"),
    ("splitting", "soft_threshold", "soft"),
    ("pep_cert", "build_h", "span"),
    ("pep_cert", "certificate_slack", "span"),
    ("pep_cert", "verify_certificate", "span"),
    ("pep_cert", "equivalence_check", "span"),
    ("cli", "main", "span"),
    ("cli", "parse_config", "span"),
    ("cli", "run_experiment", "span"),
]

# SplitMix64 draws are traced as problems-layer spans too.
RNG_METHODS = ("normals", "normal_matrix")


def engine_key(name, args):
    """Per-engine metric key: the function name, with ``guler`` split by
    variant, ``restarted`` by restart kind and the saddle solver shortened."""
    if name == "guler":
        return "guler1" if args.get("variant") == "first" else "guler2"
    if name == "restarted":
        return "restarted_adaptive" if args.get("adaptive") else "restarted_fixed"
    if name == "forward_method":
        return "forward_yosida"
    if name == "accelerated_saddle_ppm":
        return "saddle_ppm"
    return name


def trace_nbytes(trace):
    """Bytes held by the arrays of a returned trace, each buffer once."""
    arrays = [v for v in vars(trace).values() if hasattr(v, "nbytes")]
    arrays += [v for v in getattr(trace, "iterates", {}).values() if hasattr(v, "nbytes")]
    seen = {}
    for a in arrays:
        base = a
        while getattr(base, "base", None) is not None:
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values())


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "attrs")

    def __init__(self, sid, parent, name, layer, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = time.perf_counter_ns()
        self.end = None
        self.attrs = attrs

    def record(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self, prefix="", oracle_iters=None):
        self.prefix = prefix
        self.oracle_iters = oracle_iters
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1].id
        # A worker thread's first span hangs under the span that was open
        # in the main thread when the worker ran (the CLI's thread pool).
        main = self._main_stack
        return main[-1].id if main else None

    def top(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, layer, attrs=None):
        stack = self._stack()
        span = Span(f"{self.prefix}{next(self._ids)}", self._parent(stack),
                    name, layer, attrs or {})
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.remove(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name, layer, **attrs):
        """Span opened by the benchmark itself around one of its steps."""
        span = self.open(name, layer, attrs)
        try:
            yield span
        finally:
            self.close(span)

    def bump(self, key, amount=1):
        """Add to a counter on the innermost open span of this thread."""
        top = self.top()
        if top is not None:
            top.attrs[key] = top.attrs.get(key, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def _wrap_resolvent(self, apply):
        tracer = self

        def counted(y):
            t0 = time.perf_counter_ns()
            out = apply(y)
            dt = time.perf_counter_ns() - t0
            top = tracer.top()
            if top is not None:
                a = top.attrs
                a["resolvent_calls"] = a.get("resolvent_calls", 0) + 1
                a["resolvent_ns"] = a.get("resolvent_ns", 0) + dt
            return out

        return counted

    def _wrapper(self, fn, name, layer, kind):
        tracer = self
        sig = inspect.signature(fn)

        if kind == "soft":
            @functools.wraps(fn)
            def soft(*args, **kwargs):
                if getattr(tracer._local, "in_fista", False):
                    tracer.bump("soft_calls")
                return fn(*args, **kwargs)
            return soft

        if kind == "fista":
            @functools.wraps(fn)
            def fista(*args, **kwargs):
                tracer.bump("fista_calls")
                tracer._local.in_fista = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._local.in_fista = False
            return fista

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if kind == "engine":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                attrs["engine"] = engine_key(name, a)
                attrs["iters"] = int(a.get("iters", 0))
                attrs["oracle"] = bool(tracer.oracle_iters is not None
                                       and attrs["iters"] == tracer.oracle_iters
                                       and a.get("R") is None)
            elif name == "verify_certificate":
                attrs["n"] = int(sig.bind(*args, **kwargs).arguments["n"])
            span = tracer.open(name, layer, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if kind == "factory":
                return tracer._wrap_resolvent(out)
            if kind == "engine":
                attrs["restarts"] = len(getattr(out, "restarts", ()))
                attrs["trace_bytes"] = trace_nbytes(out)
            elif name == "verify_certificate":
                attrs["deviation"] = float(out.max_rank1_deviation)
            return out

        return traced

    def install(self, package):
        """Wrap every traced function in every loaded ``package`` module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for modname, fname, kind in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{modname}")
            original = getattr(owner, fname, None)
            if original is None:
                continue
            wrapped = self._wrapper(original, fname, modname, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        rng_cls = sys.modules[f"{package.__name__}.problems"].SplitMix64
        for meth in RNG_METHODS:
            original = getattr(rng_cls, meth)
            self._patches.append((rng_cls, meth, original))
            setattr(rng_cls, meth, self._wrapper(original, f"SplitMix64.{meth}",
                                                 "problems", "span"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans):
    """Self time per span id: its duration minus the union of the
    intervals its children cover (children may overlap when the CLI runs
    methods on threads)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
