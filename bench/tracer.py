"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the package, on the module
attributes that revtone's callers look up at call time, so the traced
program is the same code the untraced run executes.  Two kinds of
wrapper exist:

- a *span* records one interval (layer, name, start, end, thread) with
  the span that caused it;
- a *hot* wrapper serves the ~1e5 scalar calls (profile values, CDF
  lookups, Newton steps).  It records no span; calls, points, total and
  self time are summed per name into the nearest open span.

Spans opened in a worker thread with nothing open on that thread attach
to the innermost open fan-out span (the convergence sweep), so pool work
is charged to the sweep that started it.

`attribute` turns a span list into per-layer self time that adds up to
the root spans' wall time, also when the children of a fan-out span
overlap in time.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

import numpy as np

# Public functions of these modules are wrapped; names listed in SPAN_NAMES
# become spans, every other public function a hot wrapper.
TRACED_MODULES = {"revtone.actions": "actions", "revtone.spectral": "spectral",
                  "revtone.measures": "measures"}
SPAN_NAMES = {"normalization_M", "liouville_state", "nu_mass_and_cdf",
              "joint_slice", "radial_modes",
              "convergence_sweep", "empirical_mu", "empirical_nu", "ks_distance",
              "wasserstein1", "limit_measure_mu", "limit_measure_nu"}
FAN_OUT = {"convergence_sweep"}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "thread", "start", "end",
                 "child", "hot", "extra")

    def __init__(self, id, parent, layer, name, thread, start):
        self.id, self.parent, self.layer, self.name = id, parent, layer, name
        self.thread, self.start, self.end = thread, start, start
        self.child = 0.0   # time of same-thread wrapped callees (spans and hot calls)
        self.hot = {}      # (layer, name, cross) -> [calls, points, total_s, self_s, leaf_calls, leaf_s]
        self.extra = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer, "name": self.name,
                "thread": self.thread, "start": self.start, "end": self.end,
                "child": self.child, "extra": self.extra,
                "hot": [[k[0], k[1], k[2], *v] for k, v in self.hot.items()]}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        s = cls(d["id"], d["parent"], d["layer"], d["name"], d["thread"], d["start"])
        s.end, s.child, s.extra = d["end"], d["child"], d.get("extra", {})
        s.hot = {(h[0], h[1], bool(h[2])): list(h[3:]) for h in d["hot"]}
        return s


class Tracer:
    """Collects spans in memory; `dump` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fan_out: list[Span] = []
        self._lock = threading.Lock()

    def _state(self):
        st = self._local.__dict__
        if "frames" not in st:
            st["frames"] = []   # [child_acc] per open wrapped call, spans included
            st["spans"] = []    # open spans on this thread
        return st["frames"], st["spans"]

    def span(self, layer: str, name: str, fn, on_result=None, fan_out: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames, open_spans = self._state()
            if open_spans:
                parent = open_spans[-1].id
            else:
                parent = self._fan_out[-1].id if self._fan_out else None
            s = Span(next(self._ids), parent, layer, name, threading.get_ident(), time.perf_counter())
            frame = [0.0]
            frames.append(frame)
            open_spans.append(s)
            if fan_out:
                self._fan_out.append(s)
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                s.child = frame[0]
                frames.pop()
                open_spans.pop()
                if fan_out:
                    self._fan_out.remove(s)
                if frames:
                    frames[-1][0] += s.dur
                self.spans.append(s)
            return on_result(s, result) if on_result is not None else result
        return wrapper

    def hot(self, layer: str, name: str, fn, count_points: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames, open_spans = self._state()
            frame = [0.0]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += d
                points = int(np.size(args[0])) if count_points and args else 1
                self._charge(open_spans, (layer, name), points, d, d - frame[0], frame[0] == 0.0)
        return wrapper

    def profile_eval(self, fn):
        """Hot wrapper for a profile callable, split by scalar or array argument."""
        scalar = self.hot("surface", "profile.scalar", fn)
        array = self.hot("surface", "profile.array", fn, count_points=True)

        @functools.wraps(fn)
        def wrapper(r):
            return scalar(r) if np.ndim(r) == 0 else array(r)
        return wrapper

    def _charge(self, open_spans, key, points, total, own, leaf):
        if open_spans:
            owner, cross = open_spans[-1], False
        elif self._fan_out:
            owner, cross = self._fan_out[-1], True
        else:
            return
        if cross:
            with self._lock:
                _add(owner.hot, (key[0], key[1], True), points, total, own, leaf)
        else:
            _add(owner.hot, (key[0], key[1], False), points, total, own, leaf)

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": [s.as_dict() for s in self.spans]}, fh)


def _add(hot: dict, key, points, total, own, leaf):
    agg = hot.get(key)
    if agg is None:
        agg = hot[key] = [0, 0, 0.0, 0.0, 0, 0.0]
    agg[0] += 1
    agg[1] += points
    agg[2] += total
    agg[3] += own
    if leaf:
        agg[4] += 1
        agg[5] += total


# ---------------------------------------------------------------------------
# installing the wrappers

def install(tracer: Tracer):
    """Wrap revtone's layer boundaries in place; returns the wrapped names."""
    wrapped = []

    def patch(module, attr, wrapper_factory):
        if hasattr(module, attr):
            setattr(module, attr, wrapper_factory(getattr(module, attr)))
            wrapped.append(f"{module.__name__}.{attr}")

    cli = importlib.import_module("revtone.cli")
    config = importlib.import_module("revtone.config")
    actions = importlib.import_module("revtone.actions")
    spectral = importlib.import_module("revtone.spectral")
    measures = importlib.import_module("revtone.measures")

    def traced_profile(s, profile):
        return dataclasses.replace(profile, a=tracer.profile_eval(profile.a),
                                   a1=tracer.profile_eval(profile.a1),
                                   a2=tracer.profile_eval(profile.a2))

    def traced_limit(s, lim):
        return dataclasses.replace(lim, cdf=tracer.hot("measures", "cdf", lim.cdf,
                                                       count_points=True))

    def count_modes(s, slice_):
        s.extra["modes"] = len(slice_.modes)
        return slice_

    on_result = {"limit_measure_mu": traced_limit, "limit_measure_nu": traced_limit,
                 "joint_slice": count_modes}

    patch(cli, "main", lambda f: tracer.span("cli", "main", f))
    patch(cli, "_atomic_write", lambda f: tracer.span("cli", "write", f))
    patch(config, "build_profile", lambda f: tracer.span("surface", "build", f, traced_profile))
    patch(config, "build_evaluator", lambda f: tracer.span("actions", "build_evaluator", f))
    patch(actions, "map_to_interval", lambda f: tracer.hot("quadrature", "map_to_interval", f))
    patch(spectral, "eigh_tridiagonal", lambda f: tracer.hot("spectral", "eigensolve", f))
    # per-ell rows of the sweep: the unit of work its pool threads run
    patch(measures, "_sweep_row", lambda f: tracer.span("measures", "sweep_row", f))

    for modname, layer in TRACED_MODULES.items():
        module = importlib.import_module(modname)
        for name, fn in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != modname):
                continue
            if name in SPAN_NAMES:
                patch(module, name, lambda f, n=name: tracer.span(
                    layer, n, f, on_result.get(n), fan_out=n in FAN_OUT))
            else:
                patch(module, name, lambda f, n=name: tracer.hot(layer, n, f))
    return wrapped


# ---------------------------------------------------------------------------
# analysis

def load(path: str) -> tuple[dict, list[Span]]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["meta"], [Span.from_dict(d) for d in data["spans"]]


def attribute(spans: list[Span]) -> dict:
    """Self time per layer, as shares of the root spans' wall time.

    A span's own time is its duration minus its same-thread callees.
    Children that ran on other threads (pool work under a fan-out span)
    overlap the parent's own time; when their total D exceeds the own
    time W the whole subtree under them is scaled by W/D, so the layer
    self times always sum to the roots' durations.
    """
    by_id = {s.id: s for s in spans}
    kids: dict = {}
    roots = []
    for s in spans:
        if s.parent in by_id:
            kids.setdefault(s.parent, []).append(s)
        else:
            roots.append(s)
    out: dict = {}

    def add(layer, value):
        out[layer] = out.get(layer, 0.0) + value

    def visit(s: Span, scale: float):
        own = s.dur - s.child
        cross_kids = [k for k in kids.get(s.id, ()) if k.thread != s.thread]
        cross = sum(k.dur for k in cross_kids)
        cross += sum(v[3] for key, v in s.hot.items() if key[2])
        f = min(1.0, own / cross) if cross > 0.0 else 1.0
        add(s.layer, scale * (own - f * cross))
        for (layer, _name, is_cross), v in s.hot.items():
            add(layer, scale * v[3] * (f if is_cross else 1.0))
        for k in kids.get(s.id, ()):
            visit(k, scale * (f if k.thread != s.thread else 1.0))

    for r in roots:
        visit(r, 1.0)
    return out


def hot_totals(spans: list[Span], under: set | None = None) -> dict:
    """(layer, name) -> [calls, points, total_s, self_s, leaf_calls, leaf_s],
    summed over all spans or over spans whose name is in `under`."""
    out: dict = {}
    for s in spans:
        if under is not None and s.name not in under:
            continue
        for (layer, name, _cross), v in s.hot.items():
            acc = out.setdefault((layer, name), [0, 0, 0.0, 0.0, 0, 0.0])
            for i, x in enumerate(v):
                acc[i] += x
    return out
