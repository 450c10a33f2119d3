"""Spans around the calls that cross ``teamsolve``'s module boundaries.

Tracing is installed from outside the package: every function that one
module of ``teamsolve`` imports from another is replaced, in the importing
module's namespace, by a wrapper that records a span.  The same happens
in the package namespace, where the benchmark looks its entry points up,
and at a few named sites inside a module: the three phases of ``gd_mm``,
``MixedProfile.validate`` and the ``TeamGame`` constructors.  A span has
a label ``layer.function``, a start, an end and a parent; its self time
is its duration minus the durations of its direct children.  Spans live
in flat arrays, kept in memory, until :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

# Module name -> layer name used in metric names.
LAYERS = {
    "games": "games",
    "_simplex": "simplex",
    "linprog": "linprog",
    "extension": "extension",
    "moreau": "moreau",
    "dynamics": "dynamics",
    "two_team": "two_team",
    "generators": "generators",
}

# Calls inside one module that get their own span: gd_mm's phases.
INTRA_MODULE = {"two_team": ("minmax_oracle", "extend_ne_multi",
                             "ne_gap_two_team")}

ROOT_LABEL = "bench.pass"


def _count_pivots(tracer, solution):
    tracer.counts["linprog.pivots"] += len(solution.pivots)


def _count_prox(tracer, result):
    tracer.counts["moreau.inner_iters"] += result.iterations
    tracer.counts["moreau.reached"] += int(result.reached)


def _count_gd(tracer, out):
    trace = out[2]
    tracer.counts["dynamics.iterations"] += len(trace.iterations)
    tracer.counts["dynamics.backoffs"] += trace.eta_backoffs


def _count_gdmm(tracer, out):
    tracer.counts["two_team.iterations"] += len(out[2].iterations)


# Work counters read off the values the product returns.
RESULT_COUNTERS = {
    "linprog.solve_lp": _count_pivots,
    "moreau.proximal_point": _count_prox,
    "dynamics.gradient_descent_max": _count_gd,
    "two_team.gd_mm": _count_gdmm,
}


class Tracer:
    """Span store plus exact work counters for one traced pass."""

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.label_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self._open = []
        self.counts = Counter()

    def label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def open(self, label_id):
        idx = len(self.label_of)
        self.label_of.append(label_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.child_time.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        t = perf_counter()
        self.end[idx] = t
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        if self._open:
            self.child_time[self._open[-1]] += t - self.start[idx]

    @contextlib.contextmanager
    def span(self, label):
        idx = self.open(self.label_id(label))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, label, fn):
        lid = self.label_id(label)
        on_result = RESULT_COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def by_label(self):
        """``label -> (calls, self seconds)`` over all recorded spans."""
        calls = Counter()
        self_s = Counter()
        for i, lid in enumerate(self.label_of):
            label = self.labels[lid]
            calls[label] += 1
            self_s[label] += (self.end[i] - self.start[i]) - self.child_time[i]
        return calls, self_s

    def save(self, path):
        """Write labels and span arrays as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"labels": self.labels,
                       "label": list(self.label_of),
                       "parent": list(self.parent),
                       "start": list(self.start),
                       "end": list(self.end)}, fh)


def _layer_functions(pkg):
    """``id(function) -> (module, label)`` for every layer's own functions."""
    found = {}
    for mod_name, layer in LAYERS.items():
        mod = importlib.import_module(f"{pkg.__name__}.{mod_name}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = (mod_name, f"{layer}.{name}")
    return found


def _patch_sites(pkg):
    """Yield ``(owner, attribute, label, original)`` for every traced site."""
    owned = _layer_functions(pkg)
    namespaces = {"": pkg}
    for mod_name in LAYERS:
        namespaces[mod_name] = importlib.import_module(
            f"{pkg.__name__}.{mod_name}")
    for where, ns in namespaces.items():
        for name, obj in list(vars(ns).items()):
            hit = owned.get(id(obj)) if inspect.isfunction(obj) else None
            if hit is None:
                continue
            home, label = hit
            if home != where or name in INTRA_MODULE.get(home, ()):
                yield ns, name, label, obj
    games = namespaces["games"]
    yield (games.MixedProfile, "validate", "games.MixedProfile.validate",
           games.MixedProfile.validate)
    for ctor in ("dense", "polytensor"):
        yield (games.TeamGame, ctor, f"games.TeamGame.{ctor}",
               vars(games.TeamGame)[ctor])


@contextlib.contextmanager
def installed(tracer, pkg):
    """Route every traced call site through ``tracer`` while active."""
    saved = []
    try:
        for owner, attr, label, original in _patch_sites(pkg):
            if isinstance(original, classmethod):
                replacement = classmethod(
                    tracer.wrap(label, original.__func__))
            else:
                replacement = tracer.wrap(label, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
