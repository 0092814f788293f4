"""Span tracing of `ucal` layers, done from outside by wrapping public functions.

``Tracer.install`` replaces the public functions and methods of the package
modules with span recorders and ``uninstall`` puts the originals back.  A
span records its name, start, end, parent span, a trace id and a unit count
(rounds, cells, rows, states or steps, depending on the layer).  The trace
id is the trial whose RNG stream was opened last: -1 before the first trial
of a command and again from its CSV write on.  Spans live in
compact arrays in memory; ``fold`` turns them into per-name totals, with
self time = duration minus the durations of direct children.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np


def _size(x):
    return int(np.size(x))


def _rounds(forecaster, adversary, horizon, *_, **__):
    return int(horizon)


def _cells(transcript, *_, **__):
    return _size(transcript.forecasts)


def _dp_states(horizon, *_, **__):
    return (horizon + 1) * (horizon + 2) // 2


# (module, function or method name, span name, units(*args) or None)
FUNCTIONS = [
    ("ucal.cli", "main", "cli.main", None),
    ("ucal.engine", "run_game", "engine.run_game", _rounds),
    ("ucal.engine", "regret", "engine.regret", _cells),
    ("ucal.engine", "write_csv", "engine.write_csv", lambda rows, *_, **__: len(rows)),
    ("ucal.minimax", "dp_value", "minimax.dp_value", _dp_states),
    ("ucal.minimax", "closed_form", "minimax.closed_form", lambda horizon, *_, **__: int(horizon)),
    ("ucal.minimax", "check_a_bounds", "minimax.check_a_bounds", None),
]
# methods wrapped on every class of the module that defines them
METHODS = [
    ("ucal.forecasters", "predict", "forecasters.predict", None),
    ("ucal.forecasters", "observe", "forecasters.observe", None),
    ("ucal.adversaries", "next_outcome", "adversaries.next_outcome", None),
    ("ucal.losses", "bivariate", "losses.bivariate", lambda self, p, *_, **__: _size(p)),
    ("ucal.core", "generator", "core.RngStream.generator", None),
]
TRIAL_STREAM = "core.RngStream.generator"  # its stream id is the trial, used as trace id
OUTSIDE_TRIALS = {"cli.main", "engine.write_csv"}  # these start before or after all trials


class Tracer:
    """Span recorder that wraps the package's layers between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names = []
        self._patched = []
        self.clear()

    def clear(self):
        self.name_id, self.parent, self.trace = array("i"), array("i"), array("i")
        self.start, self.end, self.units = array("q"), array("q"), array("q")
        self._stack = [-1]
        self._trace_id = -1

    def _intern(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name, units):
        nid = self._intern(name)
        trial_stream = name == TRIAL_STREAM
        outside = name in OUTSIDE_TRIALS

        def traced(*args, **kwargs):
            if trial_stream:
                self._trace_id = args[0].stream_id
            elif outside:
                self._trace_id = -1
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.trace.append(self._trace_id)
            self.units.append(units(*args, **kwargs) if units else 1)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(i)
            self.start[i] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, units):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, units))

    def install(self):
        """Wrap every target that exists; a target a later version drops is skipped."""
        for module, attr, name, units in FUNCTIONS:
            mod = importlib.import_module(module)
            if attr in vars(mod):
                self._patch(mod, attr, name, units)
        for module, attr, name, units in METHODS:
            mod = importlib.import_module(module)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == module and attr in cls.__dict__:
                    self._patch(cls, attr, name, units)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self):
        """The recorded spans as numpy columns (name, parent, trace, start, end, units)."""
        cols = (self.name_id, self.parent, self.trace, self.start, self.end, self.units)
        return [np.frombuffer(c, dtype=np.int32 if c.typecode == "i" else np.int64).copy()
                for c in cols]

    def fold(self, totals):
        """Add this batch of spans to ``totals`` (name -> [calls, ns, self_ns, units]) and clear."""
        name, parent, _, start, end, units = self.arrays()
        dur = end - start
        children = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_ns = dur - children
        # a span nested in a span of the same name (e.g. a method calling its
        # base implementation) is already inside its parent's count and time
        outer = ~has_parent | (name[np.where(has_parent, parent, 0)] != name)
        for nid, label in enumerate(self.names):
            sel = name == nid
            acc = totals.setdefault(label, [0, 0, 0, 0])
            acc[2] += int(self_ns[sel].sum())
            sel &= outer
            acc[0] += int(sel.sum())
            acc[1] += int(dur[sel].sum())
            acc[3] += int(units[sel].sum())
        self.clear()


def write_spans(path, names, columns, max_trial=1):
    """Write spans (as from ``Tracer.arrays``) of trials <= ``max_trial`` and outside trials as TSV."""
    name, parent, trace, start, end, units = columns
    with open(path, "w") as fh:
        fh.write("span\tname\tparent\ttrace\tstart_ns\tend_ns\tunits\n")
        for i in np.flatnonzero(trace <= max_trial):
            fh.write(f"{i}\t{names[name[i]]}\t{parent[i]}\t{trace[i]}\t"
                     f"{start[i]}\t{end[i]}\t{units[i]}\n")


def layer_metrics(totals, iterations):
    """Per-layer metrics from folded span totals over ``iterations`` workload iterations.

    Counts are per iteration; per-call and per-unit times are inclusive
    unless the name says ``self``.  A layer the workload never calls reads 0.
    """

    def get(name):
        return totals.get(name, [0, 0, 0, 0])

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}
    calls, ns, self_ns, units = get("cli.main")
    out["cli.main.self_s"] = per(self_ns, iterations, 1e-9)
    for name in ("forecasters.predict", "adversaries.next_outcome"):
        calls, ns, _, _ = get(name)
        out[f"{name}.calls"] = per(calls, iterations)
        out[f"{name}.ns_per_call"] = per(ns, calls)
    calls, ns, _, _ = get("forecasters.observe")
    out["forecasters.observe.ns_per_call"] = per(ns, calls)
    calls, ns, self_ns, units = get("engine.run_game")
    out["engine.run_game.calls"] = per(calls, iterations)
    out["engine.run_game.self_ns_per_round"] = per(self_ns, units)
    calls, ns, _, units = get("losses.bivariate")
    out["losses.bivariate.calls"] = per(calls, iterations)
    out["losses.bivariate.cells"] = per(units, iterations)
    out["losses.bivariate.ns_per_cell"] = per(ns, units)
    out["losses.bivariate.cells_per_call"] = per(units, calls)
    calls, ns, _, units = get("engine.regret")
    out["engine.regret.calls"] = per(calls, iterations)
    out["engine.regret.ns_per_cell"] = per(ns, units)
    calls, ns, _, units = get("engine.write_csv")
    out["engine.write_csv.rows"] = per(units, iterations)
    out["engine.write_csv.rows_per_s"] = per(units, ns, 1e9)
    calls, ns, _, _ = get("core.RngStream.generator")
    out["core.RngStream.generator.calls"] = per(calls, iterations)
    out["core.RngStream.generator.us_per_call"] = per(ns, calls, 1e-3)
    calls, ns, _, units = get("minimax.dp_value")
    out["minimax.dp_value.states"] = per(units, iterations)
    out["minimax.dp_value.states_per_s"] = per(units, ns, 1e9)
    calls, ns, _, units = get("minimax.closed_form")
    out["minimax.closed_form.calls"] = per(calls, iterations)
    out["minimax.closed_form.steps_per_s"] = per(units, ns, 1e9)
    calls, ns, _, _ = get("minimax.check_a_bounds")
    out["minimax.check_a_bounds.s"] = per(ns, iterations, 1e-9)
    return out
