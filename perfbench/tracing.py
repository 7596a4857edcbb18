"""Spans around calls into kirchheat's public functions, recorded from outside.

`runner`, `timeloop`, `diagnostics` and `cli` bind the functions they use
with `from .x import y`, so a function is wrapped at every module that
holds a binding to it, not only where it is defined. A span's parent is
the innermost open span of the same thread, or, for a thread with no open span (a sweep pool worker),
the innermost open span of the main thread, which is waiting on it. Model
helpers take well under a microsecond, so they are counted, not timed.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name): every binding the program calls through
SPANS = [
    ("spectrum", "build_basis", "spectrum.build_basis"),
    ("runner", "build_basis", "spectrum.build_basis"),
    ("runner", "project_initial_data", "spectrum.project"),
    ("spectrum", "gram_matrix", "spectrum.gram"),
    ("spectrum", "eigenfunction_values", "spectrum.eigenfunction_values"),
    ("timeloop", "step", "timeloop.step"),
    ("timeloop", "simulate", "timeloop.simulate"),
    ("runner", "simulate", "timeloop.simulate"),
    ("timeloop", "energy", "diagnostics.energy"),
    ("runner", "energy_balance_residual", "diagnostics.post"),
    ("runner", "first_apriori_check", "diagnostics.post"),
    ("runner", "fit_exponential_decay", "diagnostics.post"),
    ("runner", "higher_energy_bound_horizon", "diagnostics.post"),
    ("runner", "build_scenario", "runner.build_scenario"),
    ("runner", "run_scenario", "runner.run_scenario"),
    ("cli", "run_scenario", "runner.run_scenario"),
    ("cli", "sweep", "runner.sweep"),
    ("cli", "verify_suite", "runner.verify_suite"),
    ("runner", "write_trajectory_csv", "runner.export"),
    ("cli", "write_sweep_csv", "runner.export"),
    ("cli", "load_config", "runner.load_config"),
]

# (module, attribute): calls into model from other modules
MODEL_CALLS = [
    ("timeloop", "grad_norm_sq"),
    ("timeloop", "kirchhoff_coefficient"),
    ("timeloop", "rhs"),
    ("diagnostics", "grad_norm_sq"),
    ("diagnostics", "kirchhoff_coefficient"),
    ("diagnostics", "validate_state"),
]

PER_LAYER = [
    ("spectrum.build_basis_s", "s"),
    ("spectrum.project_s", "s"),
    ("spectrum.gram_s", "s"),
    ("spectrum.quad_nodes", "count"),
    ("spectrum.eigfun_bytes", "bytes"),
    ("timeloop.step_us", "us"),
    ("timeloop.steps", "count"),
    ("timeloop.mode_steps", "count"),
    ("timeloop.simulate_self_s", "s"),
    ("timeloop.simulate_calls", "count"),
    ("runner.self_s", "s"),
    ("model.calls", "count"),
    ("diagnostics.energy_calls", "count"),
    ("diagnostics.energy_us", "us"),
    ("diagnostics.post_s", "s"),
    ("runner.export_s", "s"),
    ("runner.export_bytes", "bytes"),
    ("runner.load_config_s", "s"),
    ("runner.build_scenario_self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.op_s", "s"),
]


def _extra(name, args, kwargs, result):
    """The count a span carries, taken from the call's arguments and result."""
    if name == "spectrum.build_basis":
        return len(result.quad_weights)
    if name == "spectrum.eigenfunction_values":
        return 8 * result.size
    if name == "timeloop.simulate":
        return (result.n_steps, result.n_steps * result.basis.n_modes)
    if name == "runner.export":
        return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    return None


class Tracer:
    """Wraps kirchheat's bindings and records spans and counts per thread.

    A span is the tuple (id, name, start, end, parent id, extra). Tuples of
    plain values are not tracked by the garbage collector, so a run with
    many thousands of spans does not slow the collections inside the
    operations it times."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self._lists = []          # one span list per thread that ever recorded
        self._counts = []         # one Counter per thread
        self._main_stack = None
        self._undo = []

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.spans, loc.counts = [], [], Counter()
            self._lists.append(loc.spans)
            self._counts.append(loc.counts)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = loc.stack
        return loc

    def span(self, fn, name):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            loc = tracer._thread()
            stack = loc.stack
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                loc.spans.append((sid, name, start, clock(), parent, None))
                raise
            end = clock()
            stack.pop()
            loc.spans.append((sid, name, start, end, parent, _extra(name, args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._thread().counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap every binding in SPANS and MODEL_CALLS inside `package`."""
        for mod, attr, name in SPANS:
            self._patch(getattr(package, mod), attr, self.span, name)
        for mod, attr in MODEL_CALLS:
            self._patch(getattr(package, mod), attr, self.counter, "model.calls")

    def _patch(self, module, attr, make, name):
        original = getattr(module, attr)
        setattr(module, attr, make(original, name))
        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def take(self):
        """Every span and count recorded since the last take, then forget them."""
        spans = [rec for lst in self._lists for rec in lst]
        counts = Counter()
        for c in self._counts:
            counts.update(c)
        for lst in self._lists:
            lst.clear()
        for c in self._counts:
            c.clear()
        return spans, counts


def _self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def op_metrics(spans, counts, op_s):
    """Per-layer metrics of one operation, from its spans and counts."""
    selfs = _self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = Counter()
    extra = Counter()
    for sid, name, start, end, _, more in spans:
        total[name] += end - start
        self_total[name] += selfs[sid]
        calls[name] += 1
        if more is None:
            continue
        if name == "timeloop.simulate":
            extra["steps"] += more[0]
            extra["mode_steps"] += more[1]
        else:
            extra[name] += more

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    return {
        "spectrum.build_basis_s": total["spectrum.build_basis"],
        "spectrum.project_s": total["spectrum.project"],
        "spectrum.gram_s": total["spectrum.gram"],
        "spectrum.quad_nodes": extra["spectrum.build_basis"],
        "spectrum.eigfun_bytes": extra["spectrum.eigenfunction_values"],
        "timeloop.step_us": per_call_us("timeloop.step"),
        "timeloop.steps": extra["steps"],
        "timeloop.mode_steps": extra["mode_steps"],
        "timeloop.simulate_self_s": self_total["timeloop.simulate"],
        "timeloop.simulate_calls": calls["timeloop.simulate"],
        "runner.self_s": (self_total["runner.run_scenario"] + self_total["runner.sweep"]
                          + self_total["runner.verify_suite"]),
        "model.calls": counts["model.calls"],
        "diagnostics.energy_calls": calls["diagnostics.energy"],
        "diagnostics.energy_us": per_call_us("diagnostics.energy"),
        "diagnostics.post_s": total["diagnostics.post"],
        "runner.export_s": total["runner.export"],
        "runner.export_bytes": extra["runner.export"],
        "runner.load_config_s": total["runner.load_config"],
        "runner.build_scenario_self_s": self_total["runner.build_scenario"],
        "cli.self_s": self_total["cli.main"],
        "trace.op_s": op_s,
    }


def dump_spans(path: Path, ops):
    """Write the spans of every traced operation, one JSON line per operation:
    [id, name, start, end, parent id, extra] each."""
    with open(path, "w") as fh:
        for i, spans in enumerate(ops):
            fh.write(json.dumps({"op": i, "spans": spans}) + "\n")
