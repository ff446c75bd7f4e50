"""Outside-in tracer for sisbox.

``Tracer.install`` wraps every public function of the traced modules in
each ``sisbox`` module namespace that bound it (``from .spectral import
shift_square_sum`` makes a separate name in ``sisbox.spaces`` and
``sisbox.membership``), plus the listed ``Signal`` subclass methods, the
report writer and, on request, ``cli.main``.  Each wrapped call records a
span (name, start, end, parent) in memory; ``summary`` folds the spans
into per-name totals.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

TRACED_MODULES = ("spectral", "spaces", "membership", "decomposition", "io")
TIME_VALUE_CLASSES = ("PiecewiseConstantSpectrum", "GridSpectrum", "TimeKernel", "ShiftCombination")
FIBER_FUNCTIONS = ("spectral.grammian", "spectral.integer_samples", "spectral.zak_time_fiber")


def _span_name(short: str, name: str) -> str:
    if short == "io":
        return "io.read" if name.startswith("read") else "io.write"
    return f"{short}.{name}"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, outermost of its name, facts]
        self._stack = []
        self._open = {}          # name -> number of open spans of that name
        self._patches = []       # (owner, attribute, original)
        self._paused = False     # between end_op and the next begin_op
        # fiber reuse: distinct (signal, grid) keys per operation; the refs
        # keep the keyed objects alive so their ids stay unique until end_op
        self.distinct_fibers = 0
        self._op_keys = set()
        self._op_refs = []
        self._sample_owner = {}

    # -------------------------------------------------------------- spans

    def _call(self, name, fn, facts, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, not self._open.get(name), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] = self._open.get(name, 0) + 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        if facts is not None:
            span[5] = facts(args, kwargs, result)
        return result

    def _wrap(self, name, fn, facts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, facts, args, kwargs)
        return wrapper

    def _reset_op(self) -> None:
        self._op_keys.clear()
        self._op_refs.clear()
        self._sample_owner.clear()

    def begin_op(self) -> None:
        self._reset_op()
        self._paused = False

    def end_op(self) -> None:
        """Close the operation; calls until the next begin_op (the
        benchmark's own output checks) record no spans."""
        self.distinct_fibers += len(self._op_keys)
        self._reset_op()
        self._paused = True

    # -------------------------------------------------------------- facts

    def _facts_for(self, span_name, fn):
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            return sig.bind_partial(*args, **kwargs).arguments.get(key)

        if span_name == "spectral.shift_square_sum":
            import numpy as np

            def facts(args, kwargs, result):
                probes = int(np.size(arg(args, kwargs, "x_grid")))
                nodes = probes * arg(args, kwargs, "grid").size if result.route == "parseval" else 0
                return {"probes": probes, "parseval_probe_nodes": nodes, "route": result.route}
            return facts
        if span_name == "spaces.reconstruct":
            return lambda args, kwargs, result: {"route": result.route}
        if span_name in ("spectral.grammian", "spectral.integer_samples"):
            def facts(args, kwargs, result):
                f = arg(args, kwargs, "f")
                self._op_keys.add((id(f), arg(args, kwargs, "grid")))
                self._op_refs += [f, result]
                if span_name == "spectral.integer_samples":
                    self._sample_owner[id(result)] = id(f)
                return None
            return facts
        if span_name == "spectral.zak_time_fiber":
            def facts(args, kwargs, result):
                samples = arg(args, kwargs, "samples")
                owner = self._sample_owner.get(id(samples), ("samples", id(samples)))
                self._op_keys.add((owner, arg(args, kwargs, "grid")))
                self._op_refs.append(samples)
                return None
            return facts
        if span_name.startswith("io."):
            def facts(args, kwargs, result):
                path = arg(args, kwargs, "path")
                return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
            return facts
        return None

    # -------------------------------------------------------------- install

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                              else owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, include_cli: bool = False) -> None:
        import sisbox
        import sisbox.reports
        import sisbox.signals

        traced = {short: importlib.import_module(f"sisbox.{short}") for short in TRACED_MODULES}
        namespaces = [m for n, m in list(sys.modules.items()) if n == "sisbox" or n.startswith("sisbox.")]
        for short, module in traced.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                span_name = _span_name(short, name)
                wrapper = self._wrap(span_name, fn, self._facts_for(span_name, fn))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, attr, wrapper)

        def points(args, kwargs, result):
            return {"points": int(result.size)}

        for cls_name in TIME_VALUE_CLASSES:
            cls = getattr(sisbox.signals, cls_name)
            self._patch(cls, "time_values",
                        self._wrap("signals.time_values", cls.__dict__["time_values"], points))
        kernel = sisbox.signals.TimeKernel
        self._patch(kernel, "grid_values",
                    self._wrap("signals.TimeKernel.grid_values", kernel.__dict__["grid_values"]))
        doc = sisbox.reports.ReportDocument
        self._patch(doc, "save", self._wrap("reports.save", doc.__dict__["save"]))
        if include_cli:
            import sisbox.cli

            self._patch(sisbox.cli, "main", self._wrap("cli.main", sisbox.cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per span name: outermost calls and their busy time, self time
        (duration minus what direct children cover) and summed facts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, outer, facts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent, outer, facts), covered in zip(self.spans, child_time):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["self_s"] += (end - start) - covered
            if not outer:
                continue
            s["calls"] += 1
            s["busy_s"] += end - start
            for key, val in (facts or {}).items():
                if key == "route":
                    s[f"{val}_calls"] = s.get(f"{val}_calls", 0) + 1
                    s[f"{val}_busy_s"] = s.get(f"{val}_busy_s", 0.0) + end - start
                else:
                    s[key] = s.get(key, 0) + val
        fiber_calls = sum(out.get(n, {}).get("calls", 0) for n in FIBER_FUNCTIONS)
        return {"layers": out, "distinct_fibers": self.distinct_fibers, "fiber_calls": fiber_calls}


def merge(total: dict, part: dict) -> dict:
    """Add one summary into a running total (both as returned by summary)."""
    for name, stats in part["layers"].items():
        acc = total.setdefault("layers", {}).setdefault(name, {})
        for key, val in stats.items():
            acc[key] = acc.get(key, 0) + val
    for key in ("distinct_fibers", "fiber_calls"):
        total[key] = total.get(key, 0) + part[key]
    return total
