"""Spans around calls into the program's public functions.

The tracer wraps, from outside, every public function of the layer
modules and rebinds each name wherever the package holds it (including
`from .x import y` copies and the `verify.CHECKS` registry). A span is
(id, parent id, name, start, end) on the CLOCK_MONOTONIC timeline, so
spans from child processes line up with the parent's. Only calls that
enter a layer from outside it get a span, so `calls` counts entries into
the layer. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = {
    "washburn.params": "params",
    "washburn.dynamics": "dynamics",
    "washburn.integrate": "integrate",
    "washburn.volterra": "volterra",
    "washburn.stability": "stability",
    "washburn._format": "format",
    "washburn.cli": "cli",
    "washburn.verify": "verify",
}
HOLDERS = ("washburn",) + tuple(LAYERS)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, time.perf_counter(), None))
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self._stack.pop()
        _, parent, name, start, _ = self.spans[sid]
        self.spans[sid] = (sid, parent, name, start, time.perf_counter())

    def _wrap(self, fn, span_name: str):
        layer = layer_of(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call from inside the same layer stays in its caller's span:
            # busy and self time per layer are unchanged, and per-value
            # helpers such as _format.fmt17 do not flood the trace.
            if self._stack and layer_of(self.spans[self._stack[-1]][2]) == layer:
                return fn(*args, **kwargs)
            sid = self.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def install(self):
        """Rebind every public layer function to a tracing wrapper."""
        modules = [importlib.import_module(name) for name in HOLDERS]
        wrappers = {}

        def wrapped(fn):
            layer = LAYERS.get(getattr(fn, "__module__", None))
            if (layer is None or not isinstance(fn, types.FunctionType)
                    or fn.__name__.startswith("_")):
                return None
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
            return wrappers[fn]

        for module in modules:
            for name, value in list(vars(module).items()):
                new = wrapped(value)
                if new is not None:
                    self._patched.append((vars(module), name, value))
                    setattr(module, name, new)
        checks = importlib.import_module("washburn.verify").CHECKS
        for name, value in list(checks.items()):
            new = wrapped(value)
            if new is not None:
                self._patched.append((checks, name, value))
                checks[name] = new

    def uninstall(self):
        for namespace, name, original in reversed(self._patched):
            namespace[name] = original
        self._patched.clear()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[tuple]) -> dict:
    """Per layer: busy time (spans with no enclosing span of the same
    layer), self time (span time not covered by child spans) and calls."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table = {}
    for sid, parent, name, start, end in spans:
        layer = layer_of(name)
        row = table.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        outer = True
        while parent is not None:
            if layer_of(by_id[parent][2]) == layer:
                outer = False
                break
            parent = by_id[parent][1]
        if outer:
            row["busy_s"] += end - start
    return table
