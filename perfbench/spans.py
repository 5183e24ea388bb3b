"""Spans recorded from outside the program, by wrapping its public functions.

A span is one call of a wrapped function: (id, parent id, name, start ns,
end ns, count). ``count`` is an exact work count taken from the call's
arguments or result where one is defined (rows, bytes, graph nodes), else
0. Spans stay in memory and are written once, when the run ends.

Clocks are ``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux and
so shared by a parent and the child processes whose spans it merges.

This module imports only the standard library, so that a child process can
install it before the program's own imports and time those too.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

# The modules whose public functions are wrapped.
MODULES = ("data", "autodiff", "objective", "model", "pipeline", "evt", "cli")


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("features"))
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 1


def _file_bytes(*positions):
    def count(args, kwargs, result):
        return sum(os.path.getsize(args[i]) for i in positions)
    return count


def _length(args, kwargs, result):
    return len(result)


# Exact work counts recorded with the span of these functions.
COUNTERS = {
    "model.forward_features": _rows,
    "autodiff.topo_order": _length,
    "data.load_blobs": _file_bytes(0),
    "data.load_idx": _file_bytes(0, 1),
    "model.load_checkpoint": _file_bytes(0),
}


class Tracer:
    """Collects the spans of the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                n = count(args, kwargs, result) if count and result is not None else 0
                self.spans.append((sid, parent, name, start, end, n))
        return traced

    def span(self, name):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def install(self, package):
        """Replace each public function of the program's modules by a wrapper.

        The modules call each other through module attributes, so patching
        the attribute routes every call, within a module too, through the
        wrapper. The optimizer is an object made by a private factory: its
        ``step`` method is wrapped on each object the factory returns.
        """
        for short in MODULES:
            module = getattr(package, short)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                self._patch(module, attr, self.wrap(name, fn, COUNTERS.get(name)))
        pipeline = package.pipeline
        make = pipeline._make_optimizer

        def make_traced(*args, **kwargs):
            optimizer = make(*args, **kwargs)
            optimizer.step = self.wrap("pipeline.optimizer.step", optimizer.step)
            return optimizer

        self._patch(pipeline, "_make_optimizer", make_traced)

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def merge(self, path):
        """Adopt the spans a traced child process wrote to ``path``.

        Child ids are renumbered past this tracer's ids, and the child's root
        spans are parented to the span that is open here.
        """
        with open(path, "r", encoding="utf-8") as f:
            child = json.load(f)
        offset = self._next_id
        parent = self._stack[-1] if self._stack else 0
        top = 0
        for sid, pid, name, start, end, n in child:
            self.spans.append((sid + offset, pid + offset if pid else parent,
                               name, start, end, n))
            top = max(top, sid)
        self._next_id += top + 1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f, separators=(",", ":"))


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid, self.parent = t._next_id, (t._stack[-1] if t._stack else 0)
        t._next_id += 1
        t._stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.parent, self.name, self.start, end, 0))
        return False
