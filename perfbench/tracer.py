"""Span tracer that wraps the public functions of qelmkit modules from outside.

Installing the tracer replaces each public function defined in a traced
module (and each public method of the traced classes) by a wrapper that
records a span: name, start, end, parent span and request id. Spans live in
compact in-memory arrays and are written out once, at the end of a run.
Per-name call counts, total time and self time (duration minus the time
covered by child spans) are accumulated as spans close.

Only attributes that exist are wrapped, so a function that a later change
removes or renames simply reads as zero calls. `uninstall` puts every
original object back. Aliases made with `from module import name` in other
modules are not patched; qelmkit calls across modules through the module
attribute, which is.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Functions whose span name gets a `.KIND` suffix, and how to read the kind.
def _reservoir_kind(args, kwargs):
    return (args[0] if args else kwargs["spec"]).kind


def _circuit_kind(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["reservoir"]).kind


KINDS = {
    "qelm.build_reservoir": _reservoir_kind,
    "qelm.run_circuit_batch": _circuit_kind,
}


def _circuit_counts(label, args, kwargs, result):
    angles = args[2] if len(args) > 2 else kwargs["angles"]
    rows = int(np.shape(np.atleast_2d(angles))[0])
    width = (args[0] if args else kwargs["encoder"]).num_features
    return {f"{label}.rows": rows, f"{label}.amps": rows << width}


def _passenger_counts(label, args, kwargs, result):
    return {"elevator.passengers": len(result)}


# Work counts recorded when a span closes, keyed by the unsuffixed name.
COUNTS = {
    "qelm.run_circuit_batch": _circuit_counts,
    "elevator.generate_traffic": _passenger_counts,
}

_ARG_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Records spans for calls into the given modules while installed.

    `modules` maps a short layer name (e.g. "qelm") to the module object;
    `classes` maps a dotted class name (e.g. "qelm.Pipeline") to the class
    whose public methods are traced too.
    """

    def __init__(self, modules: dict, classes: dict | None = None):
        self.modules = modules
        self.classes = classes or {}
        self.request = -1          # set by the caller around one request
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._names: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []          # [span index, name, start, child_s]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        # bookkeeping first and the clock last, so the span covers little
        # of the tracer's own work
        index = len(self._start)
        self._name_id.append(self._names.setdefault(name, len(self._names)))
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._request.append(self.request)
        self._end.append(0.0)
        now = time.perf_counter()
        self._start.append(now)
        self._stack.append([index, name, now, 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        index, name, start, child_s = self._stack.pop()
        self._end[index] = now
        duration = now - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own code (e.g. one served request)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @property
    def num_spans(self) -> int:
        return len(self._start)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        kind_of = KINDS.get(name)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if kind_of is not None:
                try:
                    label = f"{name}.{kind_of(args, kwargs)}"
                except _ARG_ERRORS:
                    pass
            self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                try:
                    for key, value in count(label, args, kwargs, result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
                except _ARG_ERRORS:
                    pass
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._patch(module, attr, self._wrap(f"{layer}.{attr}", obj))
        for dotted, cls in self.classes.items():
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{dotted}.{attr}"
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as columns plus the name table (numpy .npz)."""
        names = sorted(self._names, key=self._names.get)
        np.savez(path, names=np.array(names), name_id=np.asarray(self._name_id),
                 parent=np.asarray(self._parent), request=np.asarray(self._request),
                 start=np.asarray(self._start), end=np.asarray(self._end))
