"""Spans around the calls into each pocause module, recorded from outside.

The tracer wraps every public function of the package's modules and a few
public methods, and rebinds each wrapper at every place the package holds a
reference to the original (modules import each other's functions by name,
so patching only the defining module would miss most calls). Methods are
patched on their class. Spans are kept in memory as flat arrays (name,
start, end, parent, thread) and summarised once the run ends.

A span opened in a worker thread with nothing open in that thread takes the
enclosing bootstrap.bootstrap span as its parent. A span's self time is its
duration minus the part of it covered by its children's spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("dataset", "ordering", "cdf", "estimands", "bootstrap", "scm", "student", "cli")

# Public methods patched on their class, by module.
METHODS = {
    "dataset": {"DataTable": ("take",)},
    "cdf": {"EmpiricalCdf": ("__init__", "rho_pair"), "LogisticCdf": ("rho_pair",)},
}


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.digest()


class Tracer:
    def __init__(self, package: str = "pocause"):
        self.package = package
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._n_threads = 0
        self._pool_parent: list[int] = []
        self._start = array("d")
        self._end = array("d")
        self._name = array("q")
        self._parent = array("q")
        self._thread = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._originals: set[int] = set()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def note_input(self, name: str, key: bytes) -> None:
        with self._lock:
            self._distinct.setdefault(name, set()).add(key)

    def open(self, name_id: int) -> int:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            with self._lock:
                local.slot = self._n_threads
                self._n_threads += 1
        if stack:
            parent = stack[-1]
        elif self._pool_parent:
            parent = self._pool_parent[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self._start)
            self._start.append(time.perf_counter())
            self._end.append(0.0)
            self._name.append(name_id)
            self._parent.append(parent)
            self._thread.append(local.slot)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._local.stack.pop()
        if self._pool_parent and self._pool_parent[-1] == idx:
            self._pool_parent.pop()

    def seconds(self, idx: int) -> float:
        return self._end[idx] - self._start[idx]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, label=None, before=None, adapt=None, after=None):
        """Span around fn.

        label(args) names the span per call; before(args, kwargs) runs
        outside the span; adapt(span, args, kwargs) may replace the
        positional arguments inside it; after(span, args, kwargs, result)
        reads what the call returned.
        """
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(nid if label is None else tracer.name_id(label(args)))
            try:
                if adapt is not None:
                    args = adapt(idx, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".failed")
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        traced.bench_traced = True
        return traced

    def _hooks(self, name: str) -> dict:
        """Extra counters for the calls whose work a count and a time do
        not describe."""
        if name == "bootstrap.bootstrap":
            point_id = self.name_id("bootstrap.point")
            replicate_id = self.name_id("bootstrap.replicate")

            def adapt(idx, args, kwargs):
                table, pipeline = args[0], args[1]

                def timed_pipeline(t):
                    span = self.open(point_id if t is table else replicate_id)
                    try:
                        return pipeline(t)
                    finally:
                        self.close(span)

                self._pool_parent.append(idx)
                return (table, timed_pipeline) + tuple(args[2:])

            def after(idx, args, kwargs, result):
                threads = int(kwargs.get("threads", 1))
                self.count("bootstrap.bootstrap.thread_s", threads * self.seconds(idx))
                self.count("bootstrap.replicate.failed", result.n_failures)

            return {"adapt": adapt, "after": after}
        if name == "cdf.fit_logistic":
            def before(args, kwargs):
                features = kwargs.get("features", args[0] if args else None)
                labels = kwargs.get("labels", args[1] if len(args) > 1 else None)
                self.note_input(name, _digest(np.asarray(features, float), np.asarray(labels, float)))

            def after(idx, args, kwargs, model):
                self.count(name + ".iters", model.n_iter)
                self.count(name + ".nonconverged", 0 if model.converged else 1)

            return {"before": before, "after": after}
        if name == "cdf.EmpiricalCdf.init":
            def before(args, kwargs):
                table = kwargs.get("table", args[1] if len(args) > 1 else None)
                self.note_input(name, _digest(*(table.columns[k] for k in sorted(table.columns))))

            return {"before": before}
        if name == "dataset.DataTable.take":
            def after(idx, args, kwargs, table):
                self.count("dataset.DataTable.take.bytes", table.n_rows * len(table.columns) * 8)

            return {"after": after}
        if name == "cli.main":
            def label(args):
                return f"cli.main.{args[0][0]}" if args and args[0] else "cli.main"

            return {"label": label}
        return {}

    def _loaded_modules(self) -> list:
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(prefix)]

    def install(self) -> None:
        """Wrap every public function and listed method; rebind everywhere."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self._wrap(name, obj, **self._hooks(name))
                self._originals.add(id(obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{'init' if meth == '__init__' else meth}"
                    self._patched.append((cls, meth, fn))
                    self._originals.add(id(fn))
                    setattr(cls, meth, self._wrap(name, fn, **self._hooks(name)))
        for mod in self._loaded_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self.active = True

    def unpatched(self) -> list[str]:
        """Module attributes and methods that still hold an original."""
        left = []
        owners = self._loaded_modules()
        for layer, classes in METHODS.items():
            mod = importlib.import_module(f"{self.package}.{layer}")
            owners += [getattr(mod, c) for c in classes]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if id(obj) in self._originals and not getattr(obj, "bench_traced", False):
                    left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "name": np.frombuffer(self._name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self._thread, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, busy_s (inclusive) and self_s; plus the
        counters, distinct-input counts and replicate durations."""
        s = self.spans()
        n = s["start"].size
        dur = s["end"] - s["start"]
        parent = s["parent"]
        child = np.flatnonzero(parent >= 0)
        cover = np.bincount(parent[child], weights=dur[child], minlength=n)
        # Children in another thread may overlap each other: use their union.
        cross = child[s["thread"][child] != s["thread"][parent[child]]]
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            lo = np.maximum(s["start"][kids], s["start"][p])
            hi = np.minimum(s["end"][kids], s["end"][p])
            covered, reach = 0.0, s["start"][p]
            for a, b in sorted(zip(lo.tolist(), hi.tolist())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            cover[p] = covered
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        busy = np.bincount(s["name"], weights=dur, minlength=k)
        own = np.bincount(s["name"], weights=dur - cover, minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        rep = self._name_ids["bootstrap.replicate"]
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "distinct": {name: len(keys) for name, keys in self._distinct.items()},
            "replicate_s": dur[s["name"] == rep].tolist(),
            "n_spans": int(n),
        }
