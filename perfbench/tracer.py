"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces the public functions and methods of each machyper
module (and the private ones another module imports) with timing wrappers,
in every machyper namespace that holds them, and restores the originals on
uninstall.  The program itself is not edited.

A span is opened whenever a call crosses from one layer into another;
calls that stay inside the layer that is already running are only counted.
Spans live in flat in-memory arrays (name, start, end, parent, operation)
and are written out once, at the end of the traced run.  Times are read on the
thread's CPU clock.  A layer's busy time is the time inside its outermost
spans; its self time is its span time minus the time of the spans it
opened into other layers.
"""

from __future__ import annotations

import importlib
import os
import struct
from array import array
from collections import defaultdict
from time import thread_time

LAYERS = ("ratfunc", "partitions", "sympoly", "macdonald", "qops", "series",
          "verify", "cli")

# Arithmetic dunders count as public entry points of a value type.
_DUNDERS = frozenset(("__add__", "__sub__", "__neg__", "__mul__",
                      "__truediv__", "__pow__"))


class Tracer:
    """Span store plus per-layer counters; one instance per traced run."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        # open-span stack: layer, span id, time spent in child spans
        self._layers = ["bench"]
        self._spans = [-1]
        self._child = [0.0]
        self._depth = defaultdict(int)
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _wrap(self, fn, layer: str, label: str, count=None, timer=None, post=None):
        """Timing wrapper around fn.

        count: counter bumped on every call; timer: counter (or function of
        the result giving one) that accumulates the call's duration, nested
        calls included; post(tracer, args, result) runs after a call that
        returned.
        """
        nid = self._name_id(label)
        counts = self.counts
        layers = self._layers
        spans = self._spans
        child = self._child
        depth = self._depth
        sname, sparent, sop = self.span_name, self.span_parent, self.span_op
        sstart, send = self.span_start, self.span_end
        busy, self_time = self.busy, self.self_time
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            crossing = layers[-1] != layer
            if not crossing and timer is None and post is None:
                return fn(*args, **kwargs)
            if crossing:
                sid = len(sname)
                sname.append(nid)
                sparent.append(spans[-1])
                sop.append(tracer.op)
                sstart.append(0.0)
                send.append(0.0)
                layers.append(layer)
                spans.append(sid)
                child.append(0.0)
                depth[layer] += 1
            t0 = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                if crossing:
                    d = t1 - t0
                    sstart[sid] = t0
                    send[sid] = t1
                    layers.pop()
                    spans.pop()
                    self_time[layer] += d - child.pop()
                    child[-1] += d
                    depth[layer] -= 1
                    if not depth[layer]:
                        busy[layer] += d
            if timer is not None:
                key = timer(out) if callable(timer) else timer
                counts[key] += t1 - t0
            if post is not None:
                post(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, specs: dict[str, dict] | None = None) -> list[str]:
        """Wrap every layer entry point; specs maps "layer.qualname" to
        extra wrapper arguments (count, timer, post) for that entry point.
        Returns the spec labels that matched nothing, so that a renamed
        entry point leaves its counters at zero instead of failing the run."""
        specs = specs or {}
        pkg = importlib.import_module("machyper")
        mods = {layer: importlib.import_module(f"machyper.{layer}") for layer in LAYERS}
        namespaces = [pkg] + list(mods.values())
        wanted = set(specs)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj, specs, wanted)
                    continue
                if not callable(obj):
                    continue
                label = f"{layer}.{name}"
                shared = any(vars(ns).get(name) is obj for ns in namespaces if ns is not mod)
                if name.startswith("_") and not shared and label not in specs:
                    continue
                wrapped = self._wrap(obj, layer, label, **specs.get(label, {}))
                wanted.discard(label)
                for ns in namespaces:
                    if vars(ns).get(name) is obj:
                        setattr(ns, name, wrapped)
                        self._undo.append((ns, name, obj))
        return sorted(wanted)

    def _install_class(self, layer: str, cls: type, specs: dict, wanted: set) -> None:
        if cls.__name__.startswith("_") or issubclass(cls, BaseException):
            return
        for name, raw in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") and name not in _DUNDERS and label not in specs:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                kind, fn = type(raw), raw.__func__
            elif callable(raw) and not isinstance(raw, type):
                kind, fn = None, raw
            else:
                continue
            wrapped = self._wrap(fn, layer, label, **specs.get(label, {}))
            wanted.discard(label)
            setattr(cls, name, kind(wrapped) if kind else wrapped)
            self._undo.append((cls, name, raw))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        """Binary span dump: a header line with the name table, then one
        record (name, parent, op, start, end) per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rec = struct.Struct("<iiidd")
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            buf = bytearray()
            for i in range(len(self.span_name)):
                buf += rec.pack(self.span_name[i], self.span_parent[i], self.span_op[i],
                                self.span_start[i], self.span_end[i])
                if len(buf) > 1 << 20:
                    fh.write(buf)
                    buf.clear()
            fh.write(buf)
