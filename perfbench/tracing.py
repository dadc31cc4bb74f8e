"""Span tracing around calls into each tflow layer, from outside tflow.

``install()`` replaces every public function of every tflow module, in
every module that binds it, with a wrapper that records a span. A name
imported by another module (``tflow.models`` binds
``propagate_schrodinger``) keeps the layer of the module that defines it.
A function from outside tflow bound in a tflow module (``tflow.models``
binds scipy's ``quad``) is attributed to the binding module's layer. Public
methods of tflow classes are wrapped as well. The tflow sources are not
touched.

Spans are aggregated in memory as they close: a layer's self time is the
time its spans cover minus the time covered by their child spans. A layer
whose module cannot be imported, or that has no public functions left,
reports zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("cli", "kernels", "dynamics", "operators", "models", "tf",
          "protocol", "qsl", "optimize")

# counters kept beside the spans: qualified name -> how the call is counted
STEPPING = {"kernels.schrodinger_steps", "kernels.lindblad_steps"}
PROPAGATORS = {"dynamics.propagate_schrodinger", "dynamics.propagate_lindblad"}


class Tracer:
    """Aggregated spans of one process."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, start, child_time]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.spans = {layer: 0 for layer in LAYERS}
        self.calls: dict[str, int] = {}
        self.counts = {"rk4_steps": 0, "stepping_passes": 0, "propagations": 0,
                       "points_sampled": 0}

    def wrap(self, func, layer: str, qualname: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer._count(qualname, args)
            frame = [layer, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                tracer.spans[layer] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += duration

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _count(self, qualname: str, args) -> None:
        self.calls[qualname] = self.calls.get(qualname, 0) + 1
        if qualname in STEPPING and args:
            # the first argument is the half-step generator table:
            # 2 * n_steps + 1 matrices for n_steps RK4 steps
            self.counts["rk4_steps"] += (len(args[0]) - 1) // 2
            self.counts["stepping_passes"] += 1
        elif qualname in PROPAGATORS:
            self.counts["propagations"] += 1
        elif qualname == "protocol.sample_frequencies" and args:
            self.counts["points_sampled"] += len(args[0])

    def summary(self) -> dict:
        return {"self_s": self.self_s, "spans": self.spans, "calls": self.calls,
                "counts": self.counts}


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "tflow" or len(parts) != 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def install(tracer: Tracer) -> list[str]:
    """Patch every tflow module that imports; return the layers found."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"tflow.{layer}")
        except ImportError:
            continue
    modules["__init__"] = importlib.import_module("tflow")

    wrappers: dict[tuple[int, str], object] = {}

    def wrapped(func, layer, name):
        key = (id(func), layer)
        if key not in wrappers:
            wrappers[key] = tracer.wrap(func, layer, f"{layer}.{name}")
        return wrappers[key]

    found = set()
    for binder, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__wrapped_by_perfbench__", False):
                continue
            if isinstance(obj, types.FunctionType):
                layer = _layer_of(obj.__module__) or (binder if binder in LAYERS else None)
                if layer is None:
                    continue
                setattr(module, name, wrapped(obj, layer, name))
                found.add(layer)
            elif isinstance(obj, type) and _layer_of(obj.__module__) == binder:
                _wrap_methods(obj, binder, wrapped)
    return sorted(found)


def _wrap_methods(cls, layer, wrapped) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in ("__call__", "__post_init__"):
            continue
        if isinstance(attr, types.FunctionType):
            setattr(cls, name, wrapped(attr, layer, f"{cls.__name__}.{name}"))
        elif isinstance(attr, (classmethod, staticmethod)) and isinstance(
                attr.__func__, types.FunctionType):
            inner = wrapped(attr.__func__, layer, f"{cls.__name__}.{name}")
            setattr(cls, name, type(attr)(inner))


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
