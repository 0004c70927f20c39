"""Spans around radgraph's public functions, recorded from outside the package.

``Tracer.install`` wraps every function named in a radgraph module's
``__all__`` (and ``cli.main``) and rebinds each radgraph module attribute
that refers to it, so calls between modules and within one module both pass
through a wrapper.  Spans stay in memory until the pass ends.  Pool workers
forked by ``--jobs 2`` inherit the wrappers, but their spans stay in the
worker; the parent's ``search.enumerate_extremal`` span covers that time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "search", "graph", "io", "fields", "geometry", "constructions", "witness", "bounds")

#: What a span counts besides time, from the call's arguments and result.
COUNTERS = {
    "io.from_graph6": lambda args, result: len(args[0]),
    "io.graph6_bytes": lambda args, result: len(result),
    "search.enumerate_extremal": lambda args, result: result.graphs_considered,
    "search.stream_verify": lambda args, result: (result["accepted"], result["total"]),
    "witness.find_witness": lambda args, result: len(result.vertices),
}


@dataclass(slots=True)
class Span:
    """One call of a wrapped function: perf_counter times, the enclosing
    span's id, the invocation that caused it and what the call counted."""

    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    count: object = None

    def to_json(self):
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "start": self.start, "end": self.end}


class Tracer:
    """Records one span per call of a wrapped function; ``op`` tags the
    spans with the invocation that caused them."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.op, perf_counter())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced

    def install(self):
        """Wrap radgraph (imported from ``sys.path``) and return ``cli.main``."""
        import radgraph.cli

        names = {radgraph.cli.main: "cli.main"}
        for layer in LAYERS[1:]:
            module = sys.modules[f"radgraph.{layer}"]
            for attr in module.__all__:
                value = getattr(module, attr)
                if inspect.isfunction(value):
                    names[value] = f"{layer}.{attr}"
        wrapped = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "radgraph" and not modname.startswith("radgraph."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    self._undo.append((module, attr, value))
        return radgraph.cli.main

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def rollup(spans) -> tuple:
    """(per layer, per function) dicts of {"calls", "self_s", "total_s", "count"}."""
    own = self_times(spans)
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    funcs: dict = {}
    for s, t in zip(spans, own):
        layer = layers[s.name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += t
        f = funcs.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": None})
        f["calls"] += 1
        f["self_s"] += t
        f["total_s"] += s.end - s.start
        if s.count is not None:
            if f["count"] is None:
                f["count"] = s.count
            elif isinstance(s.count, tuple):
                f["count"] = tuple(a + b for a, b in zip(f["count"], s.count))
            else:
                f["count"] += s.count
    return layers, funcs


def _ratio(num, den):
    return num / den if den else 0.0


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [(f"{layer}.{kind}", unit) for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("graph.metric_summary.calls", "count"),
    ("graph.metric_summary.self_s", "s"),
    ("graph.bfs.calls", "count"),
    ("graph.bfs.self_s", "s"),
    ("graph.build_graph.calls", "count"),
    ("graph.build_graph.self_s", "s"),
    ("graph.bridges.self_s", "s"),
    ("io.from_graph6.self_s", "s"),
    ("io.from_graph6.bytes_per_s", "B/s"),
    ("io.graph6_bytes.self_s", "s"),
    ("io.graph6_bytes.bytes_per_s", "B/s"),
    ("fields.field_make.self_s", "s"),
    ("geometry.projective_plane_incidence_graph.self_s", "s"),
    ("geometry.symplectic_quadrangle_incidence_graph.self_s", "s"),
    ("search.enumerate_extremal.self_s", "s"),
    ("search.verify_theorem_main_small.self_s", "s"),
    ("search.graphs_considered", "count"),
    ("search.graphs_per_s", "1/s"),
    ("search.stream_verify.self_s", "s"),
    ("search.stream_verify.accepted_ratio", "ratio"),
    ("witness.find_witness.self_s", "s"),
    ("witness.find_witness.witness_size", "count"),
    ("witness.check_witness_general.self_s", "s"),
    ("constructions.glue_cycle.self_s", "s"),
    ("constructions.extract_dense_subgraph.self_s", "s"),
    ("cli.input_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_metrics(spans, input_bytes, traced_wall, untraced_wall) -> dict:
    """Every PER_LAYER metric from one traced pass; a ratio whose base is
    zero (the workload never calls that function) reads 0."""
    layers, funcs = rollup(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": None}
    values = {}
    for layer, agg in layers.items():
        values[f"{layer}.calls"] = agg["calls"]
        values[f"{layer}.self_s"] = agg["self_s"]
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        fn, _, kind = name.rpartition(".")
        f = funcs.get(fn, empty)
        if kind in ("calls", "self_s"):
            values[name] = f[kind]
        elif kind == "bytes_per_s":
            values[name] = _ratio(f["count"] or 0, f["self_s"])
        elif kind == "witness_size":
            values[name] = f["count"] or 0
        elif kind == "accepted_ratio":
            accepted, total = f["count"] or (0, 0)
            values[name] = _ratio(accepted, total)
    search = funcs.get("search.enumerate_extremal", empty)
    values["search.graphs_considered"] = search["count"] or 0
    values["search.graphs_per_s"] = _ratio(search["count"] or 0, search["total_s"])
    values["cli.input_bytes"] = input_bytes
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
