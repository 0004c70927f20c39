"""radgraph: constructions, bounds and exhaustive checks for the maximum
radius of connected graphs with minimum-degree and girth floors.

Importing the package executes none of its eight submodules.  Each one is
registered through ``importlib.util.LazyLoader``: its module object is put
in ``sys.modules`` and bound as a package attribute at once, and its code
runs on the first attribute access.  Every public name is resolved from
``_EXPORTS`` by ``__getattr__``, so ``from radgraph import find_witness``
executes ``witness`` and what it imports, and nothing else.  A CLI launch
thus pays only for the modules its command calls (see ``cli.py``).

The stubs are real ``sys.modules`` entries, not function-local imports, so
that every lookup by name finds the one module object a load fills in:
``import radgraph.graph`` does, and so does perfbench's tracer, which
imports ``radgraph.cli`` and then reads ``sys.modules["radgraph.<layer>"]``
for each layer before any command has run.

``_EXPORTS`` is the one list of public names: no submodule assigns its own
``__all__``.  ``_lazy`` sets it on each stub instead, and the value survives
the load, because ``LazyLoader`` puts every attribute set on a stub back
after the module's code has run.  So ``from radgraph.witness import *``
binds exactly ``_EXPORTS["witness"]``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Each submodule and the public names the package re-exports from it.
_EXPORTS = {
    "bounds": ("cage_lower_bound", "exact_radius_formula_g4", "upper_bound_radius"),
    "constructions": ("ExtractionResult", "bipartite_radius2", "box_graph", "box_spec",
                      "extract_dense_subgraph", "glue_cycle", "radius3_graph"),
    "fields": ("SUPPORTED_ORDERS", "FiniteField", "field_make"),
    "geometry": ("projective_plane_incidence_graph", "symplectic_quadrangle_incidence_graph"),
    "graph": ("INFINITE", "UNREACHABLE", "Graph", "MetricSummary", "ball", "bfs",
              "build_graph", "induced_subgraph", "is_connected", "is_triangle_free",
              "metric_summary", "sphere"),
    "io": ("from_edgelist_text", "from_graph6", "graph6_bytes", "to_dot", "to_edgelist_text"),
    "search": ("SearchResult", "enumerate_extremal", "stream_verify",
               "verify_theorem_main_small"),
    "witness": ("BoundReport", "WitnessValidationError", "check_witness_general",
                "check_witness_triangle_free", "check_witness_two_cycles", "find_witness"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def _lazy(name):
    """``radgraph.<name>``, in ``sys.modules`` but not executed yet, with its
    ``__all__`` already set."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.__all__ = _EXPORTS[name]
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
