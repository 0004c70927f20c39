"""The package surface: its public names resolve lazily to their submodules'
own objects, and importing the package executes no submodule."""

import json

import pytest

import radgraph
from conftest import fresh_python

SUBMODULES = ("bounds", "constructions", "fields", "geometry", "graph", "io", "search", "witness")

#: Every name ``from radgraph import X`` has always offered.
PUBLIC = {
    "cage_lower_bound", "exact_radius_formula_g4", "upper_bound_radius",
    "ExtractionResult", "bipartite_radius2", "box_graph", "box_spec",
    "extract_dense_subgraph", "glue_cycle", "radius3_graph",
    "SUPPORTED_ORDERS", "FiniteField", "field_make",
    "projective_plane_incidence_graph", "symplectic_quadrangle_incidence_graph",
    "INFINITE", "UNREACHABLE", "Graph", "MetricSummary", "ball", "bfs", "build_graph",
    "induced_subgraph", "is_connected", "is_triangle_free", "metric_summary", "sphere",
    "from_edgelist_text", "from_graph6", "graph6_bytes", "to_dot", "to_edgelist_text",
    "SearchResult", "enumerate_extremal", "stream_verify", "verify_theorem_main_small",
    "BoundReport", "GeodesicObservationReport", "WitnessValidationError",
    "check_easycases_instantiation", "check_witness_general", "check_witness_triangle_free",
    "check_witness_two_cycles", "easycases_configuration", "easycases_pattern",
    "find_witness", "upper_bound_witness_pattern", "validate_geodesic_observations",
}


def test_all_is_the_public_names():
    assert len(PUBLIC) == 48
    assert len(radgraph.__all__) == 48 and set(radgraph.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_name_is_its_submodules_own_object(name):
    owners = [m for m in SUBMODULES if name in getattr(radgraph, m).__all__]
    assert len(owners) == 1, owners
    assert getattr(radgraph, name) is getattr(getattr(radgraph, owners[0]), name)


def test_star_import_and_dir():
    namespace = {}
    exec("from radgraph import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert PUBLIC | set(SUBMODULES) | {"__version__"} <= set(dir(radgraph))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_star_import_binds_its_exports(module):
    """The ``__all__`` set on a lazy stub survives the load the star import runs."""
    code = f"""
import json
namespace = {{}}
exec("from radgraph.{module} import *", namespace)
import radgraph
print(json.dumps([sorted(set(namespace) - {{"__builtins__"}}),
                  list(radgraph.{module}.__all__), list(radgraph._EXPORTS["{module}"])]))
"""
    bound, after_load, exports = json.loads(fresh_python(code))
    assert bound == sorted(exports) and after_load == exports


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        radgraph.no_such_name


def test_import_executes_no_submodule():
    code = """
import json, sys, types
import radgraph
print(json.dumps({name: type(module) is types.ModuleType for name, module in sys.modules.items()
                  if name.startswith("radgraph.")}))
"""
    executed = json.loads(fresh_python(code))
    assert executed == {f"radgraph.{m}": False for m in SUBMODULES}
