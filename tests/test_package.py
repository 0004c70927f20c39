"""The package surface: its public names resolve lazily to their submodules'
own objects, and importing the package executes no submodule."""

import copy
import json
import pickle

import pytest

import radgraph
import geodesic_patterns
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
    "BoundReport", "WitnessValidationError", "check_witness_general",
    "check_witness_triangle_free", "check_witness_two_cycles", "find_witness",
}

#: The geodesic-pair proof replays, now in ``tests/geodesic_patterns.py``.
REMOVED = ("GeodesicObservationReport", "check_easycases_instantiation", "easycases_configuration",
           "easycases_pattern", "upper_bound_witness_pattern", "validate_geodesic_observations")


def test_all_is_the_public_names():
    assert len(PUBLIC) == 42
    assert len(radgraph.__all__) == 42 and set(radgraph.__all__) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_exported(name):
    with pytest.raises(AttributeError, match=name):
        getattr(radgraph, name)
    with pytest.raises(ImportError):
        exec(f"from radgraph import {name}", {})


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


_PATH = radgraph.build_graph(3, [(0, 1), (1, 2)])

#: Each record class, its fields in order, and the repr a frozen dataclass
#: gave it.  ``GeodesicObservationReport`` belongs to the test-side proof
#: replays in ``tests/geodesic_patterns.py``.
RECORDS = [
    (radgraph.MetricSummary,
     dict(radius=1, diameter=2, girth=radgraph.INFINITE, min_degree=1, centers=(1,)),
     "MetricSummary(radius=1, diameter=2, girth=inf, min_degree=1, centers=(1,))"),
    (radgraph.MetricSummary, dict(radius=None, diameter=None, girth=3, min_degree=0, centers=()),
     "MetricSummary(radius=None, diameter=None, girth=3, min_degree=0, centers=())"),
    (radgraph.SearchResult,
     dict(n=5, delta=2, g=4, max_radius=2, extremal_witness=_PATH, graphs_considered=12),
     "SearchResult(n=5, delta=2, g=4, max_radius=2, extremal_witness=Graph(n=3, m=2), "
     "graphs_considered=12)"),
    (radgraph.BoundReport, dict(kind="witness-general", vertices=(0, 3), claimed=5, measured=6),
     "BoundReport(kind='witness-general', vertices=(0, 3), claimed=5, measured=6)"),
    (radgraph.ExtractionResult, dict(center=0, geodesic=(0, 1, 2), chosen_index=1, subgraph=_PATH,
                                     vertex_map=(0, 1, 2), vertex_bound=3, edge_bound=2),
     "ExtractionResult(center=0, geodesic=(0, 1, 2), chosen_index=1, subgraph=Graph(n=3, m=2), "
     "vertex_map=(0, 1, 2), vertex_bound=3, edge_bound=2)"),
    (geodesic_patterns.GeodesicObservationReport,
     dict(r=4, t=1, m=2, far_distance=4, violations=("shift t = 3 exceeds m = 2",)),
     "GeodesicObservationReport(r=4, t=1, m=2, far_distance=4, violations=('shift t = 3 exceeds m = 2',))"),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS,
                         ids=[f"{r[0].__name__}-{i}" for i, r in enumerate(RECORDS)])
class TestRecord:
    """The five result records keep the semantics of the frozen dataclasses
    they replace."""

    def test_positional_and_keyword_construction(self, cls, fields, text):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        for record in (by_position, by_keyword):
            assert {key: getattr(record, key) for key in fields} == fields
        first, *rest = fields
        assert cls(fields[first], **{key: fields[key] for key in rest}) == by_keyword
        assert not hasattr(by_keyword, "__dict__")

    def test_wrong_fields_raise_type_error(self, cls, fields, text):
        values = list(fields.values())
        first = next(iter(fields))
        for args, kwargs in [(values[:-1], {}), (values + [0], {}), (values, {first: values[0]}),
                             (values, {"no_such_field": 0})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_eq_and_hash(self, cls, fields, text):
        record, twin = cls(**fields), cls(**fields)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))
        assert record != tuple(fields.values())
        last = list(fields)[-1]
        assert record != cls(**dict(fields, **{last: "other"}))
        assert len({record, twin}) == 1

    def test_repr_is_the_dataclass_text(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_assignment_raises(self, cls, fields, text):
        record = cls(**fields)
        first = next(iter(fields))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(record, first, 0)
        with pytest.raises(AttributeError):
            record.no_such_field = 0
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(record, first)
        assert getattr(record, first) == fields[first]

    def test_pickle_and_copy_round_trips(self, cls, fields, text):
        record = cls(**fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)
        for clone in (copy.copy(record), copy.deepcopy(record)):
            assert clone == record and repr(clone) == text


def test_graph_pickles_at_every_protocol_without_its_memo():
    G = radgraph.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    radgraph.metric_summary(G)
    assert G._cache
    assert G.__reduce__() == (radgraph.Graph, (G.adj,))
    clones = [pickle.loads(pickle.dumps(G, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in clones + [copy.copy(G), copy.deepcopy(G)]:
        assert back == G and back.edge_count == G.edge_count and back._cache == {}
