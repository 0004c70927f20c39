"""radgraph: constructions, bounds and exhaustive checks for the maximum
radius of connected graphs with minimum-degree and girth floors."""

from .bounds import (
    cage_lower_bound,
    exact_radius_formula_g4,
    upper_bound_radius,
)
from .constructions import (
    ExtractionResult,
    bipartite_radius2,
    box_graph,
    box_spec,
    extract_dense_subgraph,
    glue_cycle,
    radius3_graph,
)
from .fields import SUPPORTED_ORDERS, FiniteField, field_make
from .geometry import (
    CageValidationError,
    import_cage,
    projective_plane_incidence_graph,
    symplectic_quadrangle_incidence_graph,
)
from .graph import (
    INFINITE,
    UNREACHABLE,
    Graph,
    MetricSummary,
    ball,
    bfs,
    build_graph,
    induced_subgraph,
    is_connected,
    is_triangle_free,
    metric_summary,
    sphere,
)
from .io import (
    from_edgelist_text,
    from_graph6,
    graph6_bytes,
    to_dot,
    to_edgelist_text,
)
from .search import (
    SearchResult,
    enumerate_extremal,
    stream_verify,
    verify_theorem_main_small,
)
from .witness import (
    BoundReport,
    GeodesicObservationReport,
    WitnessValidationError,
    check_easycases_instantiation,
    check_witness_general,
    check_witness_triangle_free,
    check_witness_two_cycles,
    easycases_configuration,
    easycases_pattern,
    find_witness,
    upper_bound_witness_pattern,
    validate_geodesic_observations,
)

__version__ = "0.1.0"
