import math
import random
from itertools import combinations
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radgraph.graph as graph_module
from radgraph import cli
from radgraph import (
    INFINITE,
    UNREACHABLE,
    Graph,
    ball,
    bfs,
    box_graph,
    build_graph,
    from_graph6,
    glue_cycle,
    graph6_bytes,
    induced_subgraph,
    is_connected,
    is_triangle_free,
    metric_summary,
    projective_plane_incidence_graph,
    sphere,
    symplectic_quadrangle_incidence_graph,
)
from radgraph.graph import (
    _ball_eccentricities,
    _bipartite,
    _eccentricities,
    _from_rows,
    _girth,
    _girth_of,
    _levels,
    _reach,
    _shift_period,
)
from conftest import cycle
from test_constructions import construct
from oracles import floyd_distances, naive_bridges, naive_girth, naive_radius_diameter, rows_of


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


class TestBuildGraph:
    def test_deduplicates_edges(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 1), (1, 0)])
        assert G.edge_count == 2
        assert G.adj == ((1,), (0, 2), (1,))

    def test_single_vertex(self):
        G = build_graph(1, [])
        assert G.n == 1 and G.edge_count == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(4, [(0, 4)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(4, [(2, 2)])

    def test_symmetry(self):
        G = random_graph(9, 0.4, seed=7)
        for u in range(G.n):
            for v in G.adj[u]:
                assert u in G.adj[v]
        assert sum(len(r) for r in G.adj) == 2 * G.edge_count


def _samples():
    """Each ``construct`` kind's sample as built, decoded from its graph6
    line and rebuilt from its bit rows, and two glued rings."""
    for kind, row in cli._FAMILIES.items():
        G = construct(kind, row["sample"])[0]
        yield kind, G
        yield f"{kind} graph6", from_graph6(graph6_bytes(G))
        yield f"{kind} rows", _from_rows(rows_of(G))
    yield "C8 x3", glue_cycle(box_graph(4, 2), 3)
    yield "W(2) x2", glue_cycle(symplectic_quadrangle_incidence_graph(2), 2)


SAMPLES = dict(_samples())


@pytest.mark.parametrize("name", SAMPLES)
def test_graph_reads_its_order_and_size_from_adj(name):
    G = SAMPLES[name]
    assert G.n == len(G.adj) and G.edge_count == len(list(G.edges()))
    H = Graph(G.adj)
    assert H == G and hash(H) == hash(G)


def test_graph_takes_its_neighbour_tuples_alone():
    G = Graph(((1, 2), (0,), (0,), ()))
    assert (G.n, G.edge_count) == (4, 2) and G == build_graph(4, [(0, 1), (0, 2)])
    assert (Graph(()).n, Graph(()).edge_count) == (0, 0)
    with pytest.raises(TypeError):
        Graph(4, G.adj, 2)


class TestBfs:
    def test_path(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        assert bfs(G, 0) == (0, 1, 2)

    def test_cycle_max_distance(self, c8):
        assert max(bfs(c8, 0)) == 4

    def test_unreachable(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        dv = bfs(G, 0)
        assert dv[2] == UNREACHABLE and dv[3] == UNREACHABLE

    def test_adjacent_levels_differ_by_at_most_one(self):
        G = random_graph(10, 0.3, seed=3)
        dv = bfs(G, 0)
        for u, v in G.edges():
            if dv[u] != UNREACHABLE and dv[v] != UNREACHABLE:
                assert abs(dv[u] - dv[v]) <= 1


class TestMetricSummary:
    def test_c8(self, c8):
        ms = metric_summary(c8)
        assert (ms.radius, ms.diameter, ms.girth, ms.min_degree) == (4, 4, 8, 2)

    def test_petersen(self, petersen):
        n, edges = 10, list(petersen.edges())
        assert naive_girth(n, edges) == 5
        assert naive_radius_diameter(n, edges) == (2, 2)
        ms = metric_summary(petersen)
        assert ms.girth == 5 and ms.radius == 2

    def test_star(self):
        G = build_graph(6, [(0, i) for i in range(1, 6)])
        ms = metric_summary(G)
        assert ms.radius == 1 and ms.girth == INFINITE and ms.min_degree == 1
        assert ms.centers == (0,)

    def test_girth_infinite_iff_forest(self):
        tree = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert metric_summary(tree).girth == INFINITE
        assert metric_summary(cycle(5)).girth == 5

    def test_disconnected_radius_undefined(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        ms = metric_summary(G)
        assert ms.radius is None and ms.diameter is None and ms.centers == ()

    def test_centers_are_min_eccentricity(self):
        G = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # path P5
        ms = metric_summary(G)
        assert ms.centers == (2,) and ms.radius == 2 and ms.diameter == 4

    @pytest.mark.parametrize("seed", range(12))
    def test_girth_matches_cycle_enumeration(self, seed):
        # cross-validation on graphs with n <= 10
        G = random_graph(8 + seed % 3, 0.25 + 0.05 * (seed % 4), seed)
        expected = naive_girth(G.n, list(G.edges()))
        got = metric_summary(G).girth
        assert got == expected or (expected == math.inf and got == INFINITE)

    @pytest.mark.parametrize("seed", range(8))
    def test_radius_diameter_match_floyd(self, seed):
        G = random_graph(9, 0.35, seed=100 + seed)
        r, d = naive_radius_diameter(G.n, list(G.edges()))
        ms = metric_summary(G)
        assert (ms.radius, ms.diameter) == (r, d)
        if r is not None:
            assert r <= d <= 2 * r

    def test_triangle_inequality_sampled(self):
        G = random_graph(10, 0.4, seed=42)
        dist = [bfs(G, v) for v in range(G.n)]
        rng = random.Random(1)
        for _ in range(200):
            u, v, w = rng.randrange(10), rng.randrange(10), rng.randrange(10)
            if UNREACHABLE in (dist[u][v], dist[v][w], dist[u][w]):
                continue
            assert dist[u][w] <= dist[u][v] + dist[v][w]


class TestBallSphere:
    def test_c8_ball(self, c8):
        assert ball(c8, 0, 1) == {0, 1, 7}

    def test_ball_radius_zero(self, petersen):
        assert ball(petersen, 3, 0) == {3}
        assert sphere(petersen, 3, 0) == {3}

    def test_c8_sphere(self, c8):
        assert sphere(c8, 0, 2) == {2, 6}

    def test_heawood_ball_sizes(self, heawood_lcf):
        dist = floyd_distances(14, list(heawood_lcf.edges()))
        for v in range(14):
            assert sum(1 for d in dist[v] if d <= 2) == 10
            assert ball(heawood_lcf, v, 2) == {w for w in range(14) if dist[v][w] <= 2}
            assert len(sphere(heawood_lcf, v, 2)) == 6

    def test_sphere_is_ball_difference(self):
        G = random_graph(11, 0.3, seed=9)
        for v in (0, 4, 10):
            for k in (1, 2, 3):
                assert sphere(G, v, k) == ball(G, v, k) - ball(G, v, k - 1)


class TestReachKernel:
    """ball, sphere and is_connected against Floyd-Warshall, on the
    neighbour tuples alone."""

    GRAPHS = [random_graph(6 + seed % 6, 0.08 + 0.05 * seed, seed=300 + seed) for seed in range(10)] + [
        build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # three components
    ]

    @pytest.mark.parametrize("G", GRAPHS)
    def test_ball_sphere_match_floyd(self, G):
        dist = floyd_distances(G.n, list(G.edges()))
        for v in range(G.n):
            # k = 0 up to n runs past every eccentricity
            for k in range(G.n + 1):
                assert ball(G, v, k) == {w for w in range(G.n) if dist[v][w] <= k}
                assert sphere(G, v, k) == {w for w in range(G.n) if dist[v][w] == k}

    @pytest.mark.parametrize("G", GRAPHS)
    def test_is_connected_matches_floyd(self, G):
        dist = floyd_distances(G.n, list(G.edges()))
        assert is_connected(G) == all(d != math.inf for d in dist[0])

    def test_inputs_include_disconnected_graphs(self):
        assert {is_connected(G) for G in self.GRAPHS} == {True, False}

    def test_is_connected_trivial_orders(self):
        assert is_connected(build_graph(0, []))
        assert is_connected(build_graph(1, []))
        assert not is_connected(build_graph(2, []))

    @pytest.mark.parametrize("G", GRAPHS)
    def test_rows_agree_with_adj(self, G):
        # the graph keeps no bit rows, before or after these questions
        for v in range(G.n):
            ball(G, v, 2), sphere(G, v, 2)
        is_connected(G), is_triangle_free(G)
        assert not hasattr(G, "rows") and "rows" not in G._cache
        # the bit rows the tests build as an oracle match the neighbour tuples
        rows = rows_of(G)
        assert len(rows) == G.n
        for v in range(G.n):
            assert {w for w in range(G.n) if rows[v] >> w & 1} == set(G.adj[v])
            assert rows[v] >> G.n == 0

    def test_bad_vertex_and_negative_radius_rejected(self, c8):
        for f in (ball, sphere):
            for v in (-1, 8):
                with pytest.raises(ValueError, match="out of range"):
                    f(c8, v, 1)
            with pytest.raises(ValueError, match="non-negative"):
                f(c8, 0, -1)

    def test_negative_radius_message_and_order(self, c8):
        for f in (ball, sphere):
            for k in (-1, -5):
                with pytest.raises(ValueError) as err:
                    f(c8, 3, k)
                assert str(err.value) == f"radius must be non-negative, got {k}"
            # the vertex is checked first
            with pytest.raises(ValueError) as err:
                f(c8, 8, -1)
            assert str(err.value) == "vertex 8 out of range for graph on 8 vertices"

    def test_radius_past_every_eccentricity(self):
        G = self.GRAPHS[-1]  # components {0, 1, 2}, {3, 4, 5} and {6}
        for k in (2, 3, 7, 10**9):
            assert ball(G, 0, k) == {0, 1, 2}
            assert ball(G, 4, k) == {3, 4, 5}
            assert ball(G, 6, k) == {6}
            assert sphere(G, 6, k) == set()
        assert sphere(G, 0, 2) == {2} and sphere(G, 1, 2) == set()
        for k in (3, 7, 10**9):
            assert sphere(G, 0, k) == sphere(G, 4, k) == set()


def random_bipartite(a, b, p, seed):
    rng = random.Random(seed)
    edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]
    return build_graph(a + b, edges)


def random_forest(n, seed):
    rng = random.Random(seed)
    # every vertex but the roots hangs off a lower one
    edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.85]
    return build_graph(n, edges)


def floyd_eccentricities(G, k=None):
    """The eccentricities of the sources 0..k-1 (every vertex when k is
    None) from Floyd-Warshall, or None when G is disconnected."""
    dist = floyd_distances(G.n, list(G.edges()))
    eccs = [max(row) for row in dist]
    return None if math.inf in eccs else eccs[:k]


def source_counts(n):
    """The kernels' source counts k = 1, 2, n // 2 and n that fit in 0..n."""
    return sorted({k for k in (1, 2, n // 2, n) if k <= n})


def ball_eccentricities(G, k):
    """The eccentricities of the sources 0..k-1 from ball growth, without
    the girth it also returns (None when G is disconnected)."""
    found = _ball_eccentricities(G.adj, G.n, k)
    return None if found is None else found[0]


def force_kernel(span):
    """Route every eccentricity call of metric_summary to one kernel: ball
    growth for span 0 and the queue BFS for any larger span, the two ends
    of a cut span * ecc(0) <= k.  Each stand-in returns what its caller
    expects: the queue side's eccentricities alone, and the ball side's
    eccentricities with the girth, here from the per-root BFS."""
    if span == 0:
        ball = graph_module._ball_eccentricities
        return patch.object(graph_module, "_eccentricities",
                            lambda adj, n, sources: ball(adj, n, sources.stop)[0][sources.start:])
    queue, girth = graph_module._eccentricities, graph_module._girth

    def queue_with_girth(adj, n, k, best=INFINITE, odd=True):
        return queue(adj, n, range(k)), min(best, girth(adj, n, not odd, k))

    return patch.object(graph_module, "_ball_eccentricities", queue_with_girth)


def oracle_girth(G):
    g = naive_girth(G.n, list(G.edges()))
    return INFINITE if g == math.inf else g


def bipartite(G):
    return _bipartite(G.adj, _levels(G.adj, G.n))


def fresh(G):
    """An equal graph with an empty memo, so metric_summary recomputes."""
    return build_graph(G.n, G.edges())


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


class TestMetricKernel:
    """Both eccentricity paths and the girth cutoff, called directly, against
    Floyd-Warshall and cycle enumeration."""

    GRAPHS = (
        [random_graph(5 + seed % 9, 0.1 + 0.07 * seed, seed=500 + seed) for seed in range(12)]
        + [random_bipartite(3 + seed % 4, 4 + seed % 3, 0.3 + 0.1 * seed, seed=600 + seed)
           for seed in range(6)]
        + [random_forest(8 + seed, seed=700 + seed) for seed in range(4)]
        + [
            build_graph(0, []),
            build_graph(1, []),
            build_graph(2, []),
            build_graph(2, [(0, 1)]),
            build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # three components
            build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]),
        ]
    )

    def test_inputs_cover_the_shapes(self):
        assert {is_connected(G) for G in self.GRAPHS} == {True, False}
        assert {bipartite(G) for G in self.GRAPHS} == {True, False}
        assert any(G.n and oracle_girth(G) == INFINITE for G in self.GRAPHS)
        assert {0, 1} <= {G.n for G in self.GRAPHS}

    @pytest.mark.parametrize("width", [1, 3, 64, graph_module._BALL_WIDTH])
    @pytest.mark.parametrize("G", GRAPHS)
    def test_ms_bfs_matches_floyd(self, G, width, monkeypatch):
        # ball growth is the bit-parallel multi-source BFS; narrow blocks
        # split the sources over several blocks, and k < n is the
        # orbit-representative mode of metric_summary
        monkeypatch.setattr(graph_module, "_BALL_WIDTH", width)
        for k in source_counts(G.n):
            assert ball_eccentricities(G, k) == floyd_eccentricities(G, k)

    @pytest.mark.parametrize("G", GRAPHS)
    def test_queue_bfs_matches_floyd(self, G):
        # the queue BFS takes a connected graph: each component of G in turn
        parts = [G] if is_connected(G) else [
            induced_subgraph(G, part)[0] for part in nx.connected_components(to_nx(G))]
        for H in parts:
            for k in source_counts(H.n):
                assert _eccentricities(H.adj, H.n, range(k)) == floyd_eccentricities(H, k)

    @pytest.mark.parametrize("G", GRAPHS)
    def test_bipartite_matches_networkx(self, G):
        assert bipartite(G) == nx.is_bipartite(to_nx(G))

    @pytest.mark.parametrize("G", GRAPHS)
    def test_girth_cutoff_matches_cycle_enumeration(self, G):
        assert _girth(G.adj, G.n, bipartite(G), G.n) == oracle_girth(G)

    @pytest.mark.parametrize("G", [G for G in GRAPHS if bipartite(G)])
    def test_loose_cutoff_on_bipartite_graphs(self, G):
        # the general cutoff is one level looser and must agree
        assert _girth(G.adj, G.n, False, G.n) == oracle_girth(G)

    @pytest.mark.parametrize("n", [50, 51])
    def test_cycles_closed_forms(self, n):
        C = cycle(n)
        assert _ball_eccentricities(C.adj, n, n) == ([n // 2] * n, n)
        assert _eccentricities(C.adj, n, range(n)) == [n // 2] * n
        assert _girth(C.adj, n, n % 2 == 0, n) == n
        assert _girth(C.adj, n, n % 2 == 0, 1) == n  # C_n has shift period 1
        assert bipartite(C) == (n % 2 == 0)

    @pytest.mark.parametrize("span", [0, 10**9])
    @pytest.mark.parametrize("G", GRAPHS)
    def test_metric_summary_on_either_path(self, G, span):
        with force_kernel(span):
            ms = metric_summary(fresh(G))  # a memoised summary would hide the path
        r, d = naive_radius_diameter(G.n, list(G.edges())) if G.n else (None, None)
        assert (ms.radius, ms.diameter, ms.girth) == (r, d, oracle_girth(G))
        eccs = floyd_eccentricities(G) if G.n else None
        assert ms.centers == (tuple(v for v, e in enumerate(eccs) if e == r) if eccs else ())

    def test_triangle_check_skips_eccentricities(self):
        C = cycle(3000)
        assert is_triangle_free(C)
        # the triangle test reads the neighbour tuples only: no girth, no eccentricity
        assert "metrics" not in C._cache and "girth" not in C._cache
        assert metric_summary(C).girth == 3000


def circulant(n, jumps):
    return build_graph(n, [(v, (v + s) % n) for v in range(n) for s in jumps if s % n])


def near_miss(n, jumps):
    """C_n(jumps), jumps holding 1 but not 2, with the edge (n-2, n-1) moved
    to (n-3, n-1): every shift check passes up to the last few rows."""
    edges = set(circulant(n, jumps).edges())
    edges.remove((n - 2, n - 1))
    edges.add((n - 3, n - 1))
    return build_graph(n, edges)


def oracle_period(G):
    """Least d dividing n whose shift maps the edge set onto itself."""
    n = G.n
    edges = set(G.edges())
    for d in range(1, n + 1):
        shifted = {tuple(sorted(((u + d) % n, (v + d) % n))) for u, v in edges}
        if n % d == 0 and shifted == edges:
            return d
    return n


def oracle_summary(G):
    """(radius, diameter, min degree, centres) from Floyd-Warshall."""
    eccs = [max(row) for row in floyd_distances(G.n, list(G.edges()))]
    min_degree = min(G.degrees(), default=0)
    if not eccs or math.inf in eccs:
        return (None, None, min_degree, ())
    r = min(eccs)
    return (r, max(eccs), min_degree, tuple(v for v, e in enumerate(eccs) if e == r))


def summary_tuple(G, span):
    with force_kernel(span):
        ms = metric_summary(fresh(G))
    return (ms.radius, ms.diameter, ms.min_degree, ms.centers)


def kernel_calls(monkeypatch):
    """Spy on both eccentricity kernels; returns the list that collects
    (kernel name, source count k or the queue BFS's sources) for each call."""
    calls = []
    for name in ("_ball_eccentricities", "_eccentricities"):
        def spy(adj, n, k, *rest, name=name, real=getattr(graph_module, name)):
            calls.append((name, k))
            return real(adj, n, k, *rest)

        monkeypatch.setattr(graph_module, name, spy)
    return calls


def distance_calls(monkeypatch):
    """Spy on the queue BFS ``_distances``; returns the list that collects
    the source of each call."""
    calls = []
    real = graph_module._distances

    def spy(adj, v, dist):
        calls.append(v)
        return real(adj, v, dist)

    monkeypatch.setattr(graph_module, "_distances", spy)
    return calls


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + inner + [(i, i + 5) for i in range(5)])


_HEAWOOD = build_graph(14, [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)])
_K33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
_K4_MINUS_EDGE = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])  # rings of it are not self-centred
_NEAR_MISSES = [near_miss(n, jumps) for n, jumps in ((12, (1, 5)), (15, (1, 3, 7)), (20, (1, 4)), (31, (1, 5, 11)))]


def _random_circulants():
    rng = random.Random(800)
    out = []
    for _ in range(8):
        n = rng.randrange(1, 41)
        out.append(circulant(n, [s for s in range(1, n // 2 + 1) if rng.random() < 0.3]))
    return out


class TestShiftPeriod:
    """The verified label shift of metric_summary against a brute-force
    period and Floyd-Warshall, on both eccentricity kernels."""

    GRAPHS = (
        _random_circulants()
        + [glue_cycle(_petersen(), m) for m in (2, 3, 5)]
        + [glue_cycle(_HEAWOOD, m) for m in (2, 4)]
        + [glue_cycle(_K33, m) for m in (3, 6)]
        + [glue_cycle(_K4_MINUS_EDGE, m) for m in (2, 3, 4)]
        + [projective_plane_incidence_graph(q) for q in (2, 3, 4)]
        + [cycle(n) for n in (3, 4, 9, 16)]
        + [build_graph(1, []), build_graph(2, [(0, 1)])]
        + _NEAR_MISSES
        + TestReachKernel.GRAPHS
        + list(TestMetricKernel.GRAPHS)
    )

    @pytest.mark.parametrize("G", GRAPHS)
    def test_period_matches_brute_force(self, G):
        assert _shift_period(G.adj, G.n) == oracle_period(G)

    def test_inputs_cover_the_shapes(self):
        shapes = [(oracle_period(G), G) for G in self.GRAPHS if G.n > 1]
        assert any(d == 1 for d, G in shapes)  # a circulant
        assert any(d == G.n for d, G in shapes)  # no shift
        # a shift whose orbits differ in eccentricity, so the centres are a proper subset
        assert any(1 < d < G.n and 0 < len(oracle_summary(G)[3]) < G.n for d, G in shapes)
        # PG(2,q) swaps points and lines: n = 2(q^2+q+1), period q^2+q+1
        assert [oracle_period(projective_plane_incidence_graph(q)) for q in (2, 3, 4)] == [7, 13, 21]

    @pytest.mark.parametrize("G", _NEAR_MISSES)
    def test_near_miss_fails_only_at_the_last_rows(self, G):
        n = G.n
        bad = [v for v in range(n) if tuple(sorted((w + 1) % n for w in G.adj[v])) != G.adj[(v + 1) % n]]
        assert bad and min(bad) >= n - 4
        assert oracle_period(G) == n

    @pytest.mark.parametrize("span", [0, 10**9])
    @pytest.mark.parametrize("G", GRAPHS)
    def test_metric_summary_matches_floyd(self, G, span):
        assert summary_tuple(G, span) == oracle_summary(G)

    def test_one_bfs_per_orbit(self, monkeypatch):
        ring = glue_cycle(_HEAWOOD, 40)
        rng = random.Random(17)
        perm = list(range(ring.n))
        rng.shuffle(perm)
        relabelled = build_graph(ring.n, [(perm[u], perm[v]) for u, v in ring.edges()])
        calls = distance_calls(monkeypatch)
        kernels = kernel_calls(monkeypatch)
        ms = metric_summary(ring)
        # one _levels sweep, which gives ecc(0), then one queue BFS per
        # further residue class mod 14, since 2 * ecc(0) = 240 > 14
        assert len(calls) == 1 + 13
        assert kernels == [("_eccentricities", range(1, 14))]
        calls.clear()
        kernels.clear()
        ms2 = metric_summary(relabelled)
        # the relabelling hides the shift: the _levels sweep, then ball
        # growth from every vertex, since 240 <= 560
        assert len(calls) == 1
        assert kernels == [("_ball_eccentricities", 560)]
        assert (ms2.radius, ms2.diameter, ms2.girth, ms2.min_degree) == (
            ms.radius, ms.diameter, ms.girth, ms.min_degree)
        assert ms2.centers == tuple(sorted(perm[v] for v in ms.centers))

    def test_relabelled_cycle_with_chords_takes_ball_growth(self, monkeypatch):
        n = 36
        edges = [(v, (v + 1) % n) for v in range(n)] + [(0, 13), (5, 22), (17, 30)]
        perm = random.Random(23).sample(range(n), n)
        G = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert _shift_period(G.adj, n) == n
        kernels = kernel_calls(monkeypatch)
        ms = metric_summary(G)
        assert kernels == [("_ball_eccentricities", n)]
        assert (ms.radius, ms.diameter, ms.min_degree, ms.centers) == oracle_summary(G)

    @pytest.mark.parametrize("G,period,radius", [(cycle(2000), 1, 1000), (glue_cycle(_HEAWOOD, 200), 14, 600)],
                             ids=["C_2000", "heawood_x200"])
    def test_long_rings_take_the_queue_bfs(self, monkeypatch, G, period, radius):
        # 2 * ecc(0) exceeds the d shift-orbit representatives
        calls = distance_calls(monkeypatch)
        kernels = kernel_calls(monkeypatch)
        ms = metric_summary(G)
        assert kernels == [("_eccentricities", range(1, period))]
        # the _levels sweep from 0 gives ecc(0): C_2000 runs no other BFS
        assert calls == list(range(period))
        assert ms.radius == ms.diameter == radius
        assert ms.centers == tuple(range(G.n))


def relabelled(G, rng):
    """G with its vertices permuted at random."""
    perm = rng.sample(range(G.n), G.n)
    return build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def cycles_on_a_tree(n, bottom, top, seed):
    """A C_bottom on the vertices 0..bottom-1 and a C_top on the last top
    vertices, joined through a random recursive tree on the rest: the two
    cycles are the only ones, and with n > _BALL_WIDTH they lie in the first
    and the last ball-growth block."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % bottom) for i in range(bottom)]
    edges += [(n - top + i, n - top + (i + 1) % top) for i in range(top)]
    edges += [(v, rng.randrange(bottom, v)) for v in range(bottom + 1, n - top)]
    edges += [(0, bottom), (n - top, n - top - 1)]
    return build_graph(n, edges)


_MULTI_BLOCK = [cycles_on_a_tree(2100, bottom, top, seed)
                for seed, (bottom, top) in enumerate([(7, 5), (5, 7), (8, 6), (6, 8)])]


class TestGirthPaths:
    """The girth of the ball-growth pass and of the per-root BFS over the
    shift-orbit representatives, against cycle enumeration."""

    GRAPHS = TestShiftPeriod.GRAPHS + [
        _petersen(), cycle(5), cycle(7), circulant(13, (1, 5)), circulant(21, (1, 8)),
        circulant(16, (1, 4)), glue_cycle(_petersen(), 10), symplectic_quadrangle_incidence_graph(2),
    ]

    def test_inputs_cover_the_shapes(self):
        girths = {oracle_girth(G) for G in self.GRAPHS if is_connected(G)}
        assert {3, 4, 5, 6, 7, 8, INFINITE} <= girths
        assert any(not bipartite(G) and oracle_girth(G) == 5 for G in self.GRAPHS)
        assert all(G.n > graph_module._BALL_WIDTH for G in _MULTI_BLOCK)
        assert [oracle_girth(G) for G in _MULTI_BLOCK] == [5, 5, 6, 6]

    @pytest.mark.parametrize("width", [1, 3, 64, graph_module._BALL_WIDTH])
    @pytest.mark.parametrize("G", GRAPHS)
    def test_ball_girth_matches_cycle_enumeration(self, G, width, monkeypatch):
        # narrow blocks split the sources over several blocks
        monkeypatch.setattr(graph_module, "_BALL_WIDTH", width)
        self.check_ball_girth(G)

    @pytest.mark.parametrize("G", _MULTI_BLOCK)
    def test_ball_girth_across_blocks(self, G):
        self.check_ball_girth(G)

    @staticmethod
    def check_ball_girth(G):
        k = _shift_period(G.adj, G.n)
        connected = is_connected(G)
        for odd in {True, not bipartite(G)}:
            found = _ball_eccentricities(G.adj, G.n, k, INFINITE, odd)
            assert (found[1] if found else None) == (oracle_girth(G) if connected else None)

    @pytest.mark.parametrize("G", GRAPHS + _MULTI_BLOCK)
    def test_girth_over_shift_orbits_matches_cycle_enumeration(self, G):
        k = _shift_period(G.adj, G.n)
        assert _girth(G.adj, G.n, bipartite(G), k) == oracle_girth(G)
        assert _girth(G.adj, G.n, False, k) == oracle_girth(G)

    def test_ball_girth_stops_at_best(self):
        # no cycle shorter than best is looked for, so best comes back
        G = _petersen()
        assert _ball_eccentricities(G.adj, 10, 10, 5)[1] == 5
        assert _ball_eccentricities(G.adj, 10, 10, 0) == ([2] * 10, 0)
        assert _ball_eccentricities(G.adj, 10, 10, 6)[1] == 5

    def test_ring_runs_one_root_bfs_per_orbit(self, monkeypatch):
        ring = glue_cycle(_HEAWOOD, 200)
        starts = []
        real = graph_module.deque

        def spy(items=()):
            starts.append(tuple(items))
            return real(items)

        monkeypatch.setattr(graph_module, "deque", spy)
        assert _girth_of(ring) == 6
        # one _levels sweep, then at most one BFS per residue class mod 14
        assert starts[0] == (0,) and 1 < len(starts) <= 1 + 14
        assert {root for (root,) in starts[1:]} <= set(range(14))

    def test_ball_path_runs_no_per_root_girth(self, monkeypatch):
        G = projective_plane_incidence_graph(4)
        kernels = kernel_calls(monkeypatch)

        def girth(*args):
            raise AssertionError("per-root girth BFS ran")

        monkeypatch.setattr(graph_module, "_girth", girth)
        assert metric_summary(G).girth == 6
        assert kernels == [("_ball_eccentricities", 21)]
        assert _girth_of(G) == 6  # memoised by the summary

    def test_known_girth_is_not_searched_again(self, monkeypatch):
        G = projective_plane_incidence_graph(3)
        assert _girth_of(G) == 6
        bests = []
        real = graph_module._ball_eccentricities

        def spy(adj, n, k, best=INFINITE, odd=True):
            bests.append(best)
            return real(adj, n, k, best, odd)

        monkeypatch.setattr(graph_module, "_ball_eccentricities", spy)
        assert metric_summary(G).girth == 6
        assert bests == [6]

    def test_bipartiteness_is_decided_once(self, monkeypatch):
        # the girth, then ball growth, both read it
        G = relabelled(glue_cycle(_HEAWOOD, 4), random.Random(31))
        calls = []
        real = graph_module._bipartite

        def spy(adj, depth):
            calls.append(depth)
            return real(adj, depth)

        monkeypatch.setattr(graph_module, "_bipartite", spy)
        assert _girth_of(G) == 6
        kernels = kernel_calls(monkeypatch)
        assert metric_summary(G).girth == 6
        assert [name for name, _ in kernels] == ["_ball_eccentricities"]
        assert len(calls) == 1

    @pytest.mark.parametrize("build", [
        lambda: projective_plane_incidence_graph(3),
        lambda: symplectic_quadrangle_incidence_graph(2),
        _petersen,
        lambda: relabelled(glue_cycle(_HEAWOOD, 4), random.Random(29)),
    ], ids=["PG(2,3)", "W(2)", "Petersen", "relabelled Heawood x4"])
    def test_summary_is_the_same_after_the_girth_is_known(self, monkeypatch, build):
        # a known girth is the best ball growth looks below, and it comes back unchanged
        first, later = build(), build()
        assert _girth_of(later) == oracle_girth(later)
        kernels = kernel_calls(monkeypatch)
        assert metric_summary(later) == metric_summary(first)
        assert [name for name, _ in kernels] == ["_ball_eccentricities"] * 2


@st.composite
def perturbed_circulants(draw):
    """A block circulant (m blocks of k vertices, every edge repeated under
    the shift by k; k = 1 gives a circulant C_n(S)), then optionally one
    edge moved and optionally a random relabelling."""
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(1, 8))
    pattern = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)), max_size=5))
    edges = {
        tuple(sorted(((a + i) % n, (b + i) % n)))
        for a, b in pattern
        for i in range(0, n, k)
        if a != b
    }
    absent = [e for e in combinations(range(n), 2) if e not in edges]
    if edges and absent and draw(st.booleans()):
        edges.remove(draw(st.sampled_from(sorted(edges))))
        edges.add(draw(st.sampled_from(absent)))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        edges = {(perm[u], perm[v]) for u, v in edges}
    return build_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(perturbed_circulants())
def test_shift_period_property(G):
    assert _shift_period(G.adj, G.n) == oracle_period(G)
    want = oracle_summary(G)
    assert summary_tuple(G, 0) == want
    assert summary_tuple(G, 10**9) == want


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    p = draw(st.floats(0.1, 0.9))
    bits = draw(st.lists(st.floats(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = list(combinations(range(n), 2))
    return build_graph(n, [e for e, x in zip(pairs, bits) if x < p])


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_metric_summary_property(G):
    ms = metric_summary(G)
    edges = list(G.edges())
    r, d = naive_radius_diameter(G.n, edges) if G.n else (None, None)
    assert (ms.radius, ms.diameter) == (r, d)
    assert ms.girth == oracle_girth(G)
    assert ms.min_degree == min(G.degrees(), default=0)
    if r is not None:
        dist = floyd_distances(G.n, edges)
        assert ms.centers == tuple(v for v in range(G.n) if max(dist[v]) == r)


def reach_bridges(G):
    """The edges (v, w) from which ``_reach`` on the rows without that edge
    no longer gets from v to w: the test ``glue_cycle`` makes per edge."""
    out = set()
    for v, w in G.edges():
        rows = list(rows_of(G))
        rows[v] ^= 1 << w
        rows[w] ^= 1 << v
        if not _reach(rows, 1 << v, G.n)[0] >> w & 1:
            out.add((v, w))
    return out


class TestBridges:
    def test_path_all_bridges(self):
        G = build_graph(3, [(0, 1), (1, 2)])
        assert reach_bridges(G) == {(0, 1), (1, 2)}

    def test_cycle_no_bridges(self, c8):
        assert reach_bridges(c8) == set()

    def test_two_triangles_joined(self):
        G = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        assert reach_bridges(G) == {(2, 3)}
        assert naive_bridges(6, list(G.edges())) == {(2, 3)}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_deletion_oracle(self, seed):
        G = random_graph(9, 0.25, seed=200 + seed)
        assert reach_bridges(G) == naive_bridges(G.n, list(G.edges()))


class TestInducedSubgraph:
    def test_c8_to_path(self, c8):
        H, vmap = induced_subgraph(c8, {0, 1, 2})
        assert vmap == (0, 1, 2)
        assert H.adj == ((1,), (0, 2), (1,))

    def test_full_vertex_set(self, petersen):
        H, vmap = induced_subgraph(petersen, range(10))
        assert H == petersen and vmap == tuple(range(10))

    def test_k4_triangle(self):
        K4 = build_graph(4, list(combinations(range(4), 2)))
        H, vmap = induced_subgraph(K4, [3, 1, 0])
        assert vmap == (0, 1, 3)
        assert H.edge_count == 3 and metric_summary(H).girth == 3


def test_is_connected_and_triangle_free(c8):
    assert is_connected(c8)
    assert is_triangle_free(c8)
    assert not is_connected(build_graph(3, [(0, 1)]))
    K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_triangle_free(K3)


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for H in graphs:
        edges += [(u + offset, w + offset) for u, w in H.edges()]
        offset += H.n
    return build_graph(offset, edges)


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


_K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("G", [
    # bipartite
    cycle(8), _K33, _HEAWOOD, glue_cycle(_HEAWOOD, 4), projective_plane_incidence_graph(3),
    symplectic_quadrangle_incidence_graph(2), build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
    build_graph(0, []), build_graph(4, []), _disjoint_union(cycle(4), cycle(6)),
    # not bipartite
    cycle(9), _petersen(), glue_cycle(_petersen(), 10), _K3, _K4_MINUS_EDGE,
    build_graph(4, list(combinations(range(4), 2))), circulant(12, (1, 5, 6)), circulant(13, (1, 5)),
    _disjoint_union(cycle(4), _K3), _disjoint_union(cycle(6), cycle(5)), _disjoint_union(_K33, cycle(7)),
] + [_random_graph(n, p, seed) for n, p in ((9, 0.3), (12, 0.15)) for seed in range(12)])
def test_triangle_free_agrees_with_the_per_edge_test(G):
    per_edge = all(not set(G.adj[u]) & set(G.adj[w]) for u, w in G.edges())
    assert is_triangle_free(fresh(G)) == per_edge == (naive_girth(G.n, list(G.edges())) > 3)
