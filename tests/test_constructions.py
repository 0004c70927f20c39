import random
from unittest.mock import patch

import pytest

from radgraph import (
    SUPPORTED_ORDERS,
    ball,
    bfs,
    bipartite_radius2,
    box_graph,
    box_spec,
    build_graph,
    extract_dense_subgraph,
    glue_cycle,
    is_connected,
    metric_summary,
    projective_plane_incidence_graph,
    radius3_graph,
    symplectic_quadrangle_incidence_graph,
)
from radgraph import cli
from radgraph.graph import _girth_of
from conftest import cycle
from oracles import floyd_distances, naive_bridges

PARSER = cli._build_parser()


def construct(kind, words):
    """The graph that ``radgraph construct <kind> <words>`` builds, with
    ``glue`` reading its base as the Heawood graph, and the parsed arguments."""
    args = PARSER.parse_args(["construct", kind, *words.split()])
    with patch.object(cli, "_load_graph", lambda path: projective_plane_incidence_graph(2)):
        return cli._FAMILIES[kind]["build"](args), args


def check_row(kind, words):
    """Build ``construct <kind> <words>`` and check it and its rings of 2 and
    3 copies against the closed forms of the kind's row in ``cli._FAMILIES``."""
    G, args = construct(kind, words)
    row, ms = cli._FAMILIES[kind], metric_summary(G)
    n, degree, girth, radius = row["facts"](args)
    assert (G.n, ms.min_degree, _girth_of(G), ms.radius, ms.diameter) == (n, degree, girth, radius, radius)
    for m in (2, 3):
        ring = glue_cycle(G, m)
        assert metric_summary(ring).radius == row["ring"](args, m), m
        assert _girth_of(ring) >= girth, m


# each row's sample, and PG(2,q) and W(q) at every other supported q <= 9
@pytest.mark.parametrize("kind,words", [
    *((kind, row["sample"]) for kind, row in cli._FAMILIES.items() if "facts" in row),
    *((kind, f"--q {q}") for kind in ("pg-plane", "gq") for q in sorted(SUPPORTED_ORDERS) if 2 < q <= 9)])
def test_family_row_holds(kind, words):
    check_row(kind, words)


def cut_edge(H):
    """The edge of H that ``glue_cycle`` deletes, read off copy 0 of a
    two-copy ring: the one base edge missing among vertices 0..n-1."""
    G = glue_cycle(H, 2)
    kept = {(u, v) for u, v in G.edges() if v < H.n}
    (missing,) = set(H.edges()) - kept
    return missing


def random_base(seed):
    """A random connected graph with minimum degree >= 2 and, usually,
    bridges: blobs (a cycle plus random chords) joined in a random tree by
    single edges, then relabelled at random, half the time so that a bridge
    becomes the smallest edge (0, 1)."""
    rng = random.Random(seed)
    edges, joins = [], []
    n = 0
    for b in range(rng.randint(1, 4)):
        size = rng.randint(3, 6)
        edges += [(n + i, n + (i + 1) % size) for i in range(size)]
        edges += [(n + i, n + j) for i in range(size) for j in range(i + 2, size)
                  if rng.random() < 0.2]
        if b:
            joins.append((rng.randrange(n), n + rng.randrange(size)))
        n += size
    order = list(range(n))
    rng.shuffle(order)
    if joins and rng.random() < 0.5:
        a, b = rng.choice(joins)
        order.remove(a)
        order.remove(b)
        order[:0] = [a, b]
    label = {v: i for i, v in enumerate(order)}
    return build_graph(n, [(label[u], label[v]) for u, v in edges + joins])


class TestBoxGraph:
    def test_spec_layout(self):
        sizes = box_spec(5, 3, 2)
        assert len(sizes) == 10
        assert sum(sizes) == 2 * ((5 * 3 + 1) // 2) + 2
        big, small = 2, 1
        for i, size in enumerate(sizes):
            floor = big if i % 4 in (0, 1) else small
            assert size >= floor

    def test_degenerates_to_cycle(self):
        G = box_graph(4, 2, 0)
        assert G == cycle(8)
        assert metric_summary(G).radius == 4

    @pytest.mark.parametrize(
        "r,delta,c", [(4, 2, 1), (5, 3, 1), (4, 4, 0), (6, 5, 5), (7, 2, 0), (4, 8, 8)]
    )
    def test_counts_degree_girth_radius(self, r, delta, c):
        check_row("box", f"--r {r} --delta {delta} --c {c}")

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            box_graph(3, 3, 0)
        with pytest.raises(ValueError):
            box_graph(5, 1, 0)
        with pytest.raises(ValueError):
            box_graph(5, 3, -1)


class TestBipartiteRadius2:
    def test_c4(self):
        assert bipartite_radius2(4, 2).edge_count == 4
        assert metric_summary(bipartite_radius2(4, 2)).radius == 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            bipartite_radius2(5, 3)


class TestRadius3Graph:
    @pytest.mark.parametrize("n,delta", [(8, 3), (6, 2), (12, 4), (9, 3)])
    def test_metrics(self, n, delta):
        check_row("radius3", f"--n {n} --delta {delta}")

    def test_boundary_is_cycle(self):
        # K_{3,3} minus a perfect matching is exactly the 6-cycle
        G = radius3_graph(6, 2)
        ms = metric_summary(G)
        assert (G.edge_count, ms.girth) == (6, 6)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            radius3_graph(7, 3)


class TestGlueCycle:
    def test_c6_three_copies_is_c18(self):
        G = glue_cycle(cycle(6), 3)
        ms = metric_summary(G)
        assert G.n == 18 and ms.radius == 9 and ms.girth == 18
        assert set(G.degrees()) == {2}

    def test_heawood_glue(self):
        H = projective_plane_incidence_graph(2)
        G = glue_cycle(H, 4)
        ms = metric_summary(G)
        assert G.n == 56
        assert ms.min_degree == 3
        assert ms.girth >= 6
        assert ms.radius >= (4 * 6) // 2

    def test_tutte_coxeter_glue(self):
        H = symplectic_quadrangle_incidence_graph(2)
        G = glue_cycle(H, 3)
        ms = metric_summary(G)
        assert G.n == 90 and ms.min_degree == 3 and ms.girth >= 8
        assert ms.radius >= 12

    def test_cut_edge_distance_after_deletion(self):
        # removing the cut edge leaves its endpoints at distance >= girth-1
        for H in (projective_plane_incidence_graph(2), cycle(6),
                  symplectic_quadrangle_incidence_graph(2)):
            g = metric_summary(H).girth
            v, w = cut_edge(H)
            rest = [e for e in H.edges() if e != (v, w)]
            Hprime = build_graph(H.n, rest)
            assert is_connected(Hprime)
            assert bfs(Hprime, v)[w] >= g - 1

    def test_cut_edge_is_lex_smallest_non_bridge(self):
        # a triangle with a pendant path: (0,3) and (3,4) are bridges
        H = build_graph(5, [(0, 3), (3, 4), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            glue_cycle(H, 2)  # min degree 1
        assert cut_edge(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == (0, 1)
        # triangles {0,4,5} and {1,2,3} joined by the bridge (0,1), the smallest edge
        H = build_graph(6, [(0, 1), (0, 4), (0, 5), (4, 5), (1, 2), (2, 3), (1, 3)])
        assert cut_edge(H) == (0, 4)

    @pytest.mark.parametrize("seed", range(40))
    def test_cut_edge_matches_bridge_oracle(self, seed):
        H = random_base(seed)
        assert is_connected(H) and min(H.degrees()) >= 2
        cut = naive_bridges(H.n, list(H.edges()))
        assert cut_edge(H) == min(e for e in H.edges() if e not in cut)

    def test_degree_multiset_preserved(self):
        H = projective_plane_incidence_graph(2)
        G = glue_cycle(H, 5)
        assert sorted(G.degrees()) == sorted(H.degrees() * 5)

    def test_forest_rejected(self):
        # cycle plus hanging cycle keeps min degree 2 but a tree does not
        tree = build_graph(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            glue_cycle(tree, 2)

    def test_too_few_copies_rejected(self):
        with pytest.raises(ValueError):
            glue_cycle(cycle(6), 1)

    def test_disconnected_rejected(self):
        G = build_graph(8, [(i, (i + 1) % 4) for i in range(4)]
                        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        with pytest.raises(ValueError):
            glue_cycle(G, 2)


class TestExtractDenseSubgraph:
    def test_c12_k2(self):
        G = cycle(12)
        res = extract_dense_subgraph(G, 2)
        # independent check: every radius-2 ball on a cycle has 5 vertices
        dist = floyd_distances(12, list(G.edges()))
        for i, v in enumerate(res.geodesic):
            assert set(res.geodesic[max(0, i - 1):i + 2]) <= set(range(12))
        assert res.subgraph.n == 5 <= res.vertex_bound == (5 * 12) // 7
        assert res.subgraph.edge_count == 4 >= res.edge_bound == 2

    def test_geodesic_is_shortest_path(self):
        G = glue_cycle(projective_plane_incidence_graph(2), 4)
        res = extract_dense_subgraph(G, 3)
        dist = bfs(G, res.center)
        for i, v in enumerate(res.geodesic):
            assert dist[v] == i
        assert len(res.geodesic) == metric_summary(G).radius + 1

    def test_subgraph_is_chosen_ball(self):
        G = glue_cycle(projective_plane_incidence_graph(2), 6)
        res = extract_dense_subgraph(G, 3)
        Q = ball(G, res.geodesic[res.chosen_index], 3)
        assert set(res.vertex_map) == Q
        sizes = [len(ball(G, v, 3)) for v in res.geodesic]
        assert len(Q) == min(sizes)
        assert sizes[res.chosen_index] == min(sizes)
        assert res.chosen_index == sizes.index(min(sizes))  # a tie goes to the earliest ball

    @pytest.mark.parametrize("n", [8, 9, 40])
    def test_tied_balls_choose_the_first(self, n):
        # every ball on a cycle has 2k + 1 vertices
        assert extract_dense_subgraph(cycle(n), 2).chosen_index == 0

    def test_bounds_hold_on_glued_cages(self):
        for m in (4, 6, 10):
            G = glue_cycle(projective_plane_incidence_graph(2), m)
            res = extract_dense_subgraph(G, 3)
            assert res.subgraph.n <= res.vertex_bound
            assert res.subgraph.edge_count >= res.edge_bound

    def test_ball_multiplicity_bound(self):
        # every vertex lies in at most 2k+1 of the geodesic balls
        k = 3
        G = glue_cycle(projective_plane_incidence_graph(2), 5)
        res = extract_dense_subgraph(G, k)
        total = sum(len(ball(G, v, k)) for v in res.geodesic)
        assert total <= (2 * k + 1) * G.n

    def test_small_girth_rejected(self):
        K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            extract_dense_subgraph(K4, 2)

    def test_disconnected_rejected(self):
        G = build_graph(8, [(i, (i + 1) % 4) for i in range(4)]
                        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        with pytest.raises(ValueError):
            extract_dense_subgraph(G, 2)
