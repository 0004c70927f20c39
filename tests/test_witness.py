import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radgraph import (
    BoundReport,
    WitnessValidationError,
    ball,
    bfs,
    bipartite_radius2,
    box_graph,
    build_graph,
    check_witness_general,
    check_witness_triangle_free,
    check_witness_two_cycles,
    find_witness,
    from_graph6,
    glue_cycle,
    metric_summary,
    projective_plane_incidence_graph,
    symplectic_quadrangle_incidence_graph,
)
import radgraph.graph as graph_module
import radgraph.witness as witness_module
from radgraph.graph import _shift_period_of, _spheres
from radgraph.witness import _compatible_masks, _witness_ceiling
from conftest import barbell, cycle
from geodesic_patterns import (
    check_easycases_instantiation,
    easycases_configuration,
    easycases_pattern,
    geodesic_pair,
    upper_bound_witness_pattern,
    validate_geodesic_observations,
)
from oracles import find_witness_reference, floyd_distances, max_general_witness_size
from test_graph import TestShiftPeriod as ShiftPeriodCases, circulant


class TestGeneralWitness:
    def test_c8_antipodal(self, c8):
        rep = check_witness_general(c8, [0, 4], 2)
        assert rep.passed and rep.claimed == 4 and rep.measured == 8

    def test_c8_spheres_are_expected_sets(self, c8):
        from radgraph import sphere

        assert sphere(c8, 0, 1) == {1, 7}
        assert sphere(c8, 4, 1) == {3, 5}

    def test_c8_distance_two_rejected(self, c8):
        with pytest.raises(WitnessValidationError) as err:
            check_witness_general(c8, [0, 2], 2)
        assert err.value.pair == (0, 2)

    def test_heawood_adjacent_pair(self, heawood_lcf):
        u, v = next(iter(heawood_lcf.edges()))
        rep = check_witness_general(heawood_lcf, [u, v], 3)
        assert rep.claimed == 12 and rep.measured == 14 and rep.passed

    def test_odd_size_gets_plus_one(self, heawood_lcf):
        rep = check_witness_general(heawood_lcf, [0], 3)
        assert rep.claimed == 6 + 1

    def test_girth_precondition(self, petersen):
        with pytest.raises(ValueError):
            check_witness_general(petersen, [0, 7], 3)  # girth 5 < 6

    def test_kind_tag(self, c8):
        rep = check_witness_general(c8, [0, 4], 2)
        assert rep.kind == "witness-general"


class TestBoundReport:
    def test_json_shape(self):
        rep = BoundReport("witness-general", (0, 4), 8, 8)
        assert rep.to_json_dict() == {
            "kind": "witness-general",
            "claimed": 8,
            "measured": 8,
            "pass": True,
            "witness": [0, 4],
        }
        assert not BoundReport("witness-general", (0, 4), 9, 8).passed


class TestTriangleFreeWitness:
    def test_c8_valid_quadruple(self, c8):
        rep = check_witness_triangle_free(c8, [0, 1, 4, 5])
        assert rep.passed and rep.claimed == 8

    def test_c8_distance_two_pair(self, c8):
        with pytest.raises(WitnessValidationError) as err:
            check_witness_triangle_free(c8, [0, 2])
        assert err.value.pair == (0, 2)

    def test_k35_adjacent_pair(self):
        G = bipartite_radius2(8, 3)
        rep = check_witness_triangle_free(G, [0, 3])
        assert rep.claimed == 6 and rep.measured == 8 and rep.passed

    def test_triangle_rejected(self):
        K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            check_witness_triangle_free(K3, [0])

    def test_same_side_pair_rejected(self):
        # in complete bipartite graphs any same-side pair sits at distance 2
        G = bipartite_radius2(12, 3)
        with pytest.raises(WitnessValidationError):
            check_witness_triangle_free(G, [0, 1, 2])

    def test_ceiling_in_bound(self, heawood_lcf):
        # delta = 3 and |T| = 3 make the bound 2*ceil(9/2) = 10
        from itertools import combinations

        G = glue_cycle(heawood_lcf, 2)
        dist = {v: bfs(G, v) for v in range(G.n)}
        triple = next(
            t
            for t in combinations(range(G.n), 3)
            if all(dist[u][w] != 2 for u, w in combinations(t, 2))
        )
        rep = check_witness_triangle_free(G, triple)
        assert rep.claimed == 10 and rep.measured == 28 and rep.passed


class TestTwoCyclesWitness:
    def test_c8_full_vertex_set(self, c8):
        rep = check_witness_two_cycles(c8, range(8), 4)
        assert rep.passed and rep.claimed == 8

    def test_c16_broken_structure(self):
        G = cycle(16)
        with pytest.raises(WitnessValidationError) as err:
            check_witness_two_cycles(G, [0, 2, 4, 6, 1, 3, 5, 7], 4)
        assert "not two disjoint 4-cycles" in str(err.value)

    def test_wrong_size_rejected(self, c8):
        with pytest.raises(WitnessValidationError):
            check_witness_two_cycles(c8, range(6), 4)

    def test_larger_even_cycles(self):
        for r in (4, 5, 6, 9):
            G = cycle(2 * r)
            rep = check_witness_two_cycles(G, range(2 * r), r)
            assert rep.passed and rep.claimed == 2 * r

    def test_small_r_rejected(self, c8):
        with pytest.raises(ValueError):
            check_witness_two_cycles(c8, range(8), 3)


class TestFindWitness:
    def test_c12_matches_exhaustive_maximum(self):
        G = cycle(12)
        ws = find_witness(G, 2)
        assert len(ws.vertices) == max_general_witness_size(12, list(G.edges()), 2)
        assert len(ws.vertices) >= 4

    def test_k33_at_least_an_edge(self):
        G = bipartite_radius2(6, 3)
        ws = find_witness(G, 2)
        assert len(ws.vertices) >= 2

    def test_zero_budget_still_valid(self, heawood_lcf):
        ws = find_witness(heawood_lcf, 3, budget=0)
        rep = check_witness_general(heawood_lcf, ws.vertices, 3)
        assert rep.vertices == ws.vertices
        assert len(ws.vertices) >= 1

    def test_returns_the_general_report_of_its_set(self, heawood_lcf):
        ws = find_witness(heawood_lcf, 3)
        assert ws == check_witness_general(heawood_lcf, ws.vertices, 3)
        assert ws.kind == "witness-general"

    def test_deterministic(self):
        G = glue_cycle(projective_plane_incidence_graph(2), 3)
        assert find_witness(G, 3).vertices == find_witness(G, 3).vertices

    def test_long_cycle_needs_no_deep_recursion(self):
        G = cycle(3000)
        ws = find_witness(G, 2, budget=10**4)
        rep = check_witness_general(G, ws.vertices, 2)
        assert rep.passed and rep.vertices == ws.vertices

    def test_budget_result_never_beats_full_search(self):
        G = cycle(20)
        full = find_witness(G, 2)
        limited = find_witness(G, 2, budget=50)
        assert len(limited.vertices) <= len(full.vertices)
        check_witness_general(G, limited.vertices, 2)

    def test_negative_budget_rejected(self, c8):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            find_witness(c8, 2, budget=-5)

    def test_girth_below_2k_rejected_before_the_search(self, petersen, monkeypatch):
        def compatible(*args):
            raise AssertionError("_compatible_masks ran before the girth check")

        monkeypatch.setattr(witness_module, "_compatible_masks", compatible)
        with pytest.raises(ValueError, match="girth 5 is below the required 6"):
            find_witness(petersen, 3)

    def test_dense_cage_takes_its_girth_from_the_ball_pass(self, monkeypatch):
        # PG(2,3): 2 * ecc(0) = 6 <= 13 shift-orbit representatives
        G = projective_plane_incidence_graph(3)

        def girth(*args):
            raise AssertionError("per-root girth BFS ran")

        monkeypatch.setattr(graph_module, "_girth", girth)
        ws = find_witness(G, 3)
        assert ws.passed and metric_summary(G).girth == 6


@st.composite
def graphs_with_girth_2k(draw):
    """(G, k) with G on at most 12 vertices and girth >= 2k: a drawn run of
    candidate pairs, each kept only when its ends are still at distance
    >= 2k - 1, so that it closes no cycle shorter than 2k."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(2, 4))
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    edges = []
    for u, w in pairs[:draw(st.integers(0, len(pairs)))]:
        if floyd_distances(n, edges)[u][w] >= 2 * k - 1:
            edges.append((u, w))
    return build_graph(n, edges), k


@settings(max_examples=80, deadline=None)
@given(graphs_with_girth_2k())
def test_find_witness_is_maximum_property(case):
    G, k = case
    ws = find_witness(G, k)
    assert len(ws.vertices) == max_general_witness_size(G.n, list(G.edges()), k)


def assert_matches_reference(G, k):
    for budget in (0, 1, 5, 50, 10**4):
        want = find_witness_reference(G.n, list(G.edges()), k, budget)
        assert find_witness(G, k, budget).vertices == want, budget


@settings(max_examples=60, deadline=None)
@given(graphs_with_girth_2k())
def test_find_witness_matches_reference_property(case):
    assert_matches_reference(*case)


PETERSEN = from_graph6("IheA@GUAo")
RING_BASES = {
    "pg22": (projective_plane_incidence_graph(2), 3),
    "w2": (symplectic_quadrangle_incidence_graph(2), 4),
    "petersen": (PETERSEN, 2),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(RING_BASES)), st.integers(2, 4))
def test_find_witness_matches_reference_on_rings(base, m):
    H, k = RING_BASES[base]
    assert_matches_reference(glue_cycle(H, m), k)


def _relabelled(G, seed):
    perm = random.Random(seed).sample(range(G.n), G.n)
    return build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


class TestCompatibleMasks:
    """``_compatible_masks`` sweeps the shift-orbit representatives only and
    rotates their masks along the shift onto the other vertices."""

    @staticmethod
    def swept(G, k):
        """One mask per vertex, each from its own ball: the vertices
        adjacent to v or outside ball(v, 2k - 2)."""
        full = (1 << G.n) - 1
        return [full ^ sum(1 << w for w in ball(G, v, 2 * k - 2) - set(G.adj[v])) for v in range(G.n)]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("G", ShiftPeriodCases.GRAPHS)
    def test_rotated_masks_match_every_sweep(self, G, k):
        assert _compatible_masks(G, k) == self.swept(G, k)

    @pytest.mark.parametrize("G,period", [
        (build_graph(0, []), 0),
        (circulant(10, [2]), 1),  # two disjoint 5-cycles, on the even and the odd labels
        (build_graph(30, [(u + 10 * i, v + 10 * i) for i in range(3) for u, v in PETERSEN.edges()]), 10),
        (_relabelled(glue_cycle(projective_plane_incidence_graph(2), 40), 26), 560),
    ], ids=["empty", "two_c5", "three_petersens", "relabelled_heawood_x40"])
    def test_rotated_masks_at_the_edges(self, G, period):
        assert _shift_period_of(G) == period
        for k in (2, 3):
            assert _compatible_masks(G, k) == self.swept(G, k)

    @pytest.mark.parametrize("G,k,period", [
        (glue_cycle(projective_plane_incidence_graph(2), 200), 3, 14),
        (glue_cycle(symplectic_quadrangle_incidence_graph(2), 30), 4, 30),
        (cycle(2000), 3, 1),
    ], ids=["heawood_x200", "tutte_coxeter_x30", "C_2000"])
    def test_one_sweep_per_orbit(self, monkeypatch, G, k, period):
        calls = []

        def spy(G, v, k):
            calls.append(v)
            return _spheres(G, v, k)

        # the depth-bounded BFS behind ``ball``, and check_witness_general's own
        monkeypatch.setattr(graph_module, "_spheres", spy)
        monkeypatch.setattr(witness_module, "_spheres", spy)
        masks = _compatible_masks(G, k)
        assert calls == list(range(period))
        assert masks == self.swept(G, k)
        calls.clear()
        ws = find_witness(G, k, budget=10**4)
        # the mask build, then check_witness_general's one sweep per member of T
        assert calls == list(range(period)) + list(ws.vertices)


def witness_ceiling(G, k):
    return _witness_ceiling(_compatible_masks(G, k))


class TestWitnessCeiling:
    @settings(max_examples=80, deadline=None)
    @given(graphs_with_girth_2k())
    def test_bounds_the_exhaustive_maximum(self, case):
        G, k = case
        assert witness_ceiling(G, k) >= max_general_witness_size(G.n, list(G.edges()), k)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_tight_on_glued_heawood(self, m):
        G = glue_cycle(projective_plane_incidence_graph(2), m)
        assert witness_ceiling(G, 3) == len(find_witness(G, 3).vertices) == 2 * m

    @pytest.mark.parametrize("m", range(2, 5))
    def test_tight_on_glued_tutte_coxeter(self, m):
        G = glue_cycle(symplectic_quadrangle_incidence_graph(2), m)
        assert witness_ceiling(G, 4) == len(find_witness(G, 4).vertices) == 2 * m

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tight_on_cycles_of_length_4n(self, n):
        # on C_(4n+2) the conflict graph is two odd cycles and the ceiling is
        # two above the maximum, so only lengths divisible by four are tight
        G = cycle(4 * n)
        assert witness_ceiling(G, 2) == len(find_witness(G, 2).vertices) == 2 * n

    def test_loose_on_glued_petersen(self):
        G = glue_cycle(PETERSEN, 10)
        assert witness_ceiling(G, 2) == 30
        assert len(find_witness(G, 2).vertices) == 26

    def test_empty_graph(self):
        assert witness_ceiling(build_graph(0, []), 2) == 0


@settings(max_examples=150, deadline=None)
@given(graphs_with_girth_2k(), st.data())
def test_check_witness_general_property(case, data):
    G, k = case
    T = sorted(data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)))
    dist = floyd_distances(G.n, list(G.edges()))
    bad = [(u, w) for u, w in combinations(T, 2) if dist[u][w] != 1 and dist[u][w] < 2 * k - 1]
    if bad:
        with pytest.raises(WitnessValidationError) as err:
            check_witness_general(G, T, k)
        assert err.value.pair in bad
    else:
        assert check_witness_general(G, T, k).vertices == tuple(T)


def girth_graph(n, k, seed):
    """Seeded random graph on n vertices with girth >= 2k, and its distance
    table: a random share of the shuffled vertex pairs, each kept only while
    its ends are at distance >= 2k - 1, with the table updated per edge."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    dist = [[0 if a == b else float("inf") for b in range(n)] for a in range(n)]
    edges = []
    for u, w in pairs[:rng.randint(n // 2, len(pairs))]:
        if dist[u][w] >= 2 * k - 1:
            edges.append((u, w))
            for a in range(n):
                for b in range(n):
                    dist[a][b] = min(dist[a][b], dist[a][u] + 1 + dist[w][b], dist[a][w] + 1 + dist[u][b])
    assert dist == floyd_distances(n, edges)
    return build_graph(n, edges), dist


def random_sets(n, seed):
    rng = random.Random(seed)
    return [sorted(rng.sample(range(n), rng.randint(2, n))) for _ in range(6)]


class TestCheckFailures:
    """Which pair a failing check names, its message, and which of several
    faults in one call is reported."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_general_names_the_first_clash(self, seed, k):
        G, dist = girth_graph(10 + seed % 7, k, 500 + seed)
        outcomes = set()
        for T in random_sets(G.n, seed):
            clashes = [(u, w) for u, w in combinations(T, 2) if 2 <= dist[u][w] < 2 * k - 1]
            if not clashes:
                assert check_witness_general(G, T, k).vertices == tuple(T)
                outcomes.add("pass")
                continue
            u, w = clashes[0]  # the lowest u with a clash, then its lowest w
            with pytest.raises(WitnessValidationError) as err:
                check_witness_general(G, T, k)
            assert err.value.pair == (u, w) and err.value.kind == "witness-general"
            assert str(err.value) == f"vertices {u} and {w} are non-adjacent at distance {dist[u][w]} < {2 * k - 1}"
            outcomes.add("fail")
        assert "fail" in outcomes

    @pytest.mark.parametrize("seed", range(12))
    def test_triangle_free_names_the_first_pair_at_distance_two(self, seed):
        G, dist = girth_graph(8 + seed % 9, 2, 700 + seed)
        for T in random_sets(G.n, seed):
            pairs = [(u, w) for u, w in combinations(T, 2) if dist[u][w] == 2]
            if not pairs:
                assert check_witness_triangle_free(G, T).vertices == tuple(T)
                continue
            with pytest.raises(WitnessValidationError) as err:
                check_witness_triangle_free(G, T)
            assert err.value.pair == pairs[0] and err.value.kind == "witness-triangle-free"
            assert str(err.value) == "vertices {} and {} are at distance exactly 2".format(*pairs[0])

    @pytest.mark.parametrize("seed", range(12))
    def test_two_cycles_message_matches_the_distance_table(self, seed):
        G, dist = girth_graph(12 + seed % 5, 2, 900 + seed)
        r = 4 + seed % 3
        U = sorted(random.Random(seed).sample(range(G.n), 2 * r))
        nbrs = {u: {w for w in U if dist[u][w] == 2} for u in U}
        sizes, rest = [], set(U)
        while rest:
            comp = {min(rest)}
            while frontier := set().union(*(nbrs[u] for u in comp)) - comp:
                comp |= frontier
            sizes.append(len(comp))
            rest -= comp
        degrees = sorted(len(nbrs[u]) for u in U)
        if sizes == [r, r] and degrees[0] == degrees[-1] == 2:
            assert check_witness_two_cycles(G, U, r).vertices == tuple(U)
            return
        with pytest.raises(WitnessValidationError) as err:
            check_witness_two_cycles(G, U, r)
        assert err.value.pair is None and str(err.value) == (
            f"auxiliary distance-2 graph is not two disjoint {r}-cycles: component sizes "
            f"{sorted(sizes)}, degrees range {degrees[0]}..{degrees[-1]}")

    @staticmethod
    def raised(check, *args):
        with pytest.raises(ValueError) as err:
            check(*args)
        return type(err.value).__name__, str(err.value)

    def test_fault_order(self, c8, petersen):
        triangle = build_graph(5, [(0, 1), (1, 2), (0, 2)])
        # a triangle, an out-of-range vertex and a wrong set size together
        assert self.raised(check_witness_triangle_free, triangle, [0, 9]) == (
            "ValueError", "graph contains a triangle")
        assert self.raised(check_witness_two_cycles, triangle, [0, 9], 4) == (
            "ValueError", "graph contains a triangle")
        assert self.raised(check_witness_two_cycles, triangle, [0, 9], 3) == (
            "ValueError", "need cycle length r >= 4, got 3")
        # no triangle: the out-of-range vertex, then the set size
        assert self.raised(check_witness_triangle_free, c8, [0, 9]) == (
            "ValueError", "vertex 9 out of range for graph on 8 vertices")
        assert self.raised(check_witness_two_cycles, c8, [0, 9], 4) == (
            "ValueError", "vertex 9 out of range for graph on 8 vertices")
        assert self.raised(check_witness_two_cycles, c8, [0, 2, 2], 4) == (
            "WitnessValidationError", "witness has 2 distinct vertices, need exactly 2r = 8")
        # the general check: k, then the girth, then the vertices
        assert self.raised(check_witness_general, petersen, [0, 99], 1) == (
            "ValueError", "need k >= 2, got 1")
        assert self.raised(check_witness_general, petersen, [0, 99], 3) == (
            "ValueError", "girth 5 is below the required 6")
        assert self.raised(check_witness_general, c8, [0, 99, 2], 2) == (
            "ValueError", "vertex 99 out of range for graph on 8 vertices")


class TestEasycasesPattern:
    def test_r8_t0(self):
        assert easycases_pattern(8, 0) == ((3, 4, 7, 8), (3, 4, 7, 8))

    def test_r9_t0(self):
        assert easycases_pattern(9, 0) == ((0, 4, 5, 8, 9), (4, 5, 8, 9))

    def test_r10_t3(self):
        assert easycases_pattern(10, 3) == ((1, 2, 5, 6, 9, 10), (2, 3, 6, 7))

    def test_r4_t1_degenerate_pairs(self):
        assert easycases_pattern(4, 1) == ((0, 3, 4), (3,))

    @pytest.mark.parametrize("r", range(4, 22))
    @pytest.mark.parametrize("t", range(4))
    def test_total_size_is_r(self, r, t):
        valid = (r % 4 in (0, 2)) or (r % 4 == 1 and t <= 2)
        if not valid:
            with pytest.raises(ValueError):
                easycases_pattern(r, t)
            return
        unprimed, primed = easycases_pattern(r, t)
        assert len(unprimed) + len(primed) == r
        assert all(0 <= i <= r for i in unprimed)
        assert all(0 <= j <= r - t for j in primed)
        assert sorted(set(unprimed)) == list(unprimed)
        assert sorted(set(primed)) == list(primed)

    def test_out_of_table_rejected(self):
        for bad in [(7, 0), (11, 2), (9, 3), (8, 4), (10, -1), (3, 0)]:
            with pytest.raises(ValueError):
                easycases_pattern(*bad)


class TestEasycasesInstantiation:
    @pytest.mark.parametrize("r", [4, 6, 8, 10, 12, 14])
    def test_cycle_configuration_t3(self, r):
        # the selection rule on C_2r yields t = 3 and the table rows apply
        G = cycle(2 * r)
        path, vprime_path = easycases_configuration(G)
        t = len(path) - len(vprime_path)
        assert t == 3
        rep = check_easycases_instantiation(G, path, vprime_path)
        assert rep.passed
        assert rep.claimed == 2 * ((2 * len(path) - 2 + 1) // 2) == 2 * r

    @pytest.mark.parametrize("r,delta", [(4, 3), (8, 3), (8, 4), (10, 5), (6, 2)])
    def test_box_configuration(self, r, delta):
        G = box_graph(r, delta, 1)
        path, vprime_path = easycases_configuration(G)
        t = len(path) - len(vprime_path)
        assert t == 3
        rep = check_easycases_instantiation(G, path, vprime_path)
        assert rep.passed

    def test_longer_second_path_rejected_by_the_pattern(self):
        # a negative shift is outside the pattern table
        G = cycle(20)
        with pytest.raises(ValueError, match=r"no pattern for r = 5 .* t = -2"):
            check_easycases_instantiation(G, tuple(range(6)), (0, *range(19, 12, -1)))

    def test_hard_residue_rejected(self):
        # r = 4k+1 with shift 3 is outside the table
        G = box_graph(9, 3, 1)
        path, vprime_path = easycases_configuration(G)
        with pytest.raises(ValueError):
            check_easycases_instantiation(G, path, vprime_path)

    def test_all_admissible_far_vertices_on_barbells(self):
        """Every admissible far-vertex choice yields a valid instantiation.

        The far endpoint may be any vertex at distance >= r+1 from v_3 (or,
        when v_3 is central, at distance exactly r from v_3 but under r from
        v_0); sweeping them all realises the shifts t = 0, 1, 2 across all
        three supported radius residues, complementing the t = 3 rows that
        cycles and box graphs produce.  ``path`` is the one that
        :func:`easycases_configuration` selects.
        """
        from radgraph.graph import _geodesic

        covered = set()
        checked = 0
        for a in range(8, 22, 2):
            for ell in range(0, 3):
                for b in range(max(4, a - 4), a + 3):
                    G = barbell(a, ell, b)
                    ms = metric_summary(G)
                    r = ms.radius
                    if r is None or r < 4 or ms.girth < 4:
                        continue
                    path = easycases_configuration(G)[0]
                    dist0 = bfs(G, path[0])
                    dist3 = bfs(G, path[3])
                    if max(dist3) > r:
                        admissible = [v for v in range(G.n) if dist3[v] >= r + 1]
                    else:
                        admissible = [
                            v for v in range(G.n) if dist3[v] == r and dist0[v] < r
                        ]
                    seen_t = set()
                    for vprime in admissible:
                        t = r - dist0[vprime]
                        if t in seen_t:
                            continue
                        seen_t.add(t)
                        try:
                            easycases_pattern(r, t)
                        except ValueError:
                            continue
                        vp = tuple(_geodesic(G, dist0, vprime))
                        rep = check_easycases_instantiation(G, path, vp)
                        assert rep.passed, (a, ell, b, r, t)
                        covered.add((r % 4, t))
                        checked += 1
        assert checked >= 200
        for residue in (0, 1, 2):
            for t in (0, 1, 2):
                assert (residue, t) in covered

    def test_centre_is_least_count_on_the_families(self):
        graphs = [cycle(2 * r) for r in range(4, 15)]
        graphs += [box_graph(r, delta, c) for r in range(4, 11) for delta in (2, 3, 4)
                   for c in (0, 1)]
        graphs += [barbell(a, ell, b) for a in (8, 12, 16) for ell in (0, 2) for b in (6, 10)]
        checked = 0
        for G in graphs:
            if metric_summary(G).radius >= 4:
                assert easycases_configuration(G)[0][0] == least_count_centre(G)
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("m,relabel", [(20, True), (200, False)])
    def test_centre_is_least_count_on_heawood_rings(self, m, relabel):
        G = glue_cycle(projective_plane_incidence_graph(2), m)
        if relabel:  # no label shift is left, so every centre is counted
            perm = random.Random(m).sample(range(G.n), G.n)
            G = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
            assert _shift_period_of(G) == G.n
        assert easycases_configuration(G)[0][0] == least_count_centre(G)


def least_count_centre(G):
    """The centre with the fewest vertices at distance r (ties to the lowest),
    counted from every centre."""
    ms = metric_summary(G)
    return min((bfs(G, c).count(ms.radius), c) for c in ms.centers)[1]


class TestUpperBoundWitnessPattern:
    def test_r12_k3(self):
        assert upper_bound_witness_pattern(12, 3, 0) == ((0, 1, 6, 7, 12), (6,))

    def test_degenerate_r_equals_2k(self):
        unprimed, primed = upper_bound_witness_pattern(6, 3, 0)
        assert unprimed == (0, 1, 6) and primed == ()

    def test_r20_k2_sizes(self):
        unprimed, primed = upper_bound_witness_pattern(20, 2, 1)
        assert len(unprimed) == 6 + 5 and len(primed) == 4 + 3
        assert len(unprimed) + len(primed) == 18 >= 2 * 20 // 2 - 6

    def test_r_below_2k_rejected(self):
        with pytest.raises(ValueError):
            upper_bound_witness_pattern(5, 3, 0)

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            upper_bound_witness_pattern(12, 3, 7)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_instantiates_on_glued_cages(self, m):
        k = 3
        G = glue_cycle(projective_plane_incidence_graph(2), m)
        path, vpath = geodesic_pair(G, 2 * k)
        r = len(path) - 1
        unprimed, primed = upper_bound_witness_pattern(r, k, len(path) - len(vpath))
        T = [path[i] for i in unprimed] + [vpath[j] for j in primed]
        assert len(set(T)) == len(T)
        rep = check_witness_general(G, T, k)
        assert rep.passed
        assert len(T) >= 2 * r / k - 6


class TestGeodesicObservations:
    def test_c20_valid_configuration(self):
        # m = 5 forces the far vertex to the antipode 15 of v_5, giving t = 5
        G = cycle(20)
        path, vprime_path = geodesic_pair(G, 5)
        assert path == tuple(range(11))
        assert vprime_path == tuple((-j) % 20 for j in range(6))
        rep = validate_geodesic_observations(G, path, 5, vprime_path)
        assert rep.passed and rep.t == 5 and rep.far_distance == 10 == rep.r

    def test_negative_m_below_shift(self):
        # with m < t the triangle inequality forces a violation
        G = cycle(20)
        path = tuple(range(11))
        vprime_path = tuple((-j) % 20 for j in range(6))  # t = 5
        rep = validate_geodesic_observations(G, path, 4, vprime_path)
        assert not rep.passed
        assert any("exceeds" in v for v in rep.violations)
        assert any("< r =" in v for v in rep.violations)

    def test_each_violation_class_is_reported(self):
        # v' = 3 sits two steps from v_1, the shift is 7 and the paths share
        # v_2 and v_3 beyond the prefix bound m + r - t - D = 2
        G = cycle(20)
        rep = validate_geodesic_observations(G, tuple(range(11)), 1, (0, 1, 2, 3))
        assert not rep.passed and (rep.t, rep.far_distance) == (7, 2)
        for marker in ("< r =", "exceeds", "coincides"):
            assert any(marker in v for v in rep.violations), marker

    def test_box_graph_configuration(self):
        G = box_graph(6, 2, 0)
        path, vpath = geodesic_pair(G, 3)
        rep = validate_geodesic_observations(G, path, 3, vpath)
        assert rep.passed

    def test_structural_violation_raises(self):
        G = cycle(20)
        path = tuple(range(11))
        with pytest.raises(ValueError):
            validate_geodesic_observations(G, path, 0, path)  # m out of range
        with pytest.raises(ValueError):
            # not a path: jump in the sequence
            validate_geodesic_observations(G, (0, 2, 4), 1, (0, 19))
        with pytest.raises(ValueError):
            # not a true centre configuration: path shorter than the radius
            validate_geodesic_observations(G, (0, 1, 2), 1, (0, 19, 18))
