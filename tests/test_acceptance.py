"""Acceptance suite: one test per headline criterion, in order.

Each test prints a single PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Expected values are
exact (integer or rational comparisons) with zero tolerance throughout.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from radgraph import (
    ball,
    bfs,
    bipartite_radius2,
    box_graph,
    build_graph,
    cage_lower_bound,
    check_witness_general,
    check_witness_triangle_free,
    check_witness_two_cycles,
    exact_radius_formula_g4,
    extract_dense_subgraph,
    find_witness,
    glue_cycle,
    metric_summary,
    projective_plane_incidence_graph,
    radius3_graph,
    symplectic_quadrangle_incidence_graph,
    upper_bound_radius,
)
from radgraph.cli import _cpus
from radgraph.search import enumerate_extremal, verify_theorem_main_small
from radgraph.witness import WitnessValidationError
from conftest import barbell, cycle
from geodesic_patterns import (
    check_easycases_instantiation,
    easycases_configuration,
    geodesic_pair,
    upper_bound_witness_pattern,
    validate_geodesic_observations,
)


def _announce(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def heawood():
    return projective_plane_incidence_graph(2)


@pytest.fixture(scope="module")
def tutte_coxeter():
    return symplectic_quadrangle_incidence_graph(2)


@pytest.fixture(scope="module")
def extremal_results():
    """Enumeration results for the full desk-scale grid (witnesses kept)."""
    results = {}
    for delta in (2, 3):
        for n in range(1, 9):
            results[(n, delta)] = enumerate_extremal(n, delta, 4)
    return results


@pytest.fixture(scope="module")
def constructed_corpus(heawood, tutte_coxeter, extremal_results):
    """Graphs produced by every construction surface, for the universal
    upper-bound sweep."""
    graphs = []
    for r in range(4, 21):
        for delta in range(2, 9):
            for c in (0, 1, delta):
                graphs.append(box_graph(r, delta, c))
    for delta in (2, 3, 4):
        for n in range(2 * delta, 2 * delta + 9):
            graphs.append(bipartite_radius2(n, delta))
        for n in range(2 * delta + 2, 2 * delta + 11):
            graphs.append(radius3_graph(n, delta))
    for q in (2, 3, 4, 5):
        graphs.append(projective_plane_incidence_graph(q))
    for q in (2, 3):
        graphs.append(symplectic_quadrangle_incidence_graph(q))
    for m in range(2, 11):
        graphs.append(glue_cycle(heawood, m))
    for m in range(2, 7):
        graphs.append(glue_cycle(tutte_coxeter, m))
    for a in (8, 12, 17):
        for b in (6, 9):
            graphs.append(barbell(a, 2, b))
    for res in extremal_results.values():
        if res.extremal_witness is not None:
            graphs.append(res.extremal_witness)
    return graphs


# ---------------------------------------------------------------------------
# criterion 1: desk-scale reproduction of the exact triangle-free formula


def test_criterion_1_formula_reproduction():
    table = verify_theorem_main_small(8, [2, 3])
    assert table["all_equal"], [r for r in table["rows"] if r["verdict"] != "EQUAL"]
    rows = {(row["n"], row["delta"]): row for row in table["rows"]}
    assert len(rows) == 16
    for (n, delta), row in rows.items():
        assert row["verdict"] == "EQUAL"
        if n < 2 * delta:
            assert row["enumerated"] is None and row["formula"] is None
        elif n <= 2 * delta + 1:
            assert row["enumerated"] == 2
        elif n < 4 * delta:
            assert row["enumerated"] == 3
        else:
            assert row["enumerated"] == row["formula"] >= 3
    _announce(1, "exact formula reproduced by enumeration, n <= 8")


def test_criterion_1_long_run_n9():
    res = enumerate_extremal(9, 2, 4, allow_long=True, jobs=_cpus())
    assert res.max_radius == exact_radius_formula_g4(9, 2) == 4
    _announce(1, "n = 9 long run EQUAL")


# ---------------------------------------------------------------------------
# criterion 2: box construction exactness on the full grid


def test_criterion_2_box_exactness():
    for r in range(4, 21):
        for delta in range(2, 9):
            for c in (0, 1, delta):
                G = box_graph(r, delta, c)
                ms = metric_summary(G)
                assert G.n == 2 * ((r * delta + 1) // 2) + c
                assert ms.min_degree == delta
                assert ms.radius == r
                assert ms.girth >= 4  # triangle-free in every cell
                if delta > 2 or c > 0:
                    assert ms.girth == 4
                else:
                    assert ms.girth == 2 * r  # degenerate plain cycle
    _announce(2, "box graphs exact on [4,20] x [2,8] x {0,1,delta}")


# ---------------------------------------------------------------------------
# criterion 3: cage identities


def test_criterion_3_cage_identities(heawood, tutte_coxeter):
    ms = metric_summary(heawood)
    assert heawood.n == 14 == 2 * (3 * 3 - 3 + 1)
    assert set(heawood.degrees()) == {3}
    assert ms.girth == 6 and ms.radius == 3

    P3 = projective_plane_incidence_graph(3)
    ms3 = metric_summary(P3)
    assert P3.n == 26 == 2 * (4 * 4 - 4 + 1)
    assert set(P3.degrees()) == {4}
    assert ms3.girth == 6

    mst = metric_summary(tutte_coxeter)
    assert tutte_coxeter.n == 30 == 2 * (3**3 - 2 * 9 + 6)
    assert set(tutte_coxeter.degrees()) == {3}
    assert mst.girth == 8
    _announce(3, "incidence cages: 14/3-reg/girth 6, 26/4-reg, 30/3-reg/girth 8")


# ---------------------------------------------------------------------------
# criterion 4: glued cages realise the lower bounds


def test_criterion_4_glue_lower_bounds(heawood, tutte_coxeter):
    for m in range(2, 21):
        G = glue_cycle(heawood, m)
        ms = metric_summary(G)
        assert G.n == 14 * m
        assert ms.girth >= 6
        assert ms.min_degree == 3
        assert ms.radius >= cage_lower_bound(G.n, 3, 6) == Fraction(3 * G.n, 14) - 3
    for m in range(2, 11):
        G = glue_cycle(tutte_coxeter, m)
        ms = metric_summary(G)
        assert G.n == 30 * m
        assert ms.girth >= 8
        assert ms.min_degree == 3
        assert ms.radius >= cage_lower_bound(G.n, 3, 8)
        assert ms.radius >= Fraction(2 * G.n, 30) - 4
    _announce(4, "glued cages beat the girth-6/8 radius lower bounds")


# ---------------------------------------------------------------------------
# criterion 5: the universal upper bound is never violated


def test_criterion_5_universal_upper_bound(constructed_corpus):
    checked = 0
    for G in constructed_corpus:
        ms = metric_summary(G)
        if ms.radius is None or ms.min_degree < 2 or ms.girth == float("inf"):
            continue
        for geven in range(4, int(ms.girth) + 1, 2):
            assert ms.radius <= upper_bound_radius(G.n, ms.min_degree, geven), (
                G, geven,
            )
            checked += 1
    assert checked >= 500
    print(f"  checked {checked} (graph, even girth floor) pairs")
    _announce(5, "radius <= upper bound on every constructed/enumerated graph")


# ---------------------------------------------------------------------------
# criterion 6: the witness-lemma suite over >= 1000 instances


def _mod4_prefix(n):
    # indices < 4*floor(n/4) with residue 0 or 1: pairwise distance on a ring
    # of n vertices is never exactly 2, including around the wrap
    return [i for i in range(4 * (n // 4)) if i % 4 in (0, 1)]


def _spaced_triples(n):
    return list(range(0, n - 2, 3))


def _distance_two_vertex(G, T):
    """A vertex at distance exactly 2 from some member of T, with no edge to
    any member it sits at distance < 2 from -- guaranteed to invalidate."""
    Tset = set(T)
    for t in T:
        d = bfs(G, t)
        for v in range(G.n):
            if v not in Tset and d[v] == 2:
                return t, v
    return None


class Criterion6Harness:
    def __init__(self):
        self.valid = 0
        self.rejected = 0

    def expect_valid(self, fn, *args):
        report = fn(*args)
        assert report.passed, (fn.__name__, args[1:])
        self.valid += 1
        return report

    def expect_rejected(self, G, fn, *args, expect_pair=True):
        with pytest.raises(WitnessValidationError) as err:
            fn(G, *args)
        if expect_pair:
            pair = err.value.pair
            assert pair is not None
            u, w = pair
            d = bfs(G, u)[w]
            if fn is check_witness_triangle_free:
                assert d == 2
            else:
                assert d != 1 and d < 2 * args[1] - 1
        self.rejected += 1

    @property
    def total(self):
        return self.valid + self.rejected


def test_criterion_6_lemma_suite(heawood, tutte_coxeter):
    h = Criterion6Harness()

    # family 1: cycles
    for r in range(4, 29):
        G = cycle(2 * r)
        h.expect_valid(check_witness_general, G, _spaced_triples(2 * r), 2)
        h.expect_valid(check_witness_triangle_free, G, _mod4_prefix(2 * r))
        h.expect_valid(check_witness_two_cycles, G, range(2 * r), r)
        h.expect_rejected(G, check_witness_general, [0, 2, 6], 2)
        h.expect_rejected(G, check_witness_triangle_free, [0, 1, 4, 6])
        big = cycle(2 * r + 4)
        h.expect_rejected(
            big, check_witness_two_cycles, range(2 * r), r, expect_pair=False
        )

    # family 2: box graphs (first vertex of each group lies on a 2r-ring)
    for r in range(4, 12):
        for delta in (2, 3, 4, 5):
            for c in (0, 1):
                G = box_graph(r, delta, c)
                from radgraph import box_spec

                sizes = box_spec(r, delta, c)
                offs = [0]
                for s in sizes[:-1]:
                    offs.append(offs[-1] + s)
                ring = [offs[i] for i in _mod4_prefix(2 * r)]
                h.expect_valid(check_witness_triangle_free, G, ring)
                spaced = [offs[i] for i in _spaced_triples(2 * r)]
                h.expect_valid(check_witness_general, G, spaced, 2)
                h.expect_rejected(
                    G, check_witness_triangle_free, [offs[0], offs[2], offs[5]]
                )
                h.expect_rejected(G, check_witness_general, [offs[0], offs[2]], 2)

    # family 3: glued cages with searched and patterned witnesses
    for base, k, rng in ((heawood, 3, range(2, 9)), (tutte_coxeter, 4, range(2, 5))):
        for m in rng:
            G = glue_cycle(base, m)
            ws = find_witness(G, k, budget=20000)
            h.expect_valid(check_witness_general, G, ws.vertices, k)
            u, v = next(iter(G.edges()))
            h.expect_valid(check_witness_general, G, [u, v], k)
            planted = _distance_two_vertex(G, ws.vertices)
            if planted is not None:
                h.expect_rejected(
                    G, check_witness_general, list(ws.vertices) + [planted[1]], k
                )

    # family 4: random bipartite graphs
    rng = random.Random(20260810)
    made = 0
    while made < 150:
        a = rng.randrange(3, 9)
        b = rng.randrange(a, 13)
        p = rng.choice((0.4, 0.6, 0.8))
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
        ]
        if not edges:
            continue
        G = build_graph(a + b, edges)
        made += 1
        u, v = edges[0]
        h.expect_valid(check_witness_triangle_free, G, [u, v])
        h.expect_valid(check_witness_general, G, [u, v], 2)
        bad = _distance_two_vertex(G, [u, v])
        if bad is not None:
            h.expect_rejected(G, check_witness_triangle_free, [u, v, bad[1]])
            h.expect_rejected(G, check_witness_general, [u, v, bad[1]], 2)

    assert h.total >= 1000, h.total
    print(f"  {h.valid} valid witnesses accepted, {h.rejected} mutations rejected")
    _announce(6, f"lemma suite over {h.total} instances, no false verdicts")


# ---------------------------------------------------------------------------
# criterion 7: dense-subgraph extraction on glued cages


def test_criterion_7_extraction(heawood):
    k = 3
    for m in (6, 10):
        G = glue_cycle(heawood, m)
        res = extract_dense_subgraph(G, k)
        r = metric_summary(G).radius
        assert res.subgraph.n <= Fraction((2 * k + 1) * G.n, r + 1)
        assert res.subgraph.n <= res.vertex_bound
        # stated edge floor for delta = 3 alongside the formula's own bound
        assert res.subgraph.edge_count >= 18
        assert res.subgraph.edge_count >= res.edge_bound
        # the reported ball really is the smallest one on the geodesic
        sizes = [len(ball(G, v, k)) for v in res.geodesic]
        assert res.subgraph.n == min(sizes)
    _announce(7, "extraction yields small balls with >= 18 induced edges")


# ---------------------------------------------------------------------------
# criterion 8: geodesic observations over sampled configurations


def test_criterion_8_geodesic_observations():
    graphs = []
    for half in range(5, 25):
        graphs.append(cycle(2 * half))
    for r in (4, 6, 8, 10):
        for delta in (2, 3):
            graphs.append(box_graph(r, delta, 1))
    for a in (10, 14, 18):
        for b in (8, 12):
            graphs.append(barbell(a, 1, b))
    passed = 0
    negatives = 0
    for G in graphs:
        r = metric_summary(G).radius
        assert r >= 4, r
        for m in {1, 2, 3, r // 2, r - 1}:
            path, vpath = geodesic_pair(G, m)
            rep = validate_geodesic_observations(G, path, m, vpath)
            assert rep.passed, (G, m, rep.violations)
            passed += 1
            # synthetic violation: claim an m below the realised shift
            if rep.t >= 2:
                bad = validate_geodesic_observations(G, path, rep.t - 1, vpath)
                assert not bad.passed and any("exceeds" in v for v in bad.violations)
                negatives += 1
    assert passed >= 100, passed
    assert negatives >= 10, negatives
    # structural tampering is rejected outright
    G = cycle(16)
    with pytest.raises(ValueError):
        validate_geodesic_observations(G, (0, 1, 2, 3), 1, (0, 15))
    print(f"  {passed} configurations passed, {negatives} synthetic violations flagged")
    _announce(8, "geodesic observations hold on sampled configurations")


# ---------------------------------------------------------------------------
# extra: the patterned witness collections stay valid at girth 6


def test_pattern_instantiations_on_families(heawood):
    # box/cycle families realise shift 3; the glued cages feed the stride-2k
    # pattern; both must validate through the public checkers
    for r in (8, 10, 12):
        G = cycle(2 * r)
        path, vpath = easycases_configuration(G)
        assert check_easycases_instantiation(G, path, vpath).passed
    for m in (3, 5):
        k = 3
        G = glue_cycle(heawood, m)
        path, vpath = geodesic_pair(G, 2 * k)
        r = len(path) - 1
        unprimed, primed = upper_bound_witness_pattern(r, k, len(path) - len(vpath))
        T = [path[i] for i in unprimed] + [vpath[j] for j in primed]
        rep = check_witness_general(G, T, k)
        assert rep.passed and len(T) >= 2 * r / k - 6
