import hashlib
from itertools import combinations

import networkx as nx
import pytest

from radgraph import (
    field_make,
    graph6_bytes,
    metric_summary,
    projective_plane_incidence_graph,
    symplectic_quadrangle_incidence_graph,
)
from radgraph.geometry import _echelon, _projective_points, _symplectic_dual


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


#: SHA-256 of graph6_bytes, recorded from the builds that predate the integer-table
#: geometry (q = 11, 13, 16 of PG and 7, 8 of W from the edge-list builds that predate
#: the direct neighbour-tuple ones, q = 11, 13, 16 of W from the polar-plane build that
#: predates the echelon one, q = 25 of both from the builds before PG(2,q) took its lines
#: from the same echelon enumerator as W(q)); every later build must produce these exact graphs.
PG_SHA256 = [
    (2, "ea3bf0c075800b03384b28c035ae00206b6f3632949ca81ec0efa50861b93b2b"),
    (3, "322c31b450c66d5766f07c00d8d169ad3076ec80b20f1e9254594b9fb88bc1ab"),
    (4, "cc45e83a09a894ff4c436ea172ac00cf22db387bbcff1feea52af6e69284ac41"),
    (5, "90151ff2c0b0b7498702ee8a58297bfca309e179b827f3d01ad6c9b23493fdb8"),
    (7, "f5f5164b866363ecfc7f63bcb08b2df3b4d69fa3aea5962726034a6296e1a86b"),
    (8, "01c4c956d87bb8fc0db9425dedfb1a735354c97e12a77e2ba397211551717a5e"),
    (9, "74d2720ec8001fa672fb19326ec8038e8ff990423efe6d01d65217649ab0d493"),
    (11, "2702e5e8613e3aebf2fa26a72a87c8be08a209b633e35c70bcae46b2148f13e9"),
    (13, "d3d79640b09774e6403a6375fae568e9fa2dfdefd71da53252d43f8108f0d71c"),
    (16, "622c9622ca7aed040af2a361c4fce9f0c79b21a6c5c973413d5439fb20a38c75"),
    (25, "f8ee997bbeb47f890446431e897527cac7b0e6e3145e7cfe5a43c521ed99eebf"),
    (27, "9a39e0e4caca167b711d397f8ce5b03143a35195a59db06dd32d64f08b469e0a"),
]
W_SHA256 = [
    (2, "c912cf9052cf71d001103b6b3ed455b49fabbd05103c46bd695a4fa6b01cec33"),
    (3, "1388e5b391bb6175b94bf8365e7ac241d1ec64077e74ae390ac6b5be7517ee2b"),
    (4, "b47f00e25c068cbc15c26efc613e8f02dc2dd236a96fe159a0425ede6b3c3283"),
    (5, "034f2c9f6b2584fe81193b2b3c2615101ccee8a89330506ba3fe9313000f3866"),
    (7, "2e2f5e6984b8f01f497d64693bed9004c56683db08091f81a517d71079076c00"),
    (8, "7e6f9b6107e4988a1bbe47451519629271dc9b6aa9be7ea69bb0657fa90f9c55"),
    (9, "ab79af8d2d79ce93408879b10c815372162369bb722ede7fcfc5b10ab643665d"),
    (11, "4cb38ca371ccb708a8efd2b424925aff46c1b0fc435740766fb3041300bf4fe6"),
    (13, "4b6e168088086591fd1946b178152eba5213d407553d2e27370b6aff30e8326c"),
    (16, "945fb37cc7dbd4b0ced9e6a47a2b4863db7ae06113ddfdf462cc43c1415537fa"),
    (25, "d1d6c0cd54094fa503993ac0d06c574df6879d5e23df6c82795915097da9a825"),
]


def sha256_graph6(G):
    return hashlib.sha256(graph6_bytes(G)).hexdigest()


def field_dot(F, u, v):
    """sum_i u_i v_i over GF(q), on the field's integer tables."""
    s = 0
    for a, b in zip(u, v):
        s = F._add[s][F._mul[a][b]]
    return s


def is_bipartite_split(G, left_count):
    # vertices below left_count on one side, the rest on the other
    return all((u < left_count) != (v < left_count) for u, v in G.edges())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_echelon_pairs_give_each_line_once(q, dim):
    F = field_make(q)
    points = _projective_points(F, dim)
    index = {pt: i for i, pt in enumerate(points)}
    echelon = _echelon(points)
    lines = []
    for r2 in points:
        for r1 in echelon[r2.index(1)]:
            # r1 + t*r2 must come out normalised, or the index lookup fails
            others = [tuple(F._add[x][F._mul[t][y]] for x, y in zip(r1, r2)) for t in range(q)]
            lines.append(frozenset([index[r2]] + [index[pt] for pt in others]))
    # the Gaussian binomial [dim+1 choose 2]_q counts the lines of PG(dim, q)
    count = (q ** (dim + 1) - 1) * (q ** dim - 1) // ((q * q - 1) * (q - 1))
    assert len(lines) == len(set(lines)) == count
    assert all(len(line) == q + 1 for line in lines)


class TestProjectivePlane:
    def test_q2_is_heawood(self, heawood_lcf):
        G = projective_plane_incidence_graph(2)
        assert nx.is_isomorphic(to_nx(G), to_nx(heawood_lcf))
        assert metric_summary(G).radius == 3

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_incidence_axioms(self, q):
        F = field_make(q)
        points = _projective_points(F, 2)
        # every point on exactly q+1 lines, and dually
        for pt in points:
            assert sum(1 for ln in points if field_dot(F, pt, ln) == 0) == q + 1
        # two distinct points on exactly one common line
        for p1, p2 in combinations(points, 2):
            common = [ln for ln in points
                      if field_dot(F, p1, ln) == 0 and field_dot(F, p2, ln) == 0]
            assert len(common) == 1
        # the build joins point i to line j exactly when they are orthogonal
        G = projective_plane_incidence_graph(q)
        npts = len(points)
        for i, pt in enumerate(points):
            on = [j for j, ln in enumerate(points) if field_dot(F, pt, ln) == 0]
            assert G.adj[i] == tuple(npts + j for j in on)
            assert G.adj[npts + i] == tuple(on)  # dot products are symmetric

    def test_deterministic_output(self):
        a = projective_plane_incidence_graph(3)
        b = projective_plane_incidence_graph(3)
        assert graph6_bytes(a) == graph6_bytes(b)

    @pytest.mark.parametrize("q,digest", PG_SHA256)
    def test_pinned_encoding(self, q, digest):
        assert sha256_graph6(projective_plane_incidence_graph(q)) == digest


class TestSymplecticQuadrangle:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_vertex_count_formula(self, q):
        G = symplectic_quadrangle_incidence_graph(q)
        points = q**3 + q**2 + q + 1
        lines = (q + 1) * (q * q + 1)
        assert G.n == points + lines == 2 * (q + 1) * (q * q + 1)
        assert set(G.degrees()) == {q + 1}
        assert is_bipartite_split(G, points)

    @pytest.mark.parametrize("q", [2, 3])
    def test_girth_eight(self, q):
        assert metric_summary(symplectic_quadrangle_incidence_graph(q)).girth == 8

    def test_q2_is_tutte_coxeter(self, tutte_coxeter_lcf):
        G = symplectic_quadrangle_incidence_graph(2)
        assert G.n == 30
        assert nx.is_isomorphic(to_nx(G), to_nx(tutte_coxeter_lcf))

    @pytest.mark.parametrize("q", [2, 3])
    def test_form_is_alternating(self, q):
        F = field_make(q)
        add, neg, mul = F._add, F._neg, F._mul
        points = _projective_points(F, 3)
        for x in points:
            # B(x, y) = sum_i w_i y_i with w = _symplectic_dual(x)
            w = _symplectic_dual(x, F)
            assert field_dot(F, w, x) == 0
            # the dual is the stated form x0*y1 - x1*y0 + x2*y3 - x3*y2
            for y in points:
                first = add[mul[x[0]][y[1]]][neg[mul[x[1]][y[0]]]]
                second = add[mul[x[2]][y[3]]][neg[mul[x[3]][y[2]]]]
                assert field_dot(F, w, y) == add[first][second]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_incidence_axioms(self, q):
        F = field_make(q)
        points = _projective_points(F, 3)
        G = symplectic_quadrangle_incidence_graph(q)
        npts = len(points)
        lines = [set(G.adj[v]) for v in range(npts, G.n)]
        # q+1 pairwise orthogonal points span a totally isotropic subspace,
        # which has dimension 2 at most: they are all the points of one line
        for line in lines:
            for a, b in combinations(sorted(line), 2):
                assert field_dot(F, _symplectic_dual(points[a], F), points[b]) == 0
        # two lines share at most one point
        for L, M in combinations(lines, 2):
            assert len(L & M) <= 1
        # a point P off a line L is on exactly one line that meets L
        for L in lines:
            for p in range(npts):
                if p not in L:
                    assert sum(1 for v in G.adj[p] if lines[v - npts] & L) == 1

    @pytest.mark.parametrize("q,digest", W_SHA256)
    def test_pinned_encoding(self, q, digest):
        assert sha256_graph6(symplectic_quadrangle_incidence_graph(q)) == digest

