"""Bipartite incidence graphs over finite projective spaces.

Two constructions are built from scratch: the point/line incidence graph of
the projective plane PG(2,q) (girth 6) and the incidence graph of the
symplectic generalized quadrangle W(q) inside PG(3,q) (girth 8).  Girth-12
incidence graphs are not constructed here: girth-12 bases enter as graph6
files (``construct glue --base``, checked by ``analyze``).

Both builds take each line once from one enumerator, ``_echelon``: PG(2,q)
keeps every line and files it under its dual coordinates r1 x r2, W(q) keeps
the lines with B(r1, r2) = 0.  Both hand their sorted neighbour tuples to a
``Graph`` (``_incidence_graph``) and keep nothing per point beyond one
point-to-index dict, so they hold O(n*q) memory: in process on a 2-core Xeon,
W(16) took 0.035 s and 3.8 MiB traced, against 0.45 s and 51 MiB with a polar
plane and a pair bitmask per point.
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


def _echelon(points) -> list:
    """``echelon[j]``: the points that lead before coordinate j and are 0 at j.

    A line of PG(d, q), ``points`` being ``_projective_points(field, d)``, is
    its lowest point r2, leading at coordinate j = ``r2.index(1)``, and the
    one r1 in ``echelon[j]`` on it; its points are r2 and r1 + t*r2 for t in
    GF(q).  Every pair (r2, r1 in ``echelon[j]``) spans a distinct line.
    """
    return [[pt for pt in points if pt[j] == 0 and any(pt[:j])] for j in range(len(points[0]))]


def _incidence_graph(npts: int, blocks) -> Graph:
    """Incidence graph of the points 0..npts-1 and the blocks after them:
    block j, a sorted list of point indices, is vertex npts + j.  The rows
    come out sorted, since each point meets its blocks in increasing order."""
    rows = [[] for _ in range(npts)]
    for j, block in enumerate(blocks, npts):
        for p in block:
            rows[p].append(j)
    return Graph(tuple(map(tuple, rows)) + tuple(map(tuple, blocks)))


def projective_plane_incidence_graph(q: int) -> Graph:
    """Point/line incidence graph of PG(2,q): bipartite, (q+1)-regular, girth 6.

    Vertices 0..q^2+q are the points sorted by normalised coordinates, the
    rest are the lines (same coordinate space, dual role); point P is joined
    to line L exactly when sum_i P_i L_i = 0 in GF(q).  Each line comes from
    ``_echelon`` once, and its dual coordinates are r1 x r2, normalised.  For
    q = 2 this yields the 14-vertex Heawood graph.
    """
    field = field_make(q)
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    points = _projective_points(field, 2)
    index = {pt: i for i, pt in enumerate(points)}
    echelon = _echelon(points)
    lines, found = [None] * len(points), 0
    for r2 in points:
        y0, y1, y2 = r2
        m0, m1, m2 = mul[y0], mul[y1], mul[y2]
        for x0, x1, x2 in echelon[r2.index(1)]:  # r1
            w0, w1, w2 = add[m2[x1]][neg[m1[x2]]], add[m0[x2]][neg[m2[x0]]], add[m1[x0]][neg[m0[x1]]]
            s = mul[inv[w0 or w1 or w2]]  # scales r1 x r2 to a point's coordinates
            lines[index[s[w0], s[w1], s[w2]]] = sorted([index[r2]] + [  # r1 + t*r2, m = mul[t]
                index[add[x0][m[y0]], add[x1][m[y1]], add[x2][m[y2]]] for m in mul])
            found += 1
    if found != len(points) or None in lines:
        raise RuntimeError(f"PG(2,{q}) construction did not find each line exactly once")
    return _incidence_graph(len(points), lines)


def _symplectic_dual(u, field: FiniteField) -> tuple:
    """The coordinates w with B(u, x) = sum_i w_i x_i, for the alternating form
    B(x, y) = x0*y1 - x1*y0 + x2*y3 - x3*y2 on GF(q)^4."""
    neg = field._neg
    return (neg[u[1]], u[0], neg[u[3]], u[2])


def symplectic_quadrangle_incidence_graph(q: int) -> Graph:
    """Incidence graph of the generalized quadrangle W(q): girth 8.

    Vertices are the q^3+q^2+q+1 points of PG(3,q) (all of them are isotropic
    for the alternating form) followed by the (q+1)(q^2+1) totally isotropic
    lines in sorted order; adjacency is containment.  The lines of PG(3,q)
    from ``_echelon`` with B(r1, r2) = 0 are the totally isotropic ones.
    For q = 2 this is the 30-vertex Tutte-Coxeter graph.
    """
    field = field_make(q)
    add, mul = field._add, field._mul
    points = _projective_points(field, 3)
    index = {pt: i for i, pt in enumerate(points)}
    echelon = _echelon(points)
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
