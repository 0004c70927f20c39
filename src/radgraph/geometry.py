"""Bipartite incidence graphs over finite projective spaces.

Two constructions are built from scratch: the point/line incidence graph of
the projective plane PG(2,q) (girth 6) and the incidence graph of the
symplectic generalized quadrangle W(q) inside PG(3,q) (girth 8).  Girth-12
incidence graphs are not constructed here: girth-12 bases enter as graph6
files (``construct glue --base``, checked by ``analyze``).
"""

from __future__ import annotations

from itertools import product

from .fields import FiniteField, field_make
from .graph import Graph, build_graph


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


def _perp(w, field: FiniteField, prefixes, index) -> list:
    """Indices of the points x of PG(d, q) with sum_i w_i x_i = 0, d = len(w) - 1.

    ``prefixes`` are the points of PG(d-1, q) and ``index`` numbers the points
    of PG(d, q).  Every point but (0, ..., 0, 1) is a prefix followed by a
    free last coordinate z, which the equation fixes when w_d != 0 and leaves
    free (or rules out) when w_d = 0.  All arithmetic runs on the field's
    integer tables.
    """
    add, mul, q = field._add, field._mul, field.q
    *head, last = w
    out = [] if last else [index[(0,) * len(head) + (1,)]]
    scale = field._neg[field._inv[last]] if last else 0  # z = -s / w_d
    for pre in prefixes:
        s = 0
        for a, x in zip(head, pre):
            s = add[s][mul[a][x]]
        if last:
            out.append(index[pre + (mul[s][scale],)])
        elif not s:
            out.extend(index[pre + (z,)] for z in range(q))
    return out


def projective_plane_incidence_graph(q: int) -> Graph:
    """Point/line incidence graph of PG(2,q): bipartite, (q+1)-regular, girth 6.

    Vertices 0..q^2+q are the points sorted by normalised coordinates, the
    rest are the lines (same coordinate space, dual role); point P is joined
    to line L exactly when sum_i P_i L_i = 0 in GF(q).  For q = 2 this yields
    the 14-vertex Heawood graph.
    """
    field = field_make(q)
    points = _projective_points(field, 2)
    prefixes = _projective_points(field, 1)
    index = {pt: i for i, pt in enumerate(points)}
    count = len(points)
    edges = [
        (i, count + j)
        for i, pt in enumerate(points)
        for j in _perp(pt, field, prefixes, index)
    ]
    return build_graph(2 * count, edges)


def _symplectic_dual(u, field: FiniteField) -> tuple:
    """The coordinates w with B(u, x) = sum_i w_i x_i, for the alternating form
    B(x, y) = x0*y1 - x1*y0 + x2*y3 - x3*y2 on GF(q)^4."""
    neg = field._neg
    return (neg[u[1]], u[0], neg[u[3]], u[2])


def _line(pa, pb, field: FiniteField, index) -> tuple:
    """Sorted point indices of the projective line through points pa and pb."""
    add, mul, inv = field._add, field._mul, field._inv
    span = {index[pb]}
    for t in range(field.q):
        vec = [add[x][mul[t][y]] for x, y in zip(pa, pb)]
        scale = inv[next(x for x in vec if x)]
        span.add(index[tuple(mul[scale][x] for x in vec)])
    return tuple(sorted(span))


def symplectic_quadrangle_incidence_graph(q: int) -> Graph:
    """Incidence graph of the generalized quadrangle W(q): girth 8.

    Vertices are the q^3+q^2+q+1 points of PG(3,q) (all of them are isotropic
    for the alternating form) followed by the (q+1)(q^2+1) totally isotropic
    lines in sorted order; adjacency is containment.  The lines through a
    point a are the lines through a inside its polar plane a^perp; each line
    is spanned once, from its lowest point.  For q = 2 this is the 30-vertex
    Tutte-Coxeter graph.
    """
    field = field_make(q)
    points = _projective_points(field, 3)
    prefixes = _projective_points(field, 2)
    index = {pt: i for i, pt in enumerate(points)}
    npts = len(points)
    covered = [0] * npts  # bit b of covered[a]: a and b share a line found so far
    line_list = []
    for a, pa in enumerate(points):
        for b in _perp(_symplectic_dual(pa, field), field, prefixes, index):
            if b > a and not covered[a] >> b & 1:
                line = _line(pa, points[b], field, index)
                line_list.append(line)
                mask = sum(1 << p for p in line)
                for p in line:
                    covered[p] |= mask
    line_list.sort()
    expected = (q + 1) * (q * q + 1)
    if len(line_list) != expected:
        raise RuntimeError(
            f"W({q}) construction found {len(line_list)} totally isotropic lines, "
            f"expected {expected}"
        )
    edges = []
    for j, line in enumerate(line_list):
        for p in line:
            edges.append((p, npts + j))
    return build_graph(npts + len(line_list), edges)
