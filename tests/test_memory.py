"""Traced memory of the graph questions on a long ring, and of the W(16) build.

Each question below reads the neighbour tuples of C_20000 only: none may
build an n-bit mask per vertex, which takes up to n^2/8 bytes (26 MiB on
this ring) to answer balls of a few vertices.  ``find_witness`` is left out on
purpose: its branch and bound works on one n-bit compatibility mask per
vertex, so it needs those n^2/8 bytes.  ``extract_dense_subgraph`` keeps only
the smallest ball along its geodesic, so its limit is tighter.

The W(q) build is held to O(n*q) memory: it keeps no polar plane and no
pair mask per point.  The W(16) encode holds its 4.55 MiB body and its
6.07 MiB line, not several copies of the line.  An edge list's declared
order is refused before its vertices are allocated.
"""

import tracemalloc

import pytest

from radgraph import (
    WitnessValidationError,
    ball,
    build_graph,
    check_witness_general,
    check_witness_triangle_free,
    check_witness_two_cycles,
    extract_dense_subgraph,
    from_edgelist_text,
    graph6_bytes,
    is_connected,
    is_triangle_free,
    sphere,
    symplectic_quadrangle_incidence_graph,
)

N = 20000
LIMIT = 16 * 2**20
LIMITS = {"extract_dense_subgraph": 4 * 2**20}


def rejected(check, *args):
    with pytest.raises(WitnessValidationError):
        check(*args)


QUESTIONS = {
    "ball": lambda G: ball(G, 7, 5),
    "sphere": lambda G: sphere(G, 7, 5),
    "is_connected": is_connected,
    "is_triangle_free": is_triangle_free,
    "check_witness_general": lambda G: check_witness_general(G, [0, 3, 9, 10], 2),
    "check_witness_triangle_free": lambda G: check_witness_triangle_free(G, [0, 1, 4, 5]),
    "check_witness_two_cycles": lambda G: rejected(check_witness_two_cycles, G, range(8), 4),
    "extract_dense_subgraph": lambda G: extract_dense_subgraph(G, 2),
}


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(QUESTIONS))
def test_traced_peak_on_c20000(name):
    G = build_graph(N, [(v, (v + 1) % N) for v in range(N)])
    peak = traced_peak(QUESTIONS[name], G)
    assert peak < LIMITS.get(name, LIMIT), f"{name}: traced peak {peak / 2**20:.1f} MiB"


def test_traced_peak_of_w16():
    peak = traced_peak(symplectic_quadrangle_incidence_graph, 16)
    assert peak < 8 * 2**20, f"W(16): traced peak {peak / 2**20:.1f} MiB"


def test_traced_peak_of_the_w16_encode():
    G = symplectic_quadrangle_incidence_graph(16)
    peak = traced_peak(graph6_bytes, G)
    assert peak <= 12.5 * 2**20, f"W(16) encode: traced peak {peak / 2**20:.1f} MiB"


def test_an_edge_list_of_3000000_isolated_vertices_is_refused_unallocated():
    def read():
        with pytest.raises(ValueError, match="too few to connect them"):
            from_edgelist_text("3000000 0\n")
    peak = traced_peak(read)
    assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MiB"
