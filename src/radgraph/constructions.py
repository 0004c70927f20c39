"""Explicit graph families: box graphs, small-radius bipartite graphs,
cyclically glued copies of a high-girth base graph, and extraction of a small
dense ball from a graph of large radius.
"""

from __future__ import annotations

from .graph import (
    UNREACHABLE,
    Graph,
    _Record,
    _distances,
    _geodesic,
    ball,
    bfs,
    build_graph,
    induced_subgraph,
    is_connected,
    metric_summary,
)


class ExtractionResult(_Record):
    """Smallest ball found along a central geodesic, with its guarantees.

    ``subgraph`` is induced on ball(G, geodesic[chosen_index], k);
    ``vertex_map`` sends its vertices back to the originals.  The integer
    bounds are floor((2k+1) n / (r+1)) for the vertex count and
    ceil(delta^2 (delta-1)^(k-2) / 2) for the edge count.
    """

    __slots__ = ("center", "geodesic", "chosen_index", "subgraph", "vertex_map",
                 "vertex_bound", "edge_bound")


def box_spec(r: int, delta: int, c: int) -> tuple:
    """Sizes of the 2r vertex groups of a box graph, in ring order.

    Group sizes alternate between ceil(delta/2) (positions 0,1 mod 4) and
    floor(delta/2) (positions 2,3 mod 4), which makes every base degree sum
    to exactly delta; the c surplus vertices all go into group 0 so that the
    minimum degree stays exactly delta for every parameter choice.
    """
    if r < 4:
        raise ValueError(f"box graphs need radius r >= 4, got {r}")
    if delta < 2:
        raise ValueError(f"box graphs need minimum degree >= 2, got {delta}")
    if c < 0:
        raise ValueError(f"surplus must be non-negative, got {c}")
    big = (delta + 1) // 2
    small = delta // 2
    sizes = [big if i % 4 in (0, 1) else small for i in range(2 * r)]
    sizes[0] += c
    return tuple(sizes)


def box_graph(r: int, delta: int, c: int = 0) -> Graph:
    """Triangle-free graph with 2*ceil(r*delta/2)+c vertices, min degree
    exactly delta and radius exactly r.

    2r groups are arranged in a ring and consecutive groups are completely
    joined, so a vertex in group i has degree |B_(i-1)| + |B_(i+1)|.  With
    delta = 2 and c = 0 every group is a single vertex and the graph is the
    plain cycle C_(2r); in every other case two vertices share a group and
    the girth is exactly 4.
    """
    sizes = box_spec(r, delta, c)
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    m = 2 * r
    for i in range(m):
        j = (i + 1) % m
        for a in range(offsets[i], offsets[i] + sizes[i]):
            for b in range(offsets[j], offsets[j] + sizes[j]):
                edges.append((a, b))
    return build_graph(total, edges)


def bipartite_radius2(n: int, delta: int) -> Graph:
    """Complete bipartite K_(delta, n-delta): triangle-free, radius 2.

    No connected triangle-free graph with minimum degree delta exists on
    fewer than 2*delta vertices, so n >= 2*delta is required.
    """
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    if n < 2 * delta:
        raise ValueError(
            f"no connected triangle-free graph with min degree {delta} on {n} < {2 * delta} vertices"
        )
    edges = [(u, v) for u in range(delta) for v in range(delta, n)]
    return build_graph(n, edges)


def radius3_graph(n: int, delta: int) -> Graph:
    """Triangle-free graph with min degree delta and radius exactly 3.

    Start from K_(delta+1, n-delta-1) with left side v_0..v_delta and right
    side w_0..w_(n-delta-2); remove the matching v_i w_i and every edge from
    v_delta to w_j with j > delta.  Requires n >= 2*delta + 2.
    """
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    if n < 2 * delta + 2:
        raise ValueError(
            f"radius-3 construction needs n >= {2 * delta + 2}, got {n}"
        )
    left = delta + 1
    edges = []
    for i in range(left):
        for j in range(n - left):
            if i == j:
                continue  # erased matching edge
            if i == delta and j > delta:
                continue  # erased extra edges at the last left vertex
            edges.append((i, left + j))
    return build_graph(n, edges)


def glue_cycle(H: Graph, m: int) -> Graph:
    """Chain m copies of H (minus one cycle edge) into a ring.

    The lexicographically smallest edge (v, w) of H that lies on a cycle,
    the first whose deletion leaves v reaching w, is deleted; minimum degree
    2 puts a cycle in H, so there is one.  m disjoint copies are laid out,
    and copy i's v is joined to copy i+1's w (cyclically).  Vertex count
    becomes m*|V(H)|, the minimum degree and the girth of H are preserved,
    and the radius grows linearly in m.
    """
    if m < 2:
        raise ValueError(f"need at least 2 copies, got {m}")
    if not is_connected(H):
        raise ValueError("base graph must be connected")
    if min(H.degrees(), default=0) < 2:
        raise ValueError("base graph must have minimum degree >= 2")
    for v, w in H.edges():
        # (v, w) lies on a cycle exactly when v still reaches w without it
        adj = [tuple(x for x in row if x not in (v, w)) if u in (v, w) else row for u, row in enumerate(H.adj)]
        if _distances(adj, v, [UNREACHABLE] * H.n)[w] != UNREACHABLE:
            break
    base_edges = [e for e in H.edges() if e != (v, w)]
    n = H.n
    edges = []
    for i in range(m):
        off = i * n
        edges.extend((off + a, off + b) for a, b in base_edges)
        edges.append((off + v, ((i + 1) % m) * n + w))
    return build_graph(m * n, edges)


def extract_dense_subgraph(G: Graph, k: int) -> ExtractionResult:
    """Locate a small vertex ball whose induced subgraph is provably dense.

    Along a geodesic v_0..v_r from the canonical centre to a farthest vertex,
    every vertex of G lies in at most 2k+1 of the balls Q(v_i) = ball(v_i, k),
    so the smallest ball has at most (2k+1) n/(r+1) vertices; since each
    vertex sees at least delta (delta-1)^(k-2) vertices within distance k-1,
    that ball also induces at least delta^2 (delta-1)^(k-2) / 2 edges.
    Requires G connected with girth >= 2k and minimum degree >= 2.
    """
    if k < 2:
        raise ValueError(f"half-girth parameter must be >= 2, got {k}")
    ms = metric_summary(G)
    if ms.radius is None:
        raise ValueError("graph must be connected")
    if ms.girth < 2 * k:
        raise ValueError(f"girth {ms.girth} is below the required {2 * k}")
    delta = ms.min_degree
    if delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {delta}")
    center = ms.centers[0]
    dist = bfs(G, center)
    r = ms.radius
    target = min(v for v in range(G.n) if dist[v] == r)
    geodesic = _geodesic(G, dist, target)
    # only the smallest ball so far is kept; a tie keeps the earlier one
    chosen, smallest = 0, None
    for i, v in enumerate(geodesic):
        q = ball(G, v, k)
        if smallest is None or len(q) < len(smallest):
            chosen, smallest = i, q
    sub, vmap = induced_subgraph(G, smallest)
    vertex_bound = (2 * k + 1) * G.n // (r + 1)
    edge_bound = (delta * delta * (delta - 1) ** (k - 2) + 1) // 2
    return ExtractionResult(
        center=center,
        geodesic=tuple(geodesic),
        chosen_index=chosen,
        subgraph=sub,
        vertex_map=vmap,
        vertex_bound=vertex_bound,
        edge_bound=edge_bound,
    )
