"""Immutable simple graphs and their metric invariants.

Vertices are the integers 0..n-1.  ``Graph`` instances are frozen after
construction and every function in this module is a pure read, so graphs can
be shared freely between threads or worker processes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = [
    "UNREACHABLE",
    "INFINITE",
    "Graph",
    "DistanceVector",
    "MetricSummary",
    "build_graph",
    "bfs",
    "metric_summary",
    "ball",
    "sphere",
    "bridges",
    "induced_subgraph",
    "is_connected",
    "is_triangle_free",
]

#: Distance marker for vertices outside the source's component.
UNREACHABLE = -1

#: Girth of an acyclic graph; compares greater than every integer.
INFINITE = math.inf


class Graph:
    """Simple undirected graph with sorted per-vertex neighbour tuples.

    Use :func:`build_graph` to construct one; the constructor trusts its
    arguments.  ``adj[v]`` is a sorted tuple of v's neighbours and
    ``edge_count`` equals ``sum(len(row) for row in adj) // 2``.
    """

    __slots__ = ("n", "adj", "edge_count", "_cache")

    def __init__(self, n: int, adj: tuple, edge_count: int):
        self.n = n
        self.adj = adj
        self.edge_count = edge_count
        self._cache: dict = {}

    @property
    def rows(self) -> tuple:
        """Adjacency bitmasks: bit w of ``rows[v]`` is set when v ~ w."""
        rows = self._cache.get("rows")
        if rows is None:
            rows = tuple(sum(1 << w for w in row) for row in self.adj)
            self._cache["rows"] = rows
        return rows

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        """Yield every edge once as a pair (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class DistanceVector:
    """Hop distances from ``source``; UNREACHABLE marks other components."""

    source: int
    dist: tuple

    def __getitem__(self, v: int) -> int:
        return self.dist[v]


@dataclass(frozen=True)
class MetricSummary:
    """Radius, diameter, girth, minimum degree and the centre set of a graph.

    ``radius``/``diameter`` are ``None`` for disconnected graphs, girth is
    ``INFINITE`` for forests, and ``centers`` lists the vertices of minimum
    eccentricity in increasing order (so ``centers[0]`` is the canonical
    single centre).
    """

    radius: int | None
    diameter: int | None
    girth: int | float
    min_degree: int
    centers: tuple


def build_graph(n: int, edges) -> Graph:
    """Build a graph on vertices 0..n-1 from an iterable of endpoint pairs.

    Duplicate pairs and orientation are normalised away.  Raises
    ``ValueError`` for out-of-range endpoints or self-loops.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    seen: set = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for graph on {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        seen.add((u, v) if u < v else (v, u))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        rows[u].append(v)
        rows[v].append(u)
    adj = tuple(tuple(sorted(row)) for row in rows)
    return Graph(n, adj, len(seen))


def _reach(rows, seen, limit):
    """Sweep BFS frontiers out from the vertex mask ``seen`` over the
    adjacency bitmasks ``rows``, for at most ``limit`` levels.

    Returns (reached mask, levels taken).  A sweep that ends before
    ``limit`` has reached the whole component of ``seen``, and its level
    count is then the eccentricity of that source set.
    """
    frontier = seen
    levels = 0
    while levels < limit:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & ~seen
        if not frontier:
            break
        seen |= frontier
        levels += 1
    return seen, levels


def bfs(G: Graph, v: int) -> DistanceVector:
    """Exact hop distances from v (UNREACHABLE outside v's component)."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    return DistanceVector(v, tuple(_distances(G.adj, v, G.n)))


def _distances(adj, v, n):
    dist = [UNREACHABLE] * n
    dist[v] = 0
    queue = deque((v,))
    while queue:
        u = queue.popleft()
        du1 = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du1
                queue.append(w)
    return dist


def _eccentricities(adj, n):
    """Per-vertex eccentricity list, or None if the graph is disconnected."""
    eccs = []
    for v in range(n):
        dist = _distances(adj, v, n)
        e = 0
        for d in dist:
            if d < 0:
                return None
            if d > e:
                e = d
        eccs.append(e)
    return eccs


def _girth(adj, n):
    """Shortest cycle length via per-root BFS, INFINITE when acyclic.

    For each root, a non-tree edge (u, w) witnesses a closed walk of length
    dist[u] + dist[w] + 1 containing a cycle no longer than that; minimising
    over all roots attains the true girth.
    """
    best = INFINITE
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du >= best:
                break  # no candidate through u can beat the incumbent
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        if best == 3:
            return 3
    return best


def metric_summary(G: Graph) -> MetricSummary:
    """Radius/diameter (all-source BFS), girth, min degree and centres.

    The result is memoised on the graph, which is safe because graphs are
    immutable.
    """
    cached = G._cache.get("metrics")
    if cached is not None:
        return cached
    n = G.n
    min_degree = min((len(row) for row in G.adj), default=0)
    girth = _girth(G.adj, n)
    eccs = _eccentricities(G.adj, n) if n else None
    if eccs is None:
        summary = MetricSummary(None, None, girth, min_degree, ())
    else:
        radius = min(eccs)
        diameter = max(eccs)
        centers = tuple(v for v, e in enumerate(eccs) if e == radius)
        summary = MetricSummary(radius, diameter, girth, min_degree, centers)
    G._cache["metrics"] = summary
    return summary


def is_connected(G: Graph) -> bool:
    """True when the graph has a single component (vacuously for n <= 1)."""
    return G.n <= 1 or _reach(G.rows, 1, G.n)[0] == (1 << G.n) - 1


def is_triangle_free(G: Graph) -> bool:
    """True when the graph contains no 3-cycle (girth > 3, possibly INFINITE)."""
    return metric_summary(G).girth > 3


def _ball_mask(G, v, k):
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    if k < 0:
        raise ValueError(f"radius must be non-negative, got {k}")
    return _reach(G.rows, 1 << v, k)[0]


def _members(mask):
    out = set()
    while mask:
        b = mask & -mask
        out.add(b.bit_length() - 1)
        mask ^= b
    return out


def ball(G: Graph, v: int, k: int) -> set:
    """The set { w : d(v, w) <= k }."""
    return _members(_ball_mask(G, v, k))


def sphere(G: Graph, v: int, k: int) -> set:
    """The set { w : d(v, w) == k }."""
    outer = _ball_mask(G, v, k)
    return _members(outer & ~_ball_mask(G, v, k - 1)) if k else {v}


def _geodesic(G: Graph, dist, target) -> list:
    """Walk BFS distances back from target, lowest-index parent first."""
    path = [target]
    cur = target
    while dist[cur] > 0:
        cur = min(w for w in G.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    path.reverse()
    return path


def bridges(G: Graph) -> set:
    """All cut edges, as (u, v) pairs with u < v.

    An edge lies on a cycle exactly when it is not returned here.  Iterative
    DFS low-link computation.
    """
    n = G.n
    disc = [-1] * n
    low = [0] * n
    out: set = set()
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        # stack entries: (vertex, tree parent, saved neighbour iterator)
        stack = [(root, -1, iter(G.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, pu, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(G.adj[w])))
                    advanced = True
                    break
                if w != pu and disc[w] < low[u]:
                    low[u] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] > disc[p]:
                        out.add((p, u) if p < u else (u, p))
    return out


def induced_subgraph(G: Graph, vertices) -> tuple:
    """Subgraph induced by ``vertices`` plus the relabelling map.

    Returns ``(H, vmap)`` where H's vertex i corresponds to the original
    vertex ``vmap[i]``; the map preserves the sorted original order.
    """
    vmap = tuple(sorted(set(vertices)))
    for v in vmap:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    index = {v: i for i, v in enumerate(vmap)}
    edges = [
        (index[u], index[v])
        for u in vmap
        for v in G.adj[u]
        if u < v and v in index
    ]
    return build_graph(len(vmap), edges), vmap
