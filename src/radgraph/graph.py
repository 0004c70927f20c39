"""Immutable simple graphs and their metric invariants.

Vertices are the integers 0..n-1.  ``Graph`` instances are frozen after
construction and every function in this module is a pure read, so graphs can
be shared freely between threads or worker processes.

Which metric path runs when.  ``metric_summary`` first runs one BFS from
vertex 0 (and one from each further component), which gives connectivity,
ecc(0) and bipartiteness.  The girth comes from per-root BFS with a depth
cutoff one level tighter on bipartite graphs and with finished roots
deleted; it is memoised on its own (``_girth_of``) so that
``is_triangle_free`` and the witness checkers never pay for eccentricities.

On a connected graph, ``_shift_period`` then looks for a label shift
v -> (v + d) mod n that is an automorphism, checking each divisor d of n in
increasing order row by row and stopping at the first row that disagrees.
The shifts that are automorphisms form a subgroup of Z_n; it is generated
by its least positive element, which divides n, so the first d that
verifies has the finest orbits a shift can give: the residue classes mod d.
Eccentricity is constant on an orbit, so only the sources 0..d-1 are
computed, and d = n (no shift) computes every source as before.
``glue_cycle`` labels copy i as i * |H| + v, so every ring it writes has
such a shift: Heawood x200 (n = 2800) needs 14 BFSs, Tutte-Coxeter x30
(n = 900) 30 and the cycle C_2000 one, each after one ``_levels`` sweep,
and PG(2,27) (n = 1514) has the point/line swap d = 757, so ball growth
runs half the sources.  The successful check on Heawood x200 takes about
4 ms; a graph with no shift, such as W(9) or a randomly relabelled ring,
pays one failed check per divisor, most of them at the first row.

The eccentricities of those d sources come from bit-parallel ball growth
when 2 * ecc(0) <= d, and from one queue BFS per source otherwise.  Ball
growth takes the sources _BALL_WIDTH at a time: bit i of ``balls[v]`` is
set once d(lo + i, v) <= level, one level sets balls[v] |= balls[w] for
every neighbour w, and a source is finished at the first level where every
mask holds its bit.  A level is one pass over the edges with no
frontier/seen/next split, so a block costs about diameter * 2m ORs of
width-bit masks however many sources it holds, against O(n + m) steps per
source for the queue.  Seconds for all n sources, best of three in-process
runs on a 2-core Xeon with CPython 3.11; the first two rows sum over the
graphs accepted by both ``search stream`` passes over the perfbench seed-7
catalogue (stream itself now sends only those that can change its report
to metric_summary), the other graphs are relabelled at random:

    graph                        n  ecc(0)   queue    ball
    4011 catalogue graphs    10-60    2-30   1.650   0.727
    26 catalogue rings      91-364   27-88   0.402   0.126
    PG(2,27)                  1514       3   1.927   0.008
    W(9)                      1640       4   0.900   0.005
    random cubic              6000      15  11.831   0.178
    random cubic              2000      13   1.085   0.012
    grid 20x100               2000     118   1.160   0.091
    grid 8x300                2400     306   1.479   0.576
    Tutte-Coxeter x30          900     120   0.150   0.026
    Heawood x200              2800     600   2.083   1.029
    cycle C_2000              2000    1000   1.059   0.634

With k < n sources a level still sweeps every edge, so ball growth loses
when the levels outnumber the sources.  Sources 0..k-1 of the rings as
built:

    graph            ecc(0)      k   queue    ball   ball/queue
    cycle C_2000       1000    500   0.195   0.379      1.95
                              1000   0.371   0.400      1.08
                              1500   0.640   0.443      0.69
                              2000   0.695   0.356      0.51
    Heawood x200        600    300   0.136   0.297      2.19
                               600   0.291   0.305      1.05
                               900   0.410   0.331      0.81
                              1200   0.581   0.418      0.72
                              2800   1.477   1.068      0.72

The break-even sits near k = ecc(0); the cut at twice that leaves a margin
for the spread between graphs, so every measured case on the ball side
won, and the rings with few shift orbits (Heawood x200 at d = 14,
Tutte-Coxeter x30 at d = 30, C_2000 at d = 1) keep the queue BFS, whose
memory stays O(n).  Width 4096 was 1.2-1.9x faster than 2048 on the
rows of n >= 2400 but doubles the O(n * width) bits of masks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import and_

__all__ = [
    "UNREACHABLE",
    "INFINITE",
    "Graph",
    "MetricSummary",
    "build_graph",
    "bfs",
    "metric_summary",
    "ball",
    "sphere",
    "induced_subgraph",
    "is_connected",
    "is_triangle_free",
]

#: Distance marker for vertices outside the source's component.
UNREACHABLE = -1

#: Girth of an acyclic graph; compares greater than every integer.
INFINITE = math.inf

#: Sources per ball-growth block; the masks take O(n * _BALL_WIDTH) bits.
_BALL_WIDTH = 2048


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


def bfs(G: Graph, v: int) -> tuple:
    """Exact hop distances from v, indexed by vertex (UNREACHABLE outside
    v's component)."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    return tuple(_distances(G.adj, v, [UNREACHABLE] * G.n))


def _distances(adj, v, dist):
    """Queue BFS from v over the entries of ``dist`` that are still
    UNREACHABLE, writing their depths in place; returns ``dist``."""
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


def _eccentricities(adj, n, k):
    """Eccentricities of the sources 0..k-1 by one queue BFS each, or None
    if the graph is disconnected."""
    eccs = []
    for v in range(k):
        dist = _distances(adj, v, [UNREACHABLE] * n)
        if UNREACHABLE in dist:
            return None
        eccs.append(max(dist))
    return eccs


def _ball_eccentricities(adj, n, k):
    """Eccentricities of the sources 0..k-1 by bit-parallel ball growth, or
    None if the graph is disconnected.

    Sources are taken _BALL_WIDTH at a time; bit i of ``balls[v]`` is set
    once d(lo + i, v) <= level, so one level ORs each vertex's mask with its
    neighbours' masks.  A source's eccentricity is the first level at which
    every mask holds its bit; a level that changes no mask while a source is
    unfinished means some vertex is out of its reach.
    """
    eccs = [0] * k
    for lo in range(0, k, _BALL_WIDTH):
        hi = min(k, lo + _BALL_WIDTH)
        balls = [0] * n
        for s in range(lo, hi):
            balls[s] = 1 << (s - lo)
        active = (1 << (hi - lo)) - 1
        level = 0
        while True:
            done = reduce(and_, balls, active)
            active ^= done
            while done:
                b = done & -done
                done ^= b
                eccs[lo + b.bit_length() - 1] = level
            if not active:
                break
            grown = []
            for mask, row in zip(balls, adj):
                for w in row:
                    mask |= balls[w]
                grown.append(mask)
            if grown == balls:
                return None
            balls = grown
            level += 1
    return eccs


def _levels(adj, n):
    """BFS depth of every vertex from the lowest vertex of its component, so
    the roots are exactly the vertices of depth 0."""
    depth = [UNREACHABLE] * n
    for v in range(n):
        if depth[v] < 0:
            _distances(adj, v, depth)
    return depth


def _bipartite(adj, depth):
    """True when no edge joins two vertices of equal depth in ``_levels``,
    i.e. the graph has no odd cycle."""
    return all(depth[u] != depth[w] for u, row in enumerate(adj) for w in row)


def _girth(adj, n, bipartite):
    """Shortest cycle length via per-root BFS, INFINITE when acyclic.

    For each root, a non-tree edge (u, w) witnesses a closed walk of length
    dist[u] + dist[w] + 1 containing a cycle no longer than that; minimising
    over all roots attains the true girth.  A vertex at depth d closes only
    walks of length 2d+1 (an edge inside its level, impossible when
    ``bipartite``) or 2d+2 (a collision one level down), so a root stops
    once that length reaches the incumbent.  Every cycle through a root is
    accounted for once the root is done, so the root is then deleted, and
    vertices left with degree below 2 (on no remaining cycle) are peeled
    away: a cycle costs one BFS, a forest none.
    """
    slack = 2 if bipartite else 1
    best = INFINITE
    degree = [len(row) for row in adj]
    alive = [True] * n
    doomed = [v for v in range(n) if degree[v] < 2]
    for root in range(n):
        while doomed:
            v = doomed.pop()
            if alive[v]:
                alive[v] = False
                for w in adj[v]:
                    degree[w] -= 1
                    if degree[w] < 2:
                        doomed.append(w)
        if not alive[root]:
            continue
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + slack >= best:
                break  # no candidate through u can beat the incumbent
            for w in adj[u]:
                if not alive[w]:
                    continue
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        if best <= 2 + slack:
            return best  # no shorter cycle exists: 3, or 4 when bipartite
        doomed.append(root)
    return best


def _levels_of(G: Graph):
    """``_levels`` of G, memoised because the girth and the metric summary
    both start from it."""
    depth = G._cache.get("levels")
    if depth is None:
        depth = G._cache["levels"] = _levels(G.adj, G.n)
    return depth


def _girth_of(G: Graph):
    """Girth of G, memoised apart from the metric summary so that callers
    needing only the girth skip the eccentricities."""
    girth = G._cache.get("girth")
    if girth is None:
        girth = G._cache["girth"] = _girth(G.adj, G.n, _bipartite(G.adj, _levels_of(G)))
    return girth


def _shift_period(adj, n):
    """Least d dividing n for which v -> (v + d) mod n maps every row
    ``adj[v]`` onto ``adj[(v + d) % n]``, so is an automorphism; n when no
    shorter shift is.  The residue classes mod d are then the finest orbits
    any label shift gives (see the module docstring)."""
    for d in range(1, n):
        if n % d == 0 and all(
            tuple(sorted((w + d) % n for w in row)) == adj[(v + d) % n]
            for v, row in enumerate(adj)
        ):
            return d
    return n


def _shift_period_of(G: Graph):
    """``_shift_period`` of G, memoised because the metric summary and the
    easy-cases centre choice both read it."""
    d = G._cache.get("shift")
    if d is None:
        d = G._cache["shift"] = _shift_period(G.adj, G.n)
    return d


def metric_summary(G: Graph) -> MetricSummary:
    """Radius/diameter (all-source BFS), girth, min degree and centres.

    One BFS sweep per component (``_levels``) decides connectivity, ecc(0)
    and bipartiteness.  On a connected graph, ``_shift_period`` finds the
    least label shift d that is an automorphism, and the eccentricities of
    the orbit representatives 0..d-1 come from ball growth when
    2 * ecc(0) <= d and from one queue BFS per source otherwise (see the
    module docstring); vertex v inherits the eccentricity of v mod d.  The
    result is memoised on the graph, which is safe because graphs are
    immutable.
    """
    cached = G._cache.get("metrics")
    if cached is not None:
        return cached
    n = G.n
    min_degree = min((len(row) for row in G.adj), default=0)
    depth = _levels_of(G)
    girth = _girth_of(G)
    if depth.count(0) != 1:  # one root per component, none when n = 0
        summary = MetricSummary(None, None, girth, min_degree, ())
    else:
        d = _shift_period_of(G)
        kernel = _ball_eccentricities if 2 * max(depth) <= d else _eccentricities
        reps = kernel(G.adj, n, d)
        radius = min(reps)
        diameter = max(reps)
        centers = tuple(v for v in range(n) if reps[v % d] == radius)
        summary = MetricSummary(radius, diameter, girth, min_degree, centers)
    G._cache["metrics"] = summary
    return summary


def is_connected(G: Graph) -> bool:
    """True when the graph has a single component (vacuously for n <= 1)."""
    return G.n <= 1 or _reach(G.rows, 1, G.n)[0] == (1 << G.n) - 1


def is_triangle_free(G: Graph) -> bool:
    """True when the graph contains no 3-cycle (girth > 3, possibly INFINITE)."""
    return _girth_of(G) > 3


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
