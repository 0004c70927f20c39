"""Immutable simple graphs and their metric invariants.

Vertices are the integers 0..n-1.  ``Graph`` instances are frozen after
construction and every function in this module is a pure read, so one graph
can be shared by any number of callers; a copy or a pickle round trip goes
through the constructor (``__reduce__``).

Which metric path runs when.  ``metric_summary`` first runs one BFS from
vertex 0 (and one from each further component), which gives connectivity,
ecc(0) and bipartiteness; every fact derived from a graph is memoised on
it through one accessor, ``_memo``.  Where the eccentricities come from
ball growth (below), the girth comes with them: the same levels also catch
the shortest cycle through each source.  Elsewhere, and for callers that
need only the girth (``_girth_of``, for the witness checkers and the
search), it comes from per-root BFS over the shift-orbit representatives
0..d-1 (below), with a depth cutoff one level tighter on bipartite graphs
and with finished roots deleted; ``is_triangle_free`` needs none: it
tests whether the two ends of an edge share a neighbour.

On a connected graph, ``_shift_period`` then looks for a label shift
v -> (v + d) mod n that is an automorphism, checking each divisor d of n in
increasing order row by row and stopping at the first row that disagrees.
The shifts that are automorphisms form a subgroup of Z_n; it is generated
by its least positive element, which divides n, so the first d that
verifies has the finest orbits a shift can give: the residue classes mod d.
Eccentricity is constant on an orbit, so only the sources 0..d-1 are
computed, and d = n (no shift) computes every source as before.
``glue_cycle`` labels copy i as i * |H| + v, so every ring it writes has
such a shift: after the ``_levels`` sweep, which gave ecc(0), Heawood x200
(n = 2800) needs 13 more BFSs, Tutte-Coxeter x30 (n = 900) 29 and the
cycle C_2000 none, and PG(2,27) (n = 1514) has the point/line swap
d = 757, so ball growth runs half the sources.  The successful check on
Heawood x200 takes about 4 ms; a graph with no shift, such as W(9) or a
randomly relabelled ring, pays one failed check per divisor, most of them
at the first row.

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

The girth on the ball path costs two more mask operations per edge, plus
one more pass over the edges on a graph with odd cycles, and only at the
levels that could still beat the shortest cycle found: bit i of
``twice`` marks a source in the balls of two neighbours of v, and when v is
not yet in its ball, the two paths close a cycle (see
``_ball_eccentricities``).  Every cycle has an image under the shift
through one of the sources 0..d-1, so they suffice on both paths.  Seconds,
best of three in process on the same machine (two such runs differed by up
to 30 %); "all n" is the per-root BFS from every vertex, for comparison:

                                          per-root BFS     ball growth
    graph                   n       d   all n   0..d-1   eccs  + girth
    PG(2,27)             1514     757   0.037    0.037  0.008    0.012
    W(9)                 1640    1640   0.044   (d = n)  0.008    0.014
    Heawood x200         2800      14   0.021   <0.001  (queue path)
    Tutte-Coxeter x30     900      30   0.004   <0.001  (queue path)
    cycle C_2000         2000       1   0.001    0.001  (queue path)
    relabelled Heawood   2800    2800   0.021   (d = n)  1.361    1.294
      x200

So the girth costs the dense cages 4-6 ms on the ball path, against about
40 ms for the per-root BFS from their roots 0..d-1.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from operator import and_

#: Distance marker for vertices outside the source's component.
UNREACHABLE = -1

#: Girth of an acyclic graph; compares greater than every integer.
INFINITE = math.inf

#: Sources per ball-growth block; the masks take O(n * _BALL_WIDTH) bits.
_BALL_WIDTH = 2048


class Graph:
    """Simple undirected graph fixed by its sorted per-vertex neighbour tuples.

    ``adj[v]`` is the sorted tuple of v's neighbours, and the order ``n`` and
    ``edge_count`` are read from it.  :func:`build_graph` builds ``adj`` from
    an edge list and checks it; ``Graph(adj)`` takes the tuples as given.
    """

    __slots__ = ("n", "adj", "edge_count", "_cache")

    def __init__(self, adj: tuple):
        self.n = len(adj)
        self.adj = adj
        self.edge_count = sum(map(len, adj)) // 2
        self._cache: dict = {}

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adj]

    def edges(self):
        """Yield every edge once as a pair (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"

    def __reduce__(self):
        # every pickle protocol, and no memo in the pickle
        return (Graph, (self.adj,))


class _Record:
    """Immutable record over its subclass's ``__slots__``, with what a frozen
    dataclass generates, but no ``dataclasses`` import: positional or keyword
    construction, ``==``, ``hash`` and ``repr`` over the fields, and
    AttributeError on assignment.  ``copy.copy``, ``copy.deepcopy`` and
    unpickling go through the constructor (``__reduce__``), since restoring
    slot state would assign fields."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class MetricSummary(_Record):
    """Radius, diameter, girth, minimum degree and the centre set of a graph.

    ``radius``/``diameter`` are ``None`` for disconnected graphs, girth is
    ``INFINITE`` for forests, and ``centers`` lists the vertices of minimum
    eccentricity in increasing order (so ``centers[0]`` is the canonical
    single centre).
    """

    __slots__ = ("radius", "diameter", "girth", "min_degree", "centers")


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
    return Graph(tuple(tuple(sorted(row)) for row in rows))


def _from_rows(rows) -> Graph:
    """The graph of the symmetric adjacency bitmasks ``rows``: the set bits
    of each row, read highest first and reversed, are its sorted neighbour
    tuple, so no ``build_graph`` is needed.  Taking the top bit shrinks the
    row as it goes, where ``row & -row`` would span the whole row per bit."""
    adj = []
    for row in rows:
        nbrs = []
        while row:
            top = row.bit_length() - 1
            nbrs.append(top)
            row ^= 1 << top
        adj.append(tuple(nbrs[::-1]))
    return Graph(tuple(adj))


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


def _eccentricities(adj, n, sources):
    """Eccentricities of ``sources`` in a connected graph, by one queue BFS
    each."""
    return [max(_distances(adj, v, [UNREACHABLE] * n)) for v in sources]


def _ball_eccentricities(adj, n, k, best=INFINITE, odd=True):
    """Eccentricities of the sources 0..k-1 by bit-parallel ball growth, and
    the length of a shortest cycle through any of them if it is below
    ``best`` (``best`` otherwise), or None if the graph is disconnected.

    Sources are taken _BALL_WIDTH at a time; bit i of ``balls[v]`` is set
    once d(lo + i, v) <= level, so one level ORs each vertex's mask with its
    neighbours' masks.  A source's eccentricity is the first level at which
    every mask holds its bit; a level that changes no mask while a source is
    unfinished means some vertex is out of its reach.

    While a cycle of length 2 * level + 2 would still beat ``best``, the
    level also collects ``twice``, the sources in the balls of two distinct
    neighbours of v: one outside v's own ball has both at distance level and
    v at level + 1, closing a cycle of length at most 2 * level + 2, and the
    rest of the level then looks no further.  When
    ``odd`` (the graph may have odd cycles), an edge whose two ends gain the
    same source at one level closes a cycle of length at most 2 * level + 1.
    A shortest cycle is geodesic, so a source on it sees it at exactly its
    length, no later than the level that finishes that source.
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
            look = level and 2 * level + 2 < best
            for mask, row in zip(balls, adj):
                if look:
                    acc = twice = 0
                    for w in row:
                        b = balls[w]
                        twice |= acc & b
                        acc |= b
                    if twice & ~mask:  # the rest of the level can find no shorter cycle
                        best = 2 * level + 2
                        look = False
                    mask |= acc
                else:
                    for w in row:
                        mask |= balls[w]
                grown.append(mask)
            if grown == balls:
                return None
            level += 1
            if odd and 2 * level + 1 < best:
                new = [g ^ b for g, b in zip(grown, balls)]
                if any(fresh & new[w] for fresh, row in zip(new, adj) if fresh for w in row):
                    best = 2 * level + 1
            balls = grown
    return eccs, best


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


def _girth(adj, n, bipartite, k):
    """Shortest cycle length via BFS from the roots 0..k-1, INFINITE when
    acyclic; k is n, or a shift period of the graph (``_shift_period``).

    For each root, a non-tree edge (u, w) witnesses a closed walk of length
    dist[u] + dist[w] + 1 containing a cycle no longer than that; minimising
    over roots that include a vertex of a shortest cycle attains the girth.
    Every cycle has an image under the shift through one of the roots
    0..k-1, so they suffice.  A vertex at depth d closes only walks of
    length 2d+1 (an edge inside its level, impossible when ``bipartite``) or
    2d+2 (a collision one level down), so a root stops once that length
    reaches the incumbent.  Every cycle through a root is accounted for once
    the root is done, so the root is then deleted, and vertices left with
    degree below 2 (on no remaining cycle) are peeled away: a cycle costs
    one BFS, a forest none.
    """
    slack = 2 if bipartite else 1
    best = INFINITE
    degree = [len(row) for row in adj]
    alive = [True] * n
    doomed = [v for v in range(n) if degree[v] < 2]
    for root in range(k):
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


def _memo(G: Graph, key, make):
    """``make(G)``, computed once and kept in ``G._cache[key]``: the one memo
    of every fact derived from G, safe because graphs are immutable."""
    cache = G._cache
    if key not in cache:
        cache[key] = make(G)
    return cache[key]


def _levels_of(G: Graph):
    """``_levels`` of G, memoised because the girth, the metric summary and
    ``is_connected`` all start from it."""
    return _memo(G, "levels", lambda G: _levels(G.adj, G.n))


def _bipartite_of(G: Graph):
    """``_bipartite`` of G, memoised for the girth and ball growth."""
    return _memo(G, "bipartite", lambda G: _bipartite(G.adj, _levels_of(G)))


def _girth_of(G: Graph):
    """Girth of G, memoised apart from the metric summary so that callers
    needing only the girth skip the eccentricities; the per-root BFS runs
    from the shift-orbit representatives only."""
    return _memo(G, "girth", lambda G: _girth(G.adj, G.n, _bipartite_of(G), _shift_period_of(G)))


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
    """``_shift_period`` of G, memoised because ``_girth_of``,
    ``metric_summary`` and ``witness._compatible_masks`` all read it."""
    return _memo(G, "shift", lambda G: _shift_period(G.adj, G.n))


def metric_summary(G: Graph) -> MetricSummary:
    """Radius/diameter (all-source BFS), girth, min degree and centres.

    One BFS sweep per component (``_levels``) decides connectivity and
    bipartiteness, and its depths from vertex 0 give ecc(0).  On a connected
    graph, ``_shift_period`` finds the least label shift d that is an
    automorphism, and the eccentricities of the orbit representatives
    0..d-1 come from ball growth when 2 * ecc(0) <= d and from one queue BFS
    per source 1..d-1 otherwise (see the module docstring); vertex v
    inherits the eccentricity of v mod d.  Ball growth also finds the girth,
    looking only for a cycle shorter than one ``_girth_of`` already found;
    otherwise ``_girth_of`` computes it.  The result is memoised.
    """
    return _memo(G, "metrics", _summary)


def _summary(G: Graph) -> MetricSummary:
    """:func:`metric_summary` before the memo."""
    n = G.n
    min_degree = min((len(row) for row in G.adj), default=0)
    depth = _levels_of(G)
    if depth.count(0) != 1:  # one root per component, none when n = 0
        return MetricSummary(None, None, _girth_of(G), min_degree, ())
    d = _shift_period_of(G)
    ecc0 = max(depth)  # the sweep from vertex 0
    if 2 * ecc0 > d:
        reps = [ecc0] + _eccentricities(G.adj, n, range(1, d))
    else:  # ball growth finds the girth on the way, or keeps the one known
        reps, G._cache["girth"] = _ball_eccentricities(
            G.adj, n, d, G._cache.get("girth", INFINITE), not _bipartite_of(G))
    radius = min(reps)
    centers = tuple(v for v in range(n) if reps[v % d] == radius)
    return MetricSummary(radius, max(reps), _girth_of(G), min_degree, centers)


def is_connected(G: Graph) -> bool:
    """True when the graph has a single component (vacuously for n <= 1)."""
    return _levels_of(G).count(0) <= 1


def is_triangle_free(G: Graph) -> bool:
    """True when the graph contains no 3-cycle (girth > 3, possibly INFINITE):
    the two ends of no edge share a neighbour."""
    adj = G.adj
    return all(near.isdisjoint(adj[w]) for u, near in enumerate(map(set, adj)) for w in adj[u] if w > u)


def _spheres(G: Graph, v: int, k: int) -> list:
    """The spheres 0..k around v as vertex lists, by a BFS over ``G.adj``
    that stops at depth k, or after the last non-empty sphere."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    if k < 0:
        raise ValueError(f"radius must be non-negative, got {k}")
    seen = {v}
    levels = [[v]]
    for _ in range(k):
        level = list(dict.fromkeys(w for u in levels[-1] for w in G.adj[u] if w not in seen))
        if not level:
            break
        seen.update(level)
        levels.append(level)
    return levels


def ball(G: Graph, v: int, k: int) -> set:
    """The set { w : d(v, w) <= k }."""
    return {w for level in _spheres(G, v, k) for w in level}


def sphere(G: Graph, v: int, k: int) -> set:
    """The set { w : d(v, w) == k }."""
    levels = _spheres(G, v, k)
    return set(levels[k]) if k < len(levels) else set()


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
