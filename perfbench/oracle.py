"""graph6 codec, BFS, girth floor and radius written for the benchmark alone.

The benchmark builds its inputs and checks radgraph's answers with this
module, so nothing here may import radgraph.  The codec is sparse: it only
touches the bytes that carry edges, which keeps a 650 kB ring file cheap.
"""

from __future__ import annotations

import re
from collections import deque
from math import isqrt

_NONZERO = re.compile(rb"[^?]")
_BAD_BYTE = re.compile(rb"[^?-~]")
_PLUS_63 = bytes((i + 63) & 255 for i in range(256))


def encode(n: int, edges) -> str:
    """graph6 text of the graph on 0..n-1 (n <= 258047, no header)."""
    if n <= 62:
        head = bytes((n + 63,))
    else:
        head = bytes((126,) + tuple(((n >> s) & 63) + 63 for s in (12, 6, 0)))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in edges:
        if u > v:
            u, v = v, u
        t = v * (v - 1) // 2 + u
        body[t // 6] |= 32 >> (t % 6)
    return (head + body.translate(_PLUS_63)).decode("ascii")


def decode(text) -> tuple:
    """(n, edge pairs (u, v) with u < v) of one graph6 value; ValueError when
    the value is malformed."""
    data = text.strip().encode("ascii") if isinstance(text, str) else text.strip()
    if not data or _BAD_BYTE.search(data):
        raise ValueError("empty graph6 value or byte outside 63..126")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported graph6 size field")
        n, pos = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    else:
        n, pos = data[0] - 63, 1
    body = data[pos:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body of {len(body)} bytes does not fit n={n}")
    edges = []
    for m in _NONZERO.finditer(body):
        i = m.start()
        bits = body[i] - 63
        for k in range(6):
            if bits & (32 >> k):
                t = 6 * i + k
                v = (1 + isqrt(1 + 8 * t)) // 2
                if v >= n:
                    raise ValueError("non-zero graph6 padding bits")
                edges.append((t - v * (v - 1) // 2, v))
    return n, edges


def adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def distances(adj, source: int, limit: int | None = None) -> dict:
    """Hop distance from source to every vertex within ``limit`` hops."""
    dist = {source: 0}
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du = dist[u]
        if limit is not None and du == limit:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def girth_capped(adj, cap: int) -> int:
    """min(girth, cap): a BFS of depth cap // 2 from every root finds every
    cycle shorter than cap through its root."""
    best = cap
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, du + dist[w] + 1)
    return best


def radius(adj):
    """Radius by level-synchronous multi-source BFS over bitsets, or None
    when the graph is disconnected or empty."""
    n = len(adj)
    if n == 0:
        return None
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    level = 0
    while True:
        common = full
        for r in reach:
            common &= r
        if common:
            return level
        nxt = []
        for v, row in enumerate(adj):
            acc = reach[v]
            for w in row:
                acc |= reach[w]
            nxt.append(acc)
        if nxt == reach:
            return None
        reach = nxt
        level += 1


def max_radius_g4(n: int, delta: int):
    """The paper's exact maximum radius of a connected triangle-free graph
    on n vertices with minimum degree delta >= 2 (None: no such graph)."""
    if n < 2 * delta:
        return None
    if n <= 2 * delta + 1:
        return 2
    if n < 4 * delta:
        return 3
    if delta % 2 and n % delta == 0 and (n // delta) % 2:
        return n // delta - 1
    return n // delta
