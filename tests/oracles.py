"""Independent brute-force oracles used to freeze expected test values.

Nothing here may call into the package's metric code: distances come from
Floyd-Warshall, girth from explicit enumeration of all simple cycles, and
bridges from per-edge deletion.  These stay deliberately slow and obvious.
"""

from itertools import combinations, permutations

from radgraph import build_graph

INF = float("inf")


def floyd_distances(n, edges):
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def naive_radius_diameter(n, edges):
    dist = floyd_distances(n, edges)
    eccs = [max(row) for row in dist]
    if any(e == INF for e in eccs):
        return None, None
    return min(eccs), max(eccs)


def naive_girth(n, edges):
    """Shortest cycle length by enumerating all simple cycles via DFS.

    Each cycle is found from its smallest vertex, walking only through larger
    vertices, which visits every cycle at least once.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = INF

    def walk(start, current, previous, length, visited):
        nonlocal best
        if length + 1 >= best:
            return
        for nxt in adj[current]:
            if nxt == start and nxt != previous and length >= 2:
                best = min(best, length + 1)
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                walk(start, nxt, current, length + 1, visited)
                visited.discard(nxt)

    for s in range(n):
        walk(s, s, -1, 0, {s})
    return best


def naive_bridges(n, edges):
    """An edge is a bridge iff deleting it increases the component count."""
    edges = [tuple(sorted(e)) for e in edges]

    def components(edge_list):
        seen = set()
        count = 0
        adj = [[] for _ in range(n)]
        for u, v in edge_list:
            adj[u].append(v)
            adj[v].append(u)
        for s in range(n):
            if s in seen:
                continue
            count += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return count

    base = components(edges)
    out = set()
    for e in edges:
        rest = [f for f in edges if f != e]
        if components(rest) > base:
            out.add(e)
    return out


def max_general_witness_size(n, edges, k):
    """Largest valid distance-witness set by brute force over all subsets."""
    dist = floyd_distances(n, edges)
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(n), size):
            ok = True
            for i, u in enumerate(sub):
                for w in sub[i + 1:]:
                    d = dist[u][w]
                    if d != 1 and d < 2 * k - 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return size
    return best


def find_witness_reference(n, edges, k, budget):
    """The witness search as it was before its root ceiling: the same greedy
    seed and budgeted branch and bound, with the centre, BFS layers and
    compatibility masks taken from Floyd-Warshall distances.  Returns the
    chosen vertex tuple."""
    dist = floyd_distances(n, edges)
    compat = [
        sum(1 << w for w in range(n) if w != v and (dist[v][w] == 1 or dist[v][w] >= 2 * k - 1))
        for v in range(n)
    ]
    eccs = [max(row) for row in dist]
    center = eccs.index(min(eccs)) if n and max(eccs) < INF else 0
    layer = [-1 if d == INF else d for d in dist[center]] if n else ()

    order = sorted(range(n), key=lambda v: (layer[v], v))
    greedy = []
    greedy_mask = (1 << n) - 1
    for v in order:
        if (greedy_mask >> v) & 1:
            greedy.append(v)
            greedy_mask &= compat[v]
    greedy.sort()

    best = []
    chosen = []
    stack = [(0, (1 << n) - 1)]
    nodes = budget
    while stack and nodes > 0:
        nodes -= 1
        size, cand = stack.pop()
        del chosen[size:]
        if not cand:
            if size > len(best):
                best = chosen[:]
            continue
        if size + cand.bit_count() <= len(best):
            continue
        low = cand & -cand
        stack.append((size, cand ^ low))
        chosen.append(low.bit_length() - 1)
        stack.append((size + 1, cand & compat[chosen[-1]]))

    return tuple(min((greedy, best), key=lambda s: (-len(s), s)))


def rows_of(G):
    """Adjacency bitmasks of G: bit w of ``rows_of(G)[v]`` is set when v ~ w."""
    return tuple(sum(1 << w for w in row) for row in G.adj)


def ball_reference(rows, u, radius):
    """Mask of the vertices within ``radius`` hops of u over the adjacency
    bitmasks ``rows``, one vertex at a time."""
    seen = frontier = {u}
    for _ in range(radius):
        frontier = {w for x in frontier for w in range(len(rows)) if rows[x] >> w & 1} - seen
        seen = seen | frontier
    return sum(1 << w for w in seen)


def walk_reference(n, delta, g, rows, deg, start_v, stop_v, visit):
    """The labelled walk as it was before its pick loop: vertex v decides
    its back-edges to u = 0, 1, ..., v-1 in turn, first with the edge and
    then without it, and sweeps the far mask of every u < v on entry.  Same
    contract as ``search._walk``."""

    def place(v):
        if v == stop_v:
            visit()
            return
        future = n - 1 - v
        vbit = 1 << v
        below = vbit - 1
        fars = [below & ~ball_reference(rows, u, g - 3) for u in range(v)]

        def choose(u, cnt, allowed):
            if cnt + (v - u) + future < delta:
                return
            if u == v:
                place(v + 1)
                return
            ubit = 1 << u
            if allowed & ubit:
                rows[u] |= vbit
                rows[v] |= ubit
                deg[u] += 1
                deg[v] += 1
                choose(u + 1, cnt + 1, allowed & fars[u])
                deg[u] -= 1
                deg[v] -= 1
                rows[u] &= ~vbit
                rows[v] &= ~ubit
            if deg[u] + future >= delta:
                choose(u + 1, cnt, allowed)

        choose(0, 0, below)

    place(start_v)


#: (s, rows) -> (the smallest graph6 encoding over the orbit of rows, that of rows)
_CANONICAL = {}


def _prefix_facts(s, rows):
    """(canonical form, graph6 encoding) of the s-vertex graph with adjacency
    rows ``rows``; the canonical form is the smallest encoding over all s!
    relabellings.  The first call on an orbit relabels its member by every
    permutation, encodes each distinct image once and enters every image, so
    each later walk that reaches depth s reads its prefixes from the table."""
    if (s, rows) not in _CANONICAL:
        edges = [(u, w) for w in range(s) for u in range(w) if rows[w] >> u & 1]
        images = {}
        for perm in permutations(range(s)):
            image = [(perm[u], perm[w]) for u, w in edges]
            out = [0] * s
            for u, w in image:
                out[u] |= 1 << w
                out[w] |= 1 << u
            out = tuple(out)
            if out not in images:
                images[out] = graph6_reference(s, image)
        smallest = min(images.values())
        _CANONICAL.update(((s, image), (smallest, code)) for image, code in images.items())
    return _CANONICAL[s, rows]


def prefix_orbits_reference(prefixes, s):
    """The split prefixes grouped into orbits by brute force: each prefix is
    keyed by its canonical form, the smallest encoding over all s!
    permutations of vertices 0..s-1, where ``search._prefix_orbits`` reaches
    the orbit's members from two generators.  Returns what
    ``search._prefix_orbits`` returns for the walk that found ``prefixes``:
    (rows, deg, weight) per orbit, the member with the smallest encoding on
    s vertices and the number of members, fewest prefix edges first, ties in
    order of first appearance."""
    groups = {}
    for rows, deg in prefixes:
        canonical, encoding = _prefix_facts(s, rows[:s])
        groups.setdefault(canonical, []).append((encoding, rows, deg))
    orbits = [(*min(members)[1:], len(members)) for members in groups.values()]
    return sorted(orbits, key=lambda orbit: sum(orbit[1]))


def graph6_reference(n, edges):
    """graph6 bytes by the plain bit loop: the size header, then bit (i, j)
    for every column j = 1..n-1 and row i < j, packed big-endian into 6-bit
    groups offset by 63, with zero padding."""
    if n <= 62:
        out = bytearray((n + 63,))
    elif n <= 258047:
        out = bytearray((126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63))
    else:
        out = bytearray((126, 126)) + bytes(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    acc = 0
    fill = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if (i, j) in edge_set else 0)
            fill += 1
            if fill == 6:
                out.append(acc + 63)
                acc = 0
                fill = 0
    if fill:
        out.append((acc << (6 - fill)) + 63)
    return bytes(out)


def from_graph6_reference(data):
    """graph6 decoding by the plain bit loop, one adjacency bit per step,
    with its own size-header parser; raises ValueError for a malformed size
    header, body length, body byte or non-zero padding."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 data")
    if data[0] != 126:
        width, pos = 1, 0
    elif len(data) >= 2 and data[1] != 126:
        width, pos = 3, 1
    else:
        width, pos = 6, 2
    if len(data) < pos + width:
        raise ValueError("truncated graph6 size field")
    n = 0
    for b in data[pos:pos + width]:
        if not 63 <= b <= 126:
            raise ValueError(f"invalid graph6 size byte {b!r}")
        n = (n << 6) | (b - 63)
    body = data[pos + width:]
    expect = (n * (n - 1) // 2 + 5) // 6
    if len(body) != expect:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {expect} for n={n}")
    for b in body:
        if not 63 <= b <= 126:
            raise ValueError(f"invalid graph6 byte {b!r}")
    edges = []
    idx = bits = acc = 0
    for j in range(1, n):
        for i in range(j):
            if bits == 0:
                acc = body[idx] - 63
                idx += 1
                bits = 6
            bits -= 1
            if (acc >> bits) & 1:
                edges.append((i, j))
    if bits and acc & ((1 << bits) - 1):
        raise ValueError("non-zero padding bits in graph6 data")
    return build_graph(n, edges)
