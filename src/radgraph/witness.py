"""Witness-set machinery: vertex collections whose pairwise distance
structure forces lower bounds on the host graph's order.

Three witness flavours are checked here.  A general set (girth >= 2k) may
only contain pairs that are adjacent or at distance >= 2k-1; it forces
n >= |T| d (d-1)^(k-2), plus one more when |T| is odd.  A distance-2-free
set in a triangle-free graph forbids pairs at distance exactly two and forces
n >= 2 ceil(d |T| / 2).  A two-cycles set U of size 2r whose distance-2
auxiliary graph is two disjoint r-cycles forces n >= 2 ceil(r d / 2).  Each
checker returns a :class:`BoundReport` of its set, or raises
:class:`WitnessValidationError` with the same ``kind``; :func:`find_witness`
returns the report of the general set it finds.
"""

from __future__ import annotations

from .graph import (
    Graph,
    _Record,
    _girth_of,
    _reach,
    _shift_period_of,
    _spheres,
    ball,
    bfs,
    is_triangle_free,
    metric_summary,
    sphere,
)

_GENERAL = "witness-general"
_TRIANGLE_FREE = "witness-triangle-free"
_TWO_CYCLES = "witness-two-cycles"


class BoundReport(_Record):
    """Verdict of one witness check: the set ``vertices`` forces the host
    graph's order to be at least ``claimed``, and the order is ``measured``.

    Nothing else is carried.  The counting facts behind a general bound
    (disjoint radius-(k-1) spheres, each of at least d (d-1)^(k-2) vertices)
    are checked by :func:`check_witness_general`, which raises RuntimeError
    rather than return a report when one fails.
    """

    __slots__ = ("kind", "vertices", "claimed", "measured")

    @property
    def passed(self) -> bool:
        return self.measured >= self.claimed

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "claimed": self.claimed,
            "measured": self.measured,
            "pass": self.passed,
            "witness": list(self.vertices),
        }


class WitnessValidationError(ValueError):
    """A proposed witness set violates its distance conditions.

    ``kind`` is the kind of the check that raised it, and ``pair`` names an
    offending vertex pair when one exists.
    """

    def __init__(self, message, *, kind, pair=None):
        super().__init__(message)
        self.kind = kind
        self.pair = pair


def _clean_vertex_set(G, vertices):
    out = sorted(set(vertices))
    for v in out:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for graph on {G.n} vertices")
    return out


def _compatible_masks(G, k):
    """Per vertex v, the mask of the vertices a general set may hold next to
    v: those adjacent to v or at distance >= 2k-1 (other components
    included).  Computed for the shift-orbit representatives 0..d-1 only
    (``_shift_period_of``): the shift by t, a multiple of d, is an
    automorphism, so it maps the mask of v onto that of v + t, the mask
    rotated left by t places mod n."""
    n = G.n
    d = _shift_period_of(G)
    full = (1 << n) - 1
    compat = [0] * n
    for v in range(d):
        mask = full ^ sum(1 << w for w in ball(G, v, 2 * k - 2).difference(G.adj[v]))
        for t in range(0, n, d):
            compat[v + t] = ((mask << t) | (mask >> (n - t))) & full
    return compat


def _distance_two(G, T):
    """Per member u of the sorted set T, the members at distance exactly 2
    from u, in increasing order."""
    members = set(T)
    return [sorted(members.intersection(sphere(G, u, 2))) for u in T]


def _require_triangle_free(G):
    if not is_triangle_free(G):
        raise ValueError("graph contains a triangle")


def check_witness_general(G: Graph, T, k: int) -> BoundReport:
    """Check a general witness and the sphere counting behind its bound.

    Validates that every non-adjacent pair of T is at distance >= 2k-1, then
    verifies the two counting facts the bound rests on -- the radius-(k-1)
    spheres around T are pairwise disjoint and each has at least
    d (d-1)^(k-2) vertices -- and finally compares n against
    |T| d (d-1)^(k-2) (+1 when |T| is odd).
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    girth = _girth_of(G)
    if girth < 2 * k:
        raise ValueError(f"girth {girth} is below the required {2 * k}")
    T = _clean_vertex_set(G, T)
    members = set(T)
    spheres = []
    for u in T:
        levels = _spheres(G, u, 2 * k - 2)
        spheres.append(set(levels[k - 1]) if k <= len(levels) else set())
        clash = [(w, d) for d, level in enumerate(levels[2:], 2) for w in level if w > u and w in members]
        if clash:
            w, d = min(clash)
            raise WitnessValidationError(
                f"vertices {u} and {w} are non-adjacent at distance {d} < {2 * k - 1}",
                kind=_GENERAL,
                pair=(u, w),
            )
    delta = min(G.degrees(), default=0)
    size_floor = delta * (delta - 1) ** (k - 2)
    if sum(map(len, spheres)) != len(set().union(*spheres)):
        raise RuntimeError("sphere disjointness failed despite valid witness")
    if any(len(s) < size_floor for s in spheres):
        raise RuntimeError("sphere size bound failed despite valid witness")
    claimed = len(T) * size_floor + (1 if len(T) % 2 else 0)
    return BoundReport(_GENERAL, tuple(T), claimed, G.n)


def check_witness_triangle_free(G: Graph, T) -> BoundReport:
    """Check a distance-2-free witness in a triangle-free graph.

    No two set members may be at distance exactly 2; the forced bound is
    n >= 2 ceil(d |T| / 2).
    """
    _require_triangle_free(G)
    T = _clean_vertex_set(G, T)
    pair = next(((u, w) for u, near in zip(T, _distance_two(G, T)) for w in near if w > u), None)
    if pair:
        raise WitnessValidationError(
            "vertices {} and {} are at distance exactly 2".format(*pair),
            kind=_TRIANGLE_FREE,
            pair=pair,
        )
    delta = min(G.degrees(), default=0)
    claimed = 2 * ((delta * len(T) + 1) // 2)
    return BoundReport(_TRIANGLE_FREE, tuple(T), claimed, G.n)


def check_witness_two_cycles(G: Graph, U, r: int) -> BoundReport:
    """Check a two-cycles witness in a triangle-free graph.

    The auxiliary graph on U joining pairs at distance exactly 2 must be a
    disjoint union of two r-cycles; the forced bound is n >= 2 ceil(r d / 2).
    """
    if r < 4:
        raise ValueError(f"need cycle length r >= 4, got {r}")
    _require_triangle_free(G)
    U = _clean_vertex_set(G, U)
    if len(U) != 2 * r:
        raise WitnessValidationError(
            f"witness has {len(U)} distinct vertices, need exactly 2r = {2 * r}",
            kind=_TWO_CYCLES,
        )
    index = {v: i for i, v in enumerate(U)}
    aux = [sum(1 << index[w] for w in near) for near in _distance_two(G, U)]
    comp_sizes = []
    rest = (1 << len(U)) - 1
    while rest:
        comp = _reach(aux, rest & -rest, len(U))[0]
        comp_sizes.append(comp.bit_count())
        rest &= ~comp
    degrees = sorted(row.bit_count() for row in aux)
    shape_ok = (
        len(comp_sizes) == 2
        and all(size == r for size in comp_sizes)
        and degrees[0] == 2
        and degrees[-1] == 2
    )
    if not shape_ok:
        raise WitnessValidationError(
            "auxiliary distance-2 graph is not two disjoint "
            f"{r}-cycles: component sizes {sorted(comp_sizes)}, "
            f"degrees range {degrees[0]}..{degrees[-1]}",
            kind=_TWO_CYCLES,
        )
    delta = min(G.degrees(), default=0)
    claimed = 2 * ((r * delta + 1) // 2)
    return BoundReport(_TWO_CYCLES, tuple(U), claimed, G.n)


# -- witness search ----------------------------------------------------------


def _witness_ceiling(compat):
    """Number of cliques in a greedy partition of the conflict graph, an
    upper bound on every witness with these compatibility masks.

    Two distinct vertices conflict when they are not compatible (non-adjacent
    at distance 2..2k-2).  Each clique starts at the lowest vertex left and
    grows by the lowest vertex left that conflicts with all its members.  A
    witness holds at most one vertex of each clique: the cliques are colour
    classes of the compatibility graph, so this is the colouring bound of
    Tomita & Seki (DMTCS 2003) taken once at the root.
    """
    rest = (1 << len(compat)) - 1
    count = 0
    while rest:
        common = rest
        while common:
            low = common & -common
            rest ^= low
            common &= rest & ~compat[low.bit_length() - 1]
        count += 1
    return count


def find_witness(G: Graph, k: int, budget: int = 10**6) -> BoundReport:
    """Best-effort maximum general witness set, as the
    :func:`check_witness_general` report of that set.

    A greedy pass seeded by BFS layers around the canonical centre produces a
    valid set; a branch-and-bound refinement over the pairwise-compatibility
    graph then searches for a larger one within ``budget`` branch nodes.
    The compatibility masks are swept from the shift-orbit representatives
    only and rotated onto the other vertices (``_compatible_masks``), so
    glued Heawood x200 sweeps 14 of its 2800.  They are the one graph path
    that keeps an n-bit mask per vertex, n^2/8 bytes in all; every check
    and ball reads the neighbour tuples.
    When the search completes it returns the lexicographically smallest
    maximum-size set.  The set is the report's ``vertices``; the check runs
    once, on the set returned.

    The search also stops as soon as its best set reaches the root ceiling
    of :func:`_witness_ceiling`, which no witness can exceed.  That cannot
    change the result: the best set is only ever replaced by a strictly
    larger one, so once at the ceiling the remaining nodes would leave it
    as it is.  On the glued bipartite cages the ceiling equals the maximum,
    so the search ends as soon as it finds one instead of spending its
    budget.  A negative ``budget`` raises ValueError.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    ms = metric_summary(G)  # its girth comes free with the eccentricities on dense graphs
    if ms.girth < 2 * k:
        raise ValueError(f"girth {ms.girth} is below the required {2 * k}")
    n = G.n
    compat = _compatible_masks(G, k)

    center = ms.centers[0] if ms.centers else 0
    layer = bfs(G, center) if n else ()
    order = sorted(range(n), key=lambda v: (layer[v], v))
    greedy: list = []
    greedy_mask = (1 << n) - 1
    for v in order:
        if (greedy_mask >> v) & 1:
            greedy.append(v)
            greedy_mask &= compat[v]
    greedy.sort()

    # Depth-first branch and bound, including the lowest candidate before
    # excluding it.  Each stack entry is (size of its chosen prefix,
    # candidates); entries above it only touch chosen[size:], so popping one
    # truncates ``chosen`` back to its own prefix.
    best: list = []
    chosen: list = []
    stack = [(0, (1 << n) - 1)]
    nodes = budget
    ceiling = _witness_ceiling(compat)
    while stack and nodes > 0:
        nodes -= 1
        size, cand = stack.pop()
        del chosen[size:]
        if not cand:
            if size > len(best):
                best = chosen[:]
                if size == ceiling:
                    break
            continue
        if size + cand.bit_count() <= len(best):
            continue
        low = cand & -cand
        stack.append((size, cand ^ low))
        chosen.append(low.bit_length() - 1)
        stack.append((size + 1, cand & compat[chosen[-1]]))

    pick = min((greedy, best), key=lambda s: (-len(s), s))
    return check_witness_general(G, pick, k)

