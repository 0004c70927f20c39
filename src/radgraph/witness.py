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
    _geodesic,
    _girth_of,
    _reach,
    _shift_period_of,
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


def _compatible(G, v, k):
    """Mask of the vertices a general set may hold next to v: those
    adjacent to v or at distance >= 2k-1 (other components included)."""
    near = _reach(G.rows, 1 << v, 2 * k - 2)[0]
    return (~near | G.rows[v]) & ((1 << G.n) - 1)


def _compatible_masks(G, k):
    """``_compatible(G, v, k)`` for every v, computed for the shift-orbit
    representatives 0..d-1 only (``_shift_period_of``): the shift by t, a
    multiple of d, is an automorphism, so it maps the mask of v onto that of
    v + t, the mask rotated left by t places mod n."""
    n = G.n
    d = _shift_period_of(G)
    full = (1 << n) - 1
    compat = [0] * n
    for v in range(d):
        mask = _compatible(G, v, k)
        for t in range(0, n, d):
            compat[v + t] = ((mask << t) | (mask >> (n - t))) & full
    return compat


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
    later = sum(1 << v for v in T)
    for u in T:
        later ^= 1 << u
        clash = later & ~_compatible(G, u, k)
        if clash:
            w = (clash & -clash).bit_length() - 1
            d = bfs(G, u)[w]
            raise WitnessValidationError(
                f"vertices {u} and {w} are non-adjacent at distance {d} < {2 * k - 1}",
                kind=_GENERAL,
                pair=(u, w),
            )
    delta = min(G.degrees(), default=0)
    size_floor = delta * (delta - 1) ** (k - 2)
    spheres = [sphere(G, v, k - 1) for v in T]
    union: set = set()
    total = 0
    for s in spheres:
        union |= s
        total += len(s)
    if total != len(union):
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
    dist = {v: bfs(G, v) for v in T}
    for i, u in enumerate(T):
        for w in T[i + 1:]:
            if dist[u][w] == 2:
                raise WitnessValidationError(
                    f"vertices {u} and {w} are at distance exactly 2",
                    kind=_TRIANGLE_FREE,
                    pair=(u, w),
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
    dist = {v: bfs(G, v) for v in U}
    aux = [0] * len(U)
    for i, u in enumerate(U):
        for j in range(i + 1, len(U)):
            if dist[u][U[j]] == 2:
                aux[i] |= 1 << j
                aux[j] |= 1 << i
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
    glued Heawood x200 sweeps 14 of its 2800.
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


# -- geodesic index patterns ---------------------------------------------------


def _pairs(start, count):
    out = []
    for i in range(count):
        out.append(start + 4 * i)
        out.append(start + 4 * i + 1)
    return out


# Index patterns for a distance-2-avoiding collection along two geodesics,
# keyed by (r mod 4, t).  Each side is (leading singles, first pair start,
# pair count offset added to k = r//4, trailing offsets added to 4k).
_EASYCASES_TABLE = {
    (0, 0): (((), 3, 0, ()), ((), 3, 0, ())),
    (0, 1): (((0,), 3, 0, ()), ((), 3, -1, (-1,))),
    (0, 2): (((), 3, 0, ()), ((), 1, 0, ())),
    (0, 3): (((0,), 3, 0, ()), ((1,), 4, -1, ())),
    (1, 0): (((0,), 4, 0, ()), ((), 4, 0, ())),
    (1, 1): (((0,), 3, 0, ()), ((), 3, 0, ())),
    (1, 2): (((0, 1), 4, 0, ()), ((), 3, -1, (-1,))),
    (2, 0): (((0, 1), 5, 0, ()), ((), 5, 0, ())),
    (2, 1): (((0, 1), 4, 0, ()), ((), 4, 0, ())),
    (2, 2): (((0, 1), 5, 0, ()), ((), 3, 0, ())),
    (2, 3): (((1, 2), 5, 0, ()), ((), 2, 0, ())),
}


def _materialise_side(side, k):
    singles, pair_start, count_off, tail_offs = side
    idx = list(singles)
    idx.extend(_pairs(pair_start, k + count_off))
    idx.extend(4 * k + off for off in tail_offs)
    return tuple(idx)


def easycases_pattern(r: int, t: int) -> tuple:
    """Index pattern (unprimed, primed) for a size-r distance-2-avoiding
    collection along a geodesic pair with shift t.

    Defined for r >= 4 with (r mod 4, t) in the eleven supported rows:
    r = 0, 2 (mod 4) with t in 0..3 and r = 1 (mod 4) with t in 0..2.  The
    remaining configurations need different machinery and raise ValueError.
    """
    if r < 4:
        raise ValueError(f"patterns are defined for r >= 4, got {r}")
    key = (r % 4, t)
    if key not in _EASYCASES_TABLE:
        raise ValueError(
            f"no pattern for r = {r} (mod 4 = {r % 4}) with shift t = {t}"
        )
    k = r // 4
    unprimed_side, primed_side = _EASYCASES_TABLE[key]
    unprimed = _materialise_side(unprimed_side, k)
    primed = _materialise_side(primed_side, k)
    return unprimed, primed


def _check_paths(G, path, vprime_path):
    if not path or not vprime_path:
        raise ValueError("paths must be non-empty")
    if path[0] != vprime_path[0]:
        raise ValueError("both paths must start at the same centre vertex")
    dist0 = bfs(G, path[0])
    for name, p in (("path", path), ("vprime_path", vprime_path)):
        for i in range(len(p) - 1):
            if not G.has_edge(p[i], p[i + 1]):
                raise ValueError(f"{name} is not a path: {p[i]} !~ {p[i + 1]}")
        for i, v in enumerate(p):
            if dist0[v] != i:
                raise ValueError(
                    f"{name} is not a shortest path: d(v0, {v}) = {dist0[v]} != {i}"
                )
    return dist0


def check_easycases_instantiation(G: Graph, path, vprime_path) -> BoundReport:
    """Instantiate the pattern for r = len(path)-1 and the shift
    t = len(path) - len(vprime_path) on two geodesics and run the
    triangle-free witness check on the resulting collection.

    Raises WitnessValidationError when the instantiated vertices are not r
    distinct vertices (a collapsed pattern) and propagates pattern-domain
    failures (a negative shift among them) and distance-condition failures.
    """
    _check_paths(G, path, vprime_path)
    r = len(path) - 1
    unprimed, primed = easycases_pattern(r, len(path) - len(vprime_path))
    verts = [path[i] for i in unprimed] + [vprime_path[j] for j in primed]
    if len(set(verts)) != r:
        raise WitnessValidationError(
            f"pattern instantiation produced {len(set(verts))} distinct vertices, expected {r}",
            kind=_TRIANGLE_FREE,
        )
    return check_witness_triangle_free(G, verts)


def easycases_configuration(G: Graph) -> tuple:
    """Select the geodesic pair (path, vprime_path) the pattern rows expect.

    The centre v0 is the centre with the fewest vertices at distance exactly
    r (ties to the lowest index); v_r is the lowest farthest vertex.  The far
    endpoint v' is the lowest vertex with d(v_3, v') >= r+1 when v_3 is not a
    centre, otherwise the lowest vertex with d(v_3, v') = r and d(v0, v') < r.
    """
    ms = metric_summary(G)
    if ms.radius is None:
        raise ValueError("graph must be connected")
    r = ms.radius
    if r < 4:
        raise ValueError(f"configuration needs radius >= 4, got {r}")
    # a label shift by d is an automorphism, so the count is constant on each
    # shift orbit and the least (count, c) has a centre c < d
    d = _shift_period_of(G)
    v0 = min((bfs(G, c).count(r), c) for c in ms.centers if c < d)[1]
    dist0 = bfs(G, v0)
    target = min(v for v in range(G.n) if dist0[v] == r)
    path = _geodesic(G, dist0, target)
    v3 = path[3]
    dist3 = bfs(G, v3)
    if max(dist3) > r:
        vprime = min(v for v in range(G.n) if dist3[v] > r)
    else:
        candidates = [v for v in range(G.n) if dist3[v] == r and dist0[v] < r]
        if not candidates:
            raise ValueError("no admissible far vertex for this centre")
        vprime = min(candidates)
    vprime_path = _geodesic(G, dist0, vprime)
    return tuple(path), tuple(vprime_path)


def upper_bound_witness_pattern(r: int, k: int, t: int) -> tuple:
    """Index pattern (unprimed, primed) spread at stride 2k along a geodesic
    pair, used at girth >= 2k.

    The four constituent families have sizes q+1, q, q-1, q-2 for
    q = floor(r / 2k), so the total is at least 2r/k - 6.  Requires r >= 2k
    and a shift 0 <= t <= 2k.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if r < 2 * k:
        raise ValueError(f"pattern needs r >= 2k = {2 * k}, got {r}")
    if not 0 <= t <= 2 * k:
        raise ValueError(f"shift must be within 0..{2 * k}, got {t}")
    q = r // (2 * k)
    unprimed = sorted(
        {2 * k * i for i in range(q + 1)} | {2 * k * i + 1 for i in range(q)}
    )
    primed = sorted(
        {2 * k * i for i in range(1, q)} | {2 * k * i + 1 for i in range(1, q - 1)}
    )
    return tuple(unprimed), tuple(primed)


# -- geodesic observations -----------------------------------------------------


class GeodesicObservationReport(_Record):
    """Outcome of the three geodesic-pair observations.

    ``far_distance`` is D = d(v_m, v'), and the observations assume the
    precondition D >= r.  They state: the shift obeys t <= m; d(v_i, v'_j)
    respects the two displayed lower bounds plus |i - j|; and the two
    geodesics share no vertices beyond the permitted prefix coincidences.
    ``violations`` holds one message per failed fact, of four classes: the
    precondition (``< r =``), the shift (``exceeds``), a distance bound
    (``below the bound``) and distinctness (``coincides``).
    """

    __slots__ = ("r", "t", "m", "far_distance", "violations")

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_geodesic_observations(
    G: Graph, path, m: int, vprime_path
) -> GeodesicObservationReport:
    """Evaluate the three geodesic observations on two geodesics from the
    centre path[0].

    Structural defects (not shortest paths from one start, a start that is
    not a true centre, bad m) raise ValueError; the d(v_m, v') >= r
    precondition and the observations themselves are reported as violation
    messages so deliberate violations can be tested.
    """
    dist0 = _check_paths(G, path, vprime_path)
    ms = metric_summary(G)
    if ms.radius is None:
        raise ValueError("graph must be connected")
    r = len(path) - 1
    if r != ms.radius or max(dist0) != ms.radius:
        raise ValueError(
            f"path length {r} does not match the radius {ms.radius} of a true centre"
        )
    if not 1 <= m <= r - 1:
        raise ValueError(f"m must be within 1..{r - 1}, got {m}")
    t = r - (len(vprime_path) - 1)
    D = bfs(G, path[m])[vprime_path[-1]]

    violations = []
    if D < r:
        violations.append(f"d(v_{m}, v') = {D} < r = {r}")
    if t > m:
        violations.append(f"shift t = {t} exceeds m = {m}")
    for i, v in enumerate(path):
        row = bfs(G, v)
        for j, w in enumerate(vprime_path):
            if i >= m:
                lb = D + m + t + j - r - i
            else:
                lb = D + i + j + t - m - r
            lb = max(lb, abs(i - j))
            if row[w] < lb:
                violations.append(f"d(v_{i}, v'_{j}) = {row[w]} below the bound {lb}")
    for i, u in enumerate(path):
        for j, w in enumerate(vprime_path):
            if u != w:
                continue
            if i != j:
                violations.append(f"v_{i} coincides with v'_{j}")
            elif 2 * i > m + r - t - D:
                violations.append(f"v_{i} coincides with v'_{i} beyond the prefix bound")
    return GeodesicObservationReport(r, t, m, D, tuple(violations))
