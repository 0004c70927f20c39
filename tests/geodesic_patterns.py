"""Test-side replays of the geodesic-pair proofs.

The paper's exact triangle-free radius and its upper bound for even girth
2k rest on witness sets laid along two geodesics from a centre.  This module
replays those constructions on concrete graphs, so that the tests can run
the package's witness checkers on them:

- the easy-cases index patterns, with their own rule for picking the
  geodesic pair (:func:`easycases_configuration`);
- the stride-2k pattern (:func:`upper_bound_witness_pattern`);
- the general pair rule (:func:`geodesic_pair`), which the stride-2k
  pattern and the observations are read at;
- the three geodesic-pair observations
  (:func:`validate_geodesic_observations`).

No command of the package calls any of it.
"""

from radgraph import (
    WitnessValidationError,
    bfs,
    check_witness_triangle_free,
    metric_summary,
)
from radgraph.graph import _Record, _geodesic, _shift_period_of
from radgraph.witness import _TRIANGLE_FREE


def geodesic_pair(G, s):
    """Two geodesics (path, vprime_path) from the centre ``centers[0]`` of a
    connected G of radius r, as tuples.

    ``path`` ends at the lowest farthest vertex, so it has r edges, and
    ``vprime_path`` at the lowest v' with d(path[s], v') >= r, which exists
    because every eccentricity is at least r.  The stride-2k witness pattern
    reads this pair at s = 2k and the geodesic observations at s = m.
    """
    ms = metric_summary(G)
    dist0 = bfs(G, ms.centers[0])
    path = _geodesic(G, dist0, dist0.index(ms.radius))
    dist_s = bfs(G, path[s])
    vprime = next(v for v in range(G.n) if dist_s[v] >= ms.radius)
    return tuple(path), tuple(_geodesic(G, dist0, vprime))


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
            if p[i + 1] not in G.adj[p[i]]:
                raise ValueError(f"{name} is not a path: {p[i]} !~ {p[i + 1]}")
        for i, v in enumerate(p):
            if dist0[v] != i:
                raise ValueError(
                    f"{name} is not a shortest path: d(v0, {v}) = {dist0[v]} != {i}"
                )
    return dist0


def check_easycases_instantiation(G, path, vprime_path):
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


def easycases_configuration(G) -> tuple:
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


def validate_geodesic_observations(G, path, m: int, vprime_path) -> GeodesicObservationReport:
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
