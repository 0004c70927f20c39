"""Exhaustive determination of the maximum radius over small graphs, plus
bulk verification over externally supplied graph6 streams.

The enumerator walks labelled graphs vertex by vertex.  Each new vertex v
picks its neighbours among 0..v-1 in increasing order from a mask of allowed
vertices.  Two prunes keep the tree small.  The degree prune: the mask
``need`` holds the settled vertices that can reach the degree floor only
through v, so every pick lies at or below its lowest bit, and a branch dies
once a needed vertex, or v itself, can no longer get enough neighbours.  The
girth prune: two neighbours u, w of v must be at distance >= g - 2 in the
partial graph, which keeps every intermediate graph at girth >= g (at g = 3
every pair is allowed).  So a pick u narrows the mask to the vertices above
u outside u's ball of radius g - 3, its far mask.  That mask is swept when u
is first picked under v and kept for the rest of v's placement: u lies at
distance >= g - 2 from every earlier pick, v is entered only through a pick,
so a sweep of g - 3 levels never meets v and sees the graph on 0..v-1 in
every branch.

Every enumeration takes one path: the walker stops after s = min(n, 5)
vertices, the partial assignments found there (the prefixes) are grouped into
orbits under the permutations of vertices 0..s-1, and the completions of one
prefix per orbit are enumerated, in process or on a worker pool, so ``jobs``
cannot change the result.  This is exact for any s.  The leaves under a prefix
P are exactly the valid graphs whose induced subgraph on 0..s-1 is P, because
every prune is sound.  A permutation of 0..s-1, extended by the identity on
the other vertices, maps the completions of P one-to-one onto those of its
image and keeps connectivity, degrees, girth and radius.  So every member of
an orbit has the same count and the same maximum radius, and the count of the
orbit's span is multiplied by the number of collected members.  The witness is
kept too: every completion's graph6 body starts with the C(s, 2) prefix bits
in column order, so the member with the smallest encoding on s vertices holds
the orbit's smallest encoding of maximum radius, and that member is the one
enumerated.  Isomorph rejection beyond the prefix stays absent.

Each orbit is generated once, from its first member: its s! relabellings
are entered in a dict, so every later member costs one lookup (the orbit
idea of McKay's isomorph-free generation, J. Algorithms 26, 1998, applied to
the prefix only).  A deeper split shares each span among up to s! prefixes
but pays s! relabels per orbit.  Best of 3 in process on a 2-core box under
CPython 3.11, split after 4 / 5 / 6 vertices: (8, 2, 4) 0.79 / 0.16 /
0.35 s, (8, 3, 4) 0.049 / 0.025 / 0.22 s, (9, 2, 6) 1.51 / 0.31 / 0.23 s
and (9, 3, 4) 2.95 / 0.60 / 0.46 s.  So s = 5: depth 6 wins only at n = 9.

All reachability -- the far-neighbour masks, connectivity and eccentricities
of each leaf -- runs through the bitset frontier sweep of
:mod:`radgraph.graph`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import permutations

from . import constructions
from . import io as gio
from .bounds import exact_radius_formula_g4, upper_bound_radius
from .graph import INFINITE, Graph, _girth_of, _levels_of, _reach, build_graph, metric_summary

__all__ = [
    "DEFAULT_CAP",
    "HARD_CAP",
    "SearchResult",
    "enumerate_extremal",
    "verify_theorem_main_small",
    "stream_verify",
]

DEFAULT_CAP = 8
HARD_CAP = 9


@dataclass(frozen=True)
class SearchResult:
    """Exact maximum radius for (n, delta, g) with one extremal witness.

    ``max_radius`` is None when no connected graph with the requested degree
    and girth floors exists on n vertices.  ``graphs_considered`` counts the
    connected, degree- and girth-valid labelled graphs; the search evaluates
    the completions of one prefix per orbit and counts the others by
    weight, so fewer graphs are evaluated than counted.
    """

    n: int
    delta: int
    g: int
    max_radius: int | None
    extremal_witness: Graph | None
    graphs_considered: int


def _cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _seed_radii(n, delta, g):
    """Radii of known valid constructions on exactly n vertices.

    Seeding the incumbent lets the leaf evaluation skip radius computation
    for almost every graph; the seeds are real graphs that the enumeration
    itself revisits, so the final (max, witness) pair is unchanged.  A seed
    counts only when it is connected with minimum degree >= delta and girth
    >= g.  The tests run cheapest first: the minimum degree, then the
    memoised girth, and only then ``metric_summary``, which reuses that girth
    and answers ``radius is None`` for a disconnected graph before any
    eccentricity is computed.
    """
    candidates = []
    if n >= 3:
        candidates.append(_cycle_graph(n))
    for build in (constructions.bipartite_radius2, constructions.radius3_graph):
        try:
            candidates.append(build(n, delta))
        except ValueError:
            pass
    for r in range(4, n + 1):
        base = 2 * ((r * delta + 1) // 2)
        if base <= n:
            try:
                candidates.append(constructions.box_graph(r, delta, n - base))
            except ValueError:
                pass
    return [radius for G in candidates
            if G.n == n and min(G.degrees(), default=0) >= delta and _girth_of(G) >= g
            and (radius := metric_summary(G).radius) is not None]


def _walk(n, delta, g, rows, deg, start_v, stop_v, visit):
    """Depth-first walk over the back-edge choices of vertices start_v up to
    stop_v, calling ``visit()`` at every feasible assignment.

    ``rows``/``deg`` hold the decided blocks below ``start_v``; they are
    updated in place during the walk, so ``visit`` reads the current
    assignment from them, and are restored on return.

    ``place(v)`` picks the neighbours of v in increasing order.  ``fars[u]``
    memoises the far mask of u, the vertices below v at distance >= g - 2
    from u, from u's first pick to the end of ``place(v)`` (the module
    docstring has the prunes and why the memo is exact).
    """

    def place(v):
        if v == stop_v:
            visit()
            return
        # a vertex up to v with fewer than lack neighbours among 0..v stays
        # below the degree floor even if every later vertex joins it
        lack = delta - (n - 1 - v)
        vbit = 1 << v
        below = vbit - 1
        need = 0
        if lack > 0:
            for u in range(v):
                if deg[u] < lack:
                    need |= 1 << u
        fars = [-1] * v

        def pick(cnt, allowed, need):
            if need & ~allowed or cnt + allowed.bit_count() < lack:
                return
            if need:
                cand = allowed & ((need & -need) << 1) - 1
            else:
                cand = allowed
                if cnt >= lack:
                    deg[v] = cnt
                    place(v + 1)
            cnt += 1
            while cand:
                b = cand & -cand
                cand ^= b
                # cand is the low end of allowed: allowed keeps the bits above u
                allowed ^= b
                u = b.bit_length() - 1
                far = fars[u]
                if far < 0:
                    far = fars[u] = below & ~_reach(rows, b, g - 3)[0]
                rows[u] |= vbit
                rows[v] |= b
                deg[u] += 1
                pick(cnt, allowed & far, need & ~b)
                deg[u] -= 1
                rows[u] ^= vbit
                rows[v] ^= b

        pick(0, below, need)
        deg[v] = 0

    place(start_v)


def _enumerate_span(n, delta, g, rows, deg, start_v, best_r_init):
    """Enumerate all completions of a partial assignment.

    ``rows``/``deg`` describe the decided blocks below ``start_v``.  Returns
    (best_radius, best_graph6, count) over the span, where graphs whose
    radius is provably below ``best_r_init`` are counted but not encoded.
    """
    rows = list(rows)
    deg = list(deg)
    best_r = best_r_init
    best_key = None
    count = 0
    full = (1 << n) - 1

    def leaf():
        nonlocal best_r, best_key, count
        # the walk's degree prune leaves every degree >= delta here
        seen, radius = _reach(rows, 1, n)
        if seen != full:
            return
        count += 1
        for v in range(1, n):
            if radius < best_r:
                return
            # a sweep capped at the running minimum returns min(ecc(v), radius)
            radius = _reach(rows, 1 << v, radius)[1]
        if radius < best_r:
            return
        key = gio.graph6_bytes_from_rows(n, rows)
        if radius > best_r or best_key is None or key < best_key:
            best_r, best_key = radius, key

    _walk(n, delta, g, rows, deg, start_v, n, leaf)
    return best_r, best_key, count


def _collect_prefixes(n, delta, g, split_v):
    """All feasible partial assignments with blocks below split_v decided."""
    rows = [0] * n
    deg = [0] * n
    prefixes = []
    _walk(n, delta, g, rows, deg, 0, split_v,
          lambda: prefixes.append((tuple(rows), tuple(deg))))
    return prefixes


def _prefix_orbits(prefixes, s):
    """Group prefixes into orbits under the permutations of vertices 0..s-1.

    A prefix whose first s rows are not yet in ``orbit_of`` opens an orbit,
    and all its relabellings are entered under it.  Returns (rows, deg,
    weight) per orbit: the member with the smallest graph6 encoding on s
    vertices and the number of collected members.  The orbits with the fewest
    prefix edges come first: an emptier prefix leaves more to choose, so its
    span tends to be the longest, and a pool ends sooner when its longest
    tasks start first.
    """
    perms = list(permutations(range(s)))
    orbit_of = {}
    groups = []
    for rows, deg in prefixes:
        if rows[:s] not in orbit_of:
            groups.append([])
            orbit_of.update((_relabel(rows, perm), groups[-1]) for perm in perms)
        orbit_of[rows[:s]].append((gio.graph6_bytes_from_rows(s, rows), rows, deg))
    orbits = [(*min(members)[1:], len(members)) for members in groups]
    return sorted(orbits, key=lambda orbit: sum(orbit[1]))


def _relabel(rows, perm):
    """The first len(perm) rows with vertex u renamed perm[u]."""
    out = [0] * len(perm)
    for u, p in enumerate(perm):
        out[p] = sum(1 << perm[w] for w in range(len(perm)) if rows[u] >> w & 1)
    return tuple(out)


def _span_task(args):
    return _enumerate_span(*args)


def _pool(jobs):
    if jobs <= 1:
        return nullcontext()
    # imported here, so that a run in process never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def _extremal(n, delta, g, allow_long, pool):
    """:func:`enumerate_extremal` on ``pool``, or in process when it is None."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cap = HARD_CAP if allow_long else DEFAULT_CAP
    if n > cap:
        hint = (f" (pass allow_long=True or --long-run to go up to {HARD_CAP})"
                if n <= HARD_CAP else "")
        raise ValueError(f"n = {n} above the enumeration cap {cap}{hint}")
    if g < 3:
        raise ValueError(f"girth floor must be >= 3, got {g}")
    if delta < 0:
        raise ValueError(f"degree floor must be >= 0, got {delta}")

    best_r_init = max(_seed_radii(n, delta, g), default=-1)
    split_v = min(n, 5)
    orbits = _prefix_orbits(_collect_prefixes(n, delta, g, split_v), split_v)
    tasks = [(n, delta, g, rows, deg, split_v, best_r_init) for rows, deg, _ in orbits]
    if pool is None:
        results = list(map(_span_task, tasks))
    else:
        results = list(pool.map(_span_task, tasks, chunksize=1))
    count = sum(weight * c for (_, _, weight), (_, _, c) in zip(orbits, results))
    if count == 0:
        return SearchResult(n, delta, g, None, None, 0)
    # larger radius first, then the smaller graph6 encoding
    neg_r, best_key = min((-r, key) for r, key, _ in results if key is not None)
    return SearchResult(n, delta, g, -neg_r, gio.from_graph6(best_key), count)


def enumerate_extremal(
    n: int,
    delta: int,
    g: int,
    *,
    allow_long: bool = False,
    jobs: int = 1,
) -> SearchResult:
    """Exact maximum radius over all connected labelled graphs on n vertices
    with minimum degree >= delta and girth >= g, with one witness graph.

    n is capped at 8 by default; n = 9 requires ``allow_long``, and
    (9, 2, 4) took 12 s with jobs = 1 and 6 s with jobs = 2 on a 2-core
    box under CPython 3.11.  The backtracking forest is always split after
    the first min(n, 5) vertices, one prefix per orbit of the split is
    enumerated, and the tasks run in process for jobs <= 1 and on a pool of
    ``jobs`` processes otherwise; ties between equal-radius witnesses resolve
    to the smallest graph6 encoding.
    """
    with _pool(jobs) as pool:
        return _extremal(n, delta, g, allow_long, pool)


def verify_theorem_main_small(n_max: int, delta_set, *, jobs: int = 1) -> dict:
    """Compare the enumerated maximum radius against the closed triangle-free
    formula for every n <= n_max and every distinct delta in delta_set.

    Returns {"rows": [...], "all_equal": bool}; each row carries the
    enumerated value, the formula value and an EQUAL/MISMATCH verdict
    (both sides use None for "no such graph").  With jobs > 1 every row
    runs on one shared pool of ``jobs`` processes.  An n_max below 1 or an
    empty delta_set raises ValueError: the table would check nothing.
    """
    deltas = sorted(set(delta_set))
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not deltas:
        raise ValueError("delta_set names no degree floor")
    rows = []
    with _pool(jobs) as pool:
        for delta in deltas:
            for n in range(1, n_max + 1):
                enumerated = _extremal(n, delta, 4, False, pool).max_radius
                formula = exact_radius_formula_g4(n, delta)
                verdict = "EQUAL" if enumerated == formula else "MISMATCH"
                rows.append({"n": n, "delta": delta, "enumerated": enumerated,
                             "formula": formula, "verdict": verdict})
    return {"rows": rows, "all_equal": all(row["verdict"] == "EQUAL" for row in rows)}


def _least_bound(n, min_degree, girth):
    """The least ``upper_bound_radius(n, min_degree, g')`` over the even g'
    with 4 <= g' <= girth, or None when no bound applies: min_degree < 2, or
    no such g' (girth 3, or an acyclic graph)."""
    if min_degree < 2 or girth == INFINITE:
        return None
    return min((upper_bound_radius(n, min_degree, ge) for ge in range(4, girth + 1, 2)),
               default=None)


def stream_verify(lines, delta: int, g: int) -> dict:
    """Filter a graph6 line stream and report per-order maximum radii.

    Members must be connected with min degree >= delta and girth >= g; every
    accepted graph is additionally checked against the universal radius upper
    bound for each even girth floor g' <= its girth, and any violator is
    reported verbatim (there should never be one).  Blank lines are skipped;
    lines that do not decode are counted as malformed.  Lines may be str or
    bytes; only lines that reach the report are decoded to text.

    Each line pays only for what the report reads.  The filters run cheapest
    first: the graph6 validation with its edge count m (a line with
    2m < delta * n has a vertex of degree below delta, by the handshake
    lemma, and is never decoded to a graph), then the minimum degree, the
    memoised girth, and connectivity from the BFS sweep that the girth
    already ran.  That sweep also gives ecc(0) >= radius.  A graph whose
    ecc(0) is at most both its order's maximum radius so far and its least
    applicable bound can neither raise that maximum (ties keep the earlier
    witness) nor violate a bound, so it only adds to its order's count.
    Every other accepted graph pays for its eccentricities through
    ``metric_summary``.
    """
    total = malformed = filtered_out = accepted = 0
    by_n: dict = {}
    violations = []
    overall = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        total += 1
        try:
            n, m = gio._graph6_order_size(line)
        except ValueError:
            malformed += 1
            continue
        if 2 * m < delta * n:
            filtered_out += 1
            continue
        G = gio.from_graph6(line)
        min_degree = min(G.degrees(), default=0)
        # connected: the girth's BFS sweep has one root, vertex 0
        if min_degree < delta or _girth_of(G) < g or _levels_of(G).count(0) != 1:
            filtered_out += 1
            continue
        accepted += 1
        least = _least_bound(n, min_degree, _girth_of(G))
        ecc0 = max(_levels_of(G))
        slot = by_n.get(n)
        if slot is not None and ecc0 <= slot["max_radius"] and (least is None or ecc0 <= least):
            slot["count"] += 1
            continue
        radius = metric_summary(G).radius
        text = line if isinstance(line, str) else line.decode("ascii")
        if least is not None and radius > least:
            violations.append(text)
        if slot is None or radius > slot["max_radius"]:
            by_n[n] = {"count": (slot["count"] + 1 if slot else 1),
                       "max_radius": radius,
                       "witness": text}
        else:
            slot["count"] += 1
        if overall is None or radius > overall[0]:
            overall = (radius, text)
    return {
        "delta": delta,
        "g": g,
        "total": total,
        "malformed": malformed,
        "filtered_out": filtered_out,
        "accepted": accepted,
        "max_radius": overall[0] if overall else None,
        "witness": overall[1] if overall else None,
        "by_n": {str(k): v for k, v in sorted(by_n.items())},
        "bound_violations": violations,
    }
