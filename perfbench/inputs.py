"""Seeded inputs and their expected values, made without radgraph.

Everything the CLI reads is written here with the benchmark's own graph6
encoder, and every expected value comes from ``oracle`` or from a closed
form, so a change inside radgraph can change neither the inputs nor the
answers they are checked against.
"""

from __future__ import annotations

import random
from itertools import combinations

import oracle

CATALOGUE_LINES = 8000
TAIL_LINES = 16

PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)]
)
#: LCF [5,-5]^7: the incidence graph of PG(2,2), girth 6.
HEAWOOD = [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
_TC_LCF = [-13, -9, 7, -7, 9, 13] * 5
#: LCF [-13,-9,7,-7,9,13]^5: the incidence graph of W(2), girth 8.
TUTTE_COXETER = sorted(
    {tuple(sorted((i, (i + 1) % 30))) for i in range(30)}
    | {tuple(sorted((i, (i + _TC_LCF[i]) % 30))) for i in range(30)}
)


def glue(base_n: int, base_edges, m: int) -> list:
    """m copies of a bridgeless base ring-chained the way radgraph documents
    ``glue_cycle``: drop the lexicographically smallest edge (v, w), then join
    copy i's v to copy i+1's w."""
    norm = sorted(tuple(sorted(e)) for e in base_edges)
    v, w = norm[0]
    edges = []
    for i in range(m):
        off = i * base_n
        edges.extend((off + a, off + b) for a, b in norm[1:])
        edges.append((off + v, ((i + 1) % m) * base_n + w))
    return edges


def cycle(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _cycle_with_chords(rng, n, triangle):
    edges = set(cycle(n))
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(n)
        edges.add((a, (a + rng.randint(3, n - 3)) % n))
    if triangle:
        a = rng.randrange(n)
        edges.add((a, (a + 2) % n))
    return n, sorted(edges)


def _box_ring(rng):
    sizes = [rng.choice((1, 2)) for _ in range(2 * rng.randint(30, 90))]
    offs = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = []
    for i in range(len(sizes)):
        j = (i + 1) % len(sizes)
        edges.extend(
            (a, b)
            for a in range(offs[i], offs[i + 1])
            for b in range(offs[j], offs[j + 1])
        )
    return offs[-1], edges


def catalogue(seed: int) -> list:
    """The stream workload's graph6 lines for one seed.

    About 1 % are malformed, 4 % are two disjoint cycles, and the rest are
    cycles with one to three chords on 10..60 vertices, half of them with a
    triangle chord.  A tail of box rings and glued Petersen and Heawood rings
    of up to about 400 vertices follows.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(CATALOGUE_LINES - TAIL_LINES):
        roll = rng.random()
        if 0.01 <= roll < 0.05:
            a, b = rng.randint(5, 30), rng.randint(5, 30)
            n, edges = a + b, cycle(a) + [(a + u, a + v) for u, v in cycle(b)]
        else:
            n, edges = _cycle_with_chords(rng, rng.randint(10, 60), rng.random() < 0.5)
        text = oracle.encode(n, _relabel(rng, n, edges))
        if roll < 0.01:
            if rng.random() < 0.5:
                text = text[:-1]
            else:
                k = rng.randrange(1, len(text))
                text = text[:k] + "!" + text[k + 1:]
        lines.append(text)
    for i in range(TAIL_LINES):
        kind = i % 3
        if kind == 0:
            n, edges = _box_ring(rng)
        elif kind == 1:
            m = rng.randint(10, 40)
            n, edges = 10 * m, glue(10, PETERSEN, m)
        else:
            m = rng.randint(8, 28)
            n, edges = 14 * m, glue(14, HEAWOOD, m)
        lines.append(oracle.encode(n, _relabel(rng, n, edges)))
    return lines


def line_facts(lines) -> list:
    """Per line: None when malformed, else (n, connected, min degree,
    min(girth, 5), radius or None when the line fails every filter)."""
    facts = []
    for text in lines:
        try:
            n, edges = oracle.decode(text)
        except ValueError:
            facts.append(None)
            continue
        adj = oracle.adjacency(n, edges)
        connected = n > 0 and len(oracle.distances(adj, 0)) == n
        min_degree = min((len(row) for row in adj), default=0)
        girth5 = oracle.girth_capped(adj, 5)
        useful = connected and min_degree >= 2 and girth5 >= 4
        facts.append((n, connected, min_degree, girth5, oracle.radius(adj) if useful else None))
    return facts


def stream_expected(lines, facts, delta: int, g: int) -> dict:
    """The report ``search stream --delta delta --g g`` must print (g <= 5,
    delta >= 2): counts, the per-order maxima with the first line reaching
    each, and no bound violations."""
    total = malformed = filtered_out = accepted = 0
    by_n: dict = {}
    overall = None
    for text, fact in zip(lines, facts):
        total += 1
        if fact is None:
            malformed += 1
            continue
        n, connected, min_degree, girth5, rad = fact
        if not connected or min_degree < delta or girth5 < g:
            filtered_out += 1
            continue
        accepted += 1
        slot = by_n.get(n)
        if slot is None:
            by_n[n] = {"count": 1, "max_radius": rad, "witness": text}
        else:
            slot["count"] += 1
            if rad > slot["max_radius"]:
                slot["max_radius"], slot["witness"] = rad, text
        if overall is None or rad > overall[0]:
            overall = (rad, text)
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
        "bound_violations": [],
    }


def brute_force_max_radius(n: int, delta: int):
    """(max radius, count) over every connected labelled graph on n vertices
    with minimum degree >= delta (girth floor 3, so no girth filter)."""
    pairs = list(combinations(range(n), 2))
    best, count = None, 0
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        adj = oracle.adjacency(n, edges)
        if min(len(row) for row in adj) < delta:
            continue
        rad = oracle.radius(adj)
        if rad is None:
            continue
        count += 1
        best = rad if best is None else max(best, rad)
    return best, count
