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

Every enumeration takes one path: the walker stops after s vertices (the
rule follows the table below), the partial assignments found there (the
prefixes) are grouped into orbits under the permutations of vertices
0..s-1, and the completions of one prefix per orbit are enumerated, in
process or in forks, so ``jobs`` cannot change the result.  This is exact
for any s.  The leaves under a prefix P are exactly the valid graphs whose
induced subgraph on 0..s-1 is P, because every prune is sound.  A
permutation of 0..s-1, extended by the identity on the other vertices, maps
the completions of P one-to-one onto those of its image and keeps
connectivity, degrees, girth and radius.  So every member of an orbit has
the same count and the same maximum radius, and the count of the orbit's
span is multiplied by the number of members, every one of which the walk
finds (``_prefix_orbits`` says why).  The witness is kept too: every
completion's graph6 body starts with the C(s, 2) prefix bits in column
order, so the member with the smallest encoding on s vertices holds the
orbit's smallest encoding of maximum radius, and that member is the one
enumerated.  Isomorph rejection beyond the prefix stays absent.

Each orbit is generated when the walk meets its first member, by a search
from two generators of the permutations of 0..s-1: the transposition (0 1)
and the rotation v -> v + 1 mod s, whose products give every permutation.  A
member costs two images, each a ``bytes.translate`` of its rows and a
reorder of the rows (a swap of the first two, a rotation by one), so an
orbit costs two images per member whatever s is, its smallest encoding one
translate per column over all its members, and a later member one lookup
(the orbit idea of McKay's isomorph-free generation, J. Algorithms 26,
1998, applied to the prefix only).  The whole enumeration at jobs = 1 with
the split after s vertices, in seconds, in process on a shared 2-core box
under CPython 3.11, best of 3 ((9, 2, 4) at s = 4 and 5: one run):

    =========  ======  ======  ======  ======
    row        s = 4   s = 5   s = 6   s = 7
    =========  ======  ======  ======  ======
    (8, 2, 4)  0.45    0.099   0.027   0.24
    (8, 3, 3)  21.1    4.17    0.68    2.72
    (8, 3, 4)  0.026   0.0060  0.010   0.057
    (8, 3, 5)  0.0027  0.0013  0.0056  0.015
    (9, 2, 6)  0.88    0.18    0.037   0.11
    (9, 3, 4)  1.77    0.34    0.084   0.25
    (9, 4, 4)  0.030   0.0069  0.011   0.059
    (9, 2, 4)  33.3    6.74    1.10    0.44
    =========  ======  ======  ======  ======

So s = min(n, 5) below n = 8, and from n = 8, s = n - 3 at degree floor
>= 3 and girth floor >= 4, else 6.  s = 5 would save 4 ms at (9, 4, 4);
s = 7 pays at (9, 2, 4) only, and costs 2-3x at (9, 2, 5) and (9, 2, 6).

All reachability -- the far-neighbour masks, connectivity and eccentricities
of each leaf -- runs through the bitset frontier sweep of
:mod:`radgraph.graph`.
"""

from __future__ import annotations

import marshal
import os
import stat
from contextlib import suppress
from itertools import starmap

from . import bounds, constructions
from . import io as gio
from .graph import _Record, _from_rows, _girth_of, _reach, build_graph, metric_summary

DEFAULT_CAP = 8
HARD_CAP = 9
# the least number of bytes left to read in a file that stream_verify splits
_SPLIT_BYTES = 1 << 16


class SearchResult(_Record):
    """Exact maximum radius for (n, delta, g) with one extremal witness.

    ``max_radius`` is None when no connected graph with the requested degree
    and girth floors exists on n vertices.  ``graphs_considered`` counts the
    connected, degree- and girth-valid labelled graphs; the search evaluates
    the completions of one prefix per orbit and counts the others by
    weight, so fewer graphs are evaluated than counted.
    """

    __slots__ = ("n", "delta", "g", "max_radius", "extremal_witness", "graphs_considered")


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
        candidates.append(build_graph(n, [(i, (i + 1) % n) for i in range(n)]))
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
    rows, deg = list(rows), list(deg)
    best_r, best_key, count = best_r_init, None, 0
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
        key = gio.graph6_bytes(_from_rows(rows))
        if radius > best_r or best_key is None or key < best_key:
            best_r, best_key = radius, key

    _walk(n, delta, g, rows, deg, start_v, n, leaf)
    return best_r, best_key, count


def _prefix_orbits(n, delta, g, s):
    """Group the prefixes, the assignments the walk finds up to s, into
    orbits under the permutations of vertices 0..s-1.

    The walk finds every member of an orbit: at s its prunes ask only that
    the prefix has girth >= g and minimum degree >= delta - (n - s), and no
    relabelling changes either.  So the first member the walk meets, its
    first s rows as bytes, opens the orbit, and a search from two generators
    of the permutations of 0..s-1 lists every relabelling: the transposition
    (0 1) exchanges bits 0 and 1 of each row through a byte table, then rows
    0 and 1, and the rotation v -> v + 1 mod s turns the bits of each row
    through another, then moves the last row to the front.  A later member
    costs one set lookup.  Returns (rows, deg, weight) per orbit: the member
    with the smallest graph6 encoding on s vertices and the number of
    members.  The encodings are compared column by column, as graph6 writes
    them: ``cols[j - 1]`` turns row j into its bits 0..j-1 reversed into the
    top of a byte, so one translate per column serves the whole orbit.  The
    orbits with the fewest prefix edges come first: an emptier prefix leaves
    more to choose, so its span tends to be the longest, and dealing the
    tasks out in turn gives every worker a share of the long ones.
    """
    swap = bytes(b ^ (b ^ b >> 1) % 2 * 3 for b in range(256))
    turn = bytes((b << 1 | b >> s - 1) & (1 << s) - 1 for b in range(256))
    cols = [gio._BITREV[:1 << j] * (256 >> j) for j in range(1, s)]
    rows = [0] * n
    deg = [0] * n
    pad = (0,) * (n - s)
    seen = set()
    orbits = []

    def visit():
        key = bytes(rows[:s])
        if key in seen:
            return
        seen.add(key)
        members = [key]
        for member in members:  # a breadth-first search: members grows as it is read
            swapped = member.translate(swap)
            turned = member.translate(turn)
            for image in (swapped[1::-1] + swapped[2:], turned[-1:] + turned[:-1]):
                if image not in seen:
                    seen.add(image)
                    members.append(image)
        blob = b"".join(members)
        columns = map(bytes.translate, [blob[j::s] for j in range(1, s)], cols)
        *_, first = min(zip(*columns, range(len(members))))
        head = members[first]
        orbits.append((tuple(head) + pad, tuple(map(int.bit_count, head)) + pad, len(members)))

    _walk(n, delta, g, rows, deg, 0, s, visit)
    return sorted(orbits, key=lambda orbit: sum(orbit[1]))


def _spans(task, tasks, jobs):
    """``task(*args)`` for each args of ``tasks``, in order, tasks[i] in
    worker i mod jobs: worker 0 is the caller, and each other one a child
    forked once the tasks are built, which sends back one ``marshal`` string
    through its own pipe.  The enumeration's tasks are its prefix spans
    (``_enumerate_span``), and ``search stream``'s one share per worker."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1 or not hasattr(os, "fork"):
        return list(starmap(task, tasks))
    import signal  # here, so that a run in process never loads it
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    children = []  # (pid, read end) of each child not yet reaped
    try:
        # signals wait until each child is recorded, and in a child until its try
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        for w in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            if (pid := os.fork()) == 0:
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    with open(write_fd, "wb") as out:
                        marshal.dump(list(starmap(task, tasks[w::jobs])), out)
                    os._exit(0)
                except BaseException:
                    import traceback  # only a failing child loads it
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(1)
            children.append((pid, pipe))
            os.close(write_fd)  # before the next fork, or that child would hold it open
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        shares = [list(starmap(task, tasks[::jobs]))]
        for pid, pipe in list(children):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.remove((pid, pipe))
            if status:
                raise RuntimeError(f"span worker {pid} exited with status {status}")
            shares.append(marshal.loads(data))
        return [shares[i % jobs][i // jobs] for i in range(len(tasks))]
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError):  # reaped just before the call was cut short
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _extremal(n, delta, g, allow_long, jobs):
    """:func:`enumerate_extremal` apart, so a trace counts no theorem-table row as one."""
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
    split_v = min(n, 5) if n < 8 else n - 3 if delta >= 3 and g >= 4 else 6
    orbits = _prefix_orbits(n, delta, g, split_v)
    tasks = [(n, delta, g, rows, deg, split_v, best_r_init) for rows, deg, _ in orbits]
    results = _spans(_enumerate_span, tasks, jobs)
    count = sum(weight * c for (_, _, weight), (_, _, c) in zip(orbits, results))
    if count == 0:
        return SearchResult(n, delta, g, None, None, 0)
    # larger radius first, then the smaller graph6 encoding
    neg_r, best_key = min((-r, key) for r, key, _ in results if key is not None)
    return SearchResult(n, delta, g, -neg_r, gio.from_graph6(best_key), count)


def enumerate_extremal(n: int, delta: int, g: int, *, allow_long: bool = False,
                       jobs: int = 1) -> SearchResult:
    """Exact maximum radius over all connected labelled graphs on n vertices
    with minimum degree >= delta and girth >= g, with one witness graph.

    n is capped at 8 by default; n = 9 requires ``allow_long``, and
    (9, 2, 4) takes 1.14 s with jobs = 1 and 0.59 s with jobs = 2 in process,
    1.18 s and 0.73 s as a ``radgraph`` launch (medians of 5 alternating
    runs on a shared 2-core box under CPython 3.11).  The backtracking forest
    is always split after the first few vertices (see the module docstring),
    one prefix per orbit of the split is enumerated, and the tasks run on
    ``jobs`` workers, the caller and forked children (``_spans``); ties
    between equal-radius witnesses resolve to the smallest graph6 encoding.
    """
    return _extremal(n, delta, g, allow_long, jobs)


def verify_theorem_main_small(n_max: int, delta_set, *, jobs: int = 1) -> dict:
    """Compare the enumerated maximum radius against the closed triangle-free
    formula for every n <= n_max and every distinct delta in delta_set.

    Returns {"rows": [...], "all_equal": bool}; each row carries the
    enumerated value, the formula value and an EQUAL/MISMATCH verdict
    (both sides use None for "no such graph").  With jobs > 1 each row forks
    its own span workers.  An n_max below 1 or an empty delta_set raises
    ValueError: the table would check nothing.
    """
    deltas = sorted(set(delta_set))
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not deltas:
        raise ValueError("delta_set names no degree floor")
    rows = []
    for delta in deltas:
        for n in range(1, n_max + 1):
            enumerated = _extremal(n, delta, 4, False, jobs).max_radius
            formula = bounds.exact_radius_formula_g4(n, delta)
            verdict = "EQUAL" if enumerated == formula else "MISMATCH"
            rows.append({"n": n, "delta": delta, "enumerated": enumerated,
                         "formula": formula, "verdict": verdict})
    return {"rows": rows, "all_equal": all(row["verdict"] == "EQUAL" for row in rows)}


def _stream_share(lines, delta, g, w, jobs):
    """Worker w's share of :func:`stream_verify` over ``lines``: the lines of
    the orders it owns (the k-th distinct order that a header gives is
    owned by worker k mod jobs) and, in worker 0, the lines whose header
    does not decode.

    Returns (total, malformed, filtered_out, accepted, by_n, violations),
    with by_n[n] = [count, max_radius, witness index, witness] and each
    violation as (index, line), where an index counts every line of
    ``lines``, so the merge restores file order.
    """
    total = malformed = filtered_out = accepted = 0
    by_n: dict = {}
    violations = []
    mine = {}  # order -> whether this worker decides its lines
    least_of = {}  # (n, min_degree, girth) -> the least upper bound that applies
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        try:
            data, n, pos = gio._graph6_size(line)
        except ValueError:
            if w == 0:
                total += 1
                malformed += 1
            continue
        if (owned := mine.get(n)) is None:
            owned = mine[n] = len(mine) % jobs == w
        if not owned:
            continue
        total += 1
        try:
            body = gio._graph6_body(data, n, pos)
        except ValueError:
            malformed += 1
            continue
        if 2 * int.from_bytes(body, "big").bit_count() < delta * n:
            filtered_out += 1
            continue
        rows, triangle = gio._graph6_rows(n, body, g >= 4)
        full = (1 << n) - 1
        if (triangle and g >= 4 or (min_degree := min(map(int.bit_count, rows), default=0)) < delta
                or (sweep := _reach(rows, 1, n))[0] != full):
            filtered_out += 1
            continue
        ecc = sweep[1]
        # girth 4 stands for "at least 4" until the exact girth is read
        girth = 3 if triangle else 4
        G = _from_rows(rows) if girth == 4 and (g >= 5 or min_degree >= 3) else None
        if G is not None and (girth := _girth_of(G)) < g:
            filtered_out += 1
            continue
        accepted += 1
        if (key := (n, min_degree, girth)) not in least_of:
            least_of[key] = bounds.answer(*key).get("upper")
        least = least_of[key]
        slot = by_n.get(n)
        if slot is not None:
            cap = slot[1] if least is None else min(slot[1], least)
            if ecc > cap:
                # a midpoint of a shortest path from 0 to the lowest farthest t:
                # balls of radius ecc - ecc // 2 around 0 and ecc // 2 around t meet only there
                far = full & ~_reach(rows, 1, ecc - 1)[0]
                mid = _reach(rows, 1, ecc - ecc // 2)[0] & _reach(rows, far & -far, ecc // 2)[0]
                ecc = _reach(rows, mid & -mid, n)[1]
            if ecc <= cap:
                slot[0] += 1
                continue
        radius = metric_summary(G or _from_rows(rows)).radius
        text = line if isinstance(line, str) else line.decode("ascii")
        if least is not None and radius > least:
            violations.append((index, text))
        if slot is None:
            by_n[n] = [1, radius, index, text]
        else:
            slot[0] += 1
            if radius > slot[1]:
                slot[1:] = radius, index, text
    return total, malformed, filtered_out, accepted, by_n, violations


def _stream_file_share(path, start, delta, g, w, jobs):
    """:func:`_stream_share` over the lines of the file at ``path`` from byte
    ``start``, opened anew, so that each worker reads with its own offset."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return _stream_share(fh, delta, g, w, jobs)


def _split_path(lines):
    """The name of ``lines`` when it is a binary file open on a regular file
    that the name still names, with at least :data:`_SPLIT_BYTES` left to
    read, else None.  Only such a file can be read again by every worker;
    stdin, whose name is ``<stdin>``, and pipes cannot.  A shorter file
    does not repay the fork: in process on a 2-core box, a 2 KB prefix of
    a perfbench catalogue reads 4.7 ms at jobs = 1 against 6.2 ms at jobs =
    2 for the delta = 2, g = 4 pass and 0.1 against 3.3 ms at delta = 3,
    g = 5, and a 64 KB prefix 67 against 45 ms and 3.3 against 6.0 ms."""
    try:
        name, here = lines.name, os.fstat(lines.fileno())
        if (lines.mode == "rb" and not isinstance(name, int) and stat.S_ISREG(here.st_mode)
                and os.path.samestat(here, os.stat(name))
                and here.st_size - lines.tell() >= _SPLIT_BYTES):
            return name
    except (AttributeError, OSError, ValueError):
        pass
    return None


def _head_orders(fh):
    """How many distinct orders the decodable lines of the next
    :data:`_SPLIT_BYTES` bytes of ``fh`` give; ``fh`` is left where it was."""
    start, orders = fh.tell(), set()
    for raw in fh.readlines(_SPLIT_BYTES):
        with suppress(ValueError):
            orders.add(gio._graph6_size(raw)[1])
    fh.seek(start)
    return len(orders)


def stream_verify(lines, delta: int, g: int, *, jobs: int = 1) -> dict:
    """Filter a graph6 line stream and report per-order maximum radii.

    Members must be connected with min degree >= delta and girth >= g; every
    accepted graph is also checked against ``bounds.answer``'s ``upper`` at
    its order, minimum degree and girth (the least universal radius bound
    over the even g' <= its girth), and any violator is reported verbatim
    (there should never be one).  Blank lines are skipped; lines that do not
    decode are counted as malformed.  Lines may be str or bytes; only lines
    that reach the report are decoded to text.

    With jobs > 1, ``os.fork`` present and ``lines`` a binary file open on
    a regular file with at least 64 KiB left to read (``_split_path``), the
    lines are split by order over ``jobs`` workers, the caller and forked
    children (``_spans``), each of which reads the file again by its name:
    the k-th distinct order the lines give goes to worker k mod jobs, and
    the lines whose header does not decode to worker 0.  Everything a line
    leaves for the next is per order: the count, the maximum so far and the
    dismissal cap below.  So each worker decides its lines as the serial
    pass does, and the merged report, which keeps the earliest line on
    every tie and the violations in line order, does not depend on
    ``jobs``.  Any other ``lines`` run in process.  The split pays only
    where the work spreads over several orders, since one worker decides
    every line of an order; so no more workers run than the distinct
    orders in the first 64 KiB, and a catalogue that starts with one order
    (as a generator's output for one n does) is read in process.

    Each line is decided on bitmask rows decoded once from its graph6 body,
    cheapest filter first: the edge count m, the body's popcount, before any
    row is built (2m < delta * n leaves a degree below delta); a triangle,
    found while the rows are built and at g >= 4 ending the decode; the
    minimum degree; connectivity and ecc(0) from one ``_reach`` sweep; and
    the exact girth, on a ``Graph`` that ``graph._from_rows`` builds from
    the same rows, only where the report reads it: a floor g >= 5, or the
    bound at minimum degree >= 3 (at degree 2 the fold reads g' = 4 alone).
    ``metric_summary`` reads that ``Graph`` too.  ``bounds.answer`` runs once
    per (n, minimum degree, girth).  The radius is at most every
    eccentricity, so a graph with one at most both its order's maximum
    radius so far and its least applicable bound can neither raise that
    maximum (ties keep the earlier witness) nor violate a bound: it only
    adds to its order's count.  ecc(0) is tried first, then the
    eccentricity of a midpoint of a shortest path from 0 to its farthest
    vertex, nearer the centre; every other accepted graph pays for its
    eccentricities in ``metric_summary``.
    """
    path = _split_path(lines) if jobs > 1 and hasattr(os, "fork") else None
    if path is None:
        shares = [_stream_share(lines, delta, g, 0, 1)]
    else:
        # a worker that owns no order would only read every header again
        jobs = min(jobs, max(1, _head_orders(lines)))
        start = lines.tell()
        shares = _spans(_stream_file_share, [(path, start, delta, g, w, jobs) for w in range(jobs)], jobs)
    by_n = {}
    for share in shares:
        by_n.update(share[4])
    # the largest radius, then the earliest line
    best = max(by_n.values(), key=lambda slot: (slot[1], -slot[2]), default=None)
    return {
        "delta": delta,
        "g": g,
        "total": sum(share[0] for share in shares),
        "malformed": sum(share[1] for share in shares),
        "filtered_out": sum(share[2] for share in shares),
        "accepted": sum(share[3] for share in shares),
        "max_radius": best[1] if best else None,
        "witness": best[3] if best else None,
        "by_n": {str(n): {"count": count, "max_radius": radius, "witness": text}
                 for n, (count, radius, _, text) in sorted(by_n.items())},
        "bound_violations": [text for _, text in sorted(v for share in shares for v in share[5])],
    }
