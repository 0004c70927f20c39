import io
import math
import os
import random
import signal
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radgraph.bounds
from radgraph import (
    bfs,
    build_graph,
    exact_radius_formula_g4,
    graph6_bytes,
    is_triangle_free,
    metric_summary,
    upper_bound_radius,
)
from radgraph import search
from radgraph.graph import _girth_of
from radgraph.search import enumerate_extremal, stream_verify, verify_theorem_main_small
from conftest import cycle
from oracles import (
    INF,
    ball_reference,
    floyd_distances,
    from_graph6_reference,
    graph6_reference,
    naive_girth,
    naive_radius_diameter,
    prefix_orbits_reference,
    walk_reference,
)


def brute_force_reference(n, delta, g):
    """Independent scan over all 2^C(n,2) labelled graphs."""
    pairs = list(combinations(range(n), 2))
    best = None
    count = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        if min(degs, default=0) < delta:
            continue
        radius, _ = naive_radius_diameter(n, edges)
        if radius is None:
            continue
        if naive_girth(n, edges) < g:
            continue
        count += 1
        if best is None or radius > best:
            best = radius
    return best, count


class TestEnumerateExtremal:
    @pytest.mark.parametrize("n,delta,g", [(4, 2, 4), (5, 2, 4), (5, 2, 5), (6, 2, 4), (6, 3, 4), (5, 3, 4), (6, 2, 6),
                                           (5, 3, 3), (5, 2, 3), (6, 2, 3), (1, 0, 4), (1, 1, 4), (1, 3, 4)])
    def test_matches_brute_force(self, n, delta, g):
        expected_radius, expected_count = brute_force_reference(n, delta, g)
        res = enumerate_extremal(n, delta, g)
        assert res.max_radius == expected_radius
        assert res.graphs_considered == expected_count

    def test_nonexistent(self):
        res = enumerate_extremal(5, 3, 4)
        assert res.max_radius is None and res.extremal_witness is None
        assert res.graphs_considered == 0

    def test_witness_revalidates(self):
        for n, delta in [(6, 2), (7, 2), (8, 3)]:
            res = enumerate_extremal(n, delta, 4)
            W = res.extremal_witness
            ms = metric_summary(W)
            assert W.n == n
            assert ms.radius == res.max_radius
            assert ms.min_degree >= delta
            assert ms.girth >= 4
            assert naive_girth(W.n, list(W.edges())) >= 4
            assert naive_radius_diameter(W.n, list(W.edges()))[0] == res.max_radius

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_labelled_count_matches_atlas(self, n):
        """Exhaustiveness cross-check: the labelled count must equal the sum
        of n!/|Aut| over the isomorphism classes in the published atlas."""
        res = enumerate_extremal(n, 2, 4)
        total = 0
        for A in nx.graph_atlas_g():
            if A.number_of_nodes() != n or A.number_of_edges() == 0:
                continue
            if not nx.is_connected(A):
                continue
            if min(d for _, d in A.degree()) < 2:
                continue
            if any(nx.triangles(A).values()):
                continue
            aut = sum(1 for _ in nx.vf2pp_all_isomorphisms(A, A))
            total += math.factorial(n) // aut
        assert res.graphs_considered == total

    def test_girth_six_filter(self):
        res = enumerate_extremal(7, 2, 6)
        assert res.max_radius == 3  # C_7 is the only option up to isomorphism
        ms = metric_summary(res.extremal_witness)
        assert ms.girth >= 6

    def test_jobs_deterministic(self):
        for n, g in [(6, 3), (7, 4), (7, 5), (7, 6)]:
            seq = enumerate_extremal(n, 2, g, jobs=1)
            par = enumerate_extremal(n, 2, g, jobs=3)
            assert seq.max_radius == par.max_radius
            assert seq.graphs_considered == par.graphs_considered
            assert graph6_bytes(seq.extremal_witness) == graph6_bytes(par.extremal_witness)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n,delta,g,expected", [
        (8, 2, 4, (4, 833539, b"G?LTE?")),
        (8, 2, 5, (4, 41160, b"G?LTE?")),
        (8, 3, 4, (3, 12411, b"G?]uf?")),
        (9, 2, 6, (4, 201600, b"H?CidB?")),
        (9, 2, 7, (4, 20160, b"H?CidB?")),
        (9, 2, 5, (4, 1486800, b"H?CidB?")),
        (9, 2, 8, (4, 20160, b"H?CidB?")),
        (9, 3, 4, (3, 1085070, b"H??}vRo")),
        (9, 3, 5, (None, 0, None)),
    ])
    def test_pinned_beyond_brute_force(self, n, delta, g, expected, jobs):
        """Values read from the enumeration at orders the brute-force scan
        cannot reach: n = 8 and (9, 2, 6-7) before the prefix spans were
        grouped into orbits, the other n = 9 rows before the split went to
        6 vertices at n = 9."""
        res = enumerate_extremal(n, delta, g, allow_long=n > 8, jobs=jobs)
        witness = res.extremal_witness and graph6_bytes(res.extremal_witness)
        assert (res.max_radius, res.graphs_considered, witness) == expected

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_extremal(9, 2, 4)
        with pytest.raises(ValueError):
            enumerate_extremal(10, 2, 4, allow_long=True)

    def test_cap_hint_only_where_the_long_run_reaches(self):
        # n = 9 names both ways to raise the cap; nothing raises it to 10
        with pytest.raises(ValueError) as caught:
            enumerate_extremal(9, 2, 4)
        assert str(caught.value) == (
            "n = 9 above the enumeration cap 8 (pass allow_long=True or --long-run to go up to 9)")
        for allow_long, cap in ((False, 8), (True, 9)):
            with pytest.raises(ValueError) as caught:
                enumerate_extremal(10, 2, 4, allow_long=allow_long)
            assert str(caught.value) == f"n = 10 above the enumeration cap {cap}"

    def test_single_vertex(self):
        res = enumerate_extremal(1, 0, 4)
        assert res.max_radius == 0 and res.graphs_considered == 1


def visited(walk, n, delta, g, stop_v):
    """The sorted assignments ``walk`` visits from the empty graph up to
    stop_v, each as the bytes of rows + deg."""
    rows, deg = [0] * n, [0] * n
    seen = []
    walk(n, delta, g, rows, deg, 0, stop_v, lambda: seen.append(bytes(rows + deg)))
    assert rows == deg == [0] * n
    return sorted(seen)


# the n = 7, g = 3 walks to the leaves visit 1-2 million graphs for delta <= 2,
# too many for a unit test; their prefixes are compared, and delta = 3 is
WALK_CASES = [(n, delta, g, stop_v)
              for n in range(1, 8) for delta in range(4) for g in range(3, 9)
              for stop_v in sorted({min(n, 4), min(n, 5), n})
              if (n, g, stop_v) != (7, 3, 7) or delta == 3]


class TestWalk:
    """The pick loop against the include/exclude walk it replaced."""

    @pytest.mark.parametrize("n,delta,g,stop_v", WALK_CASES)
    def test_same_assignments_as_reference(self, n, delta, g, stop_v):
        assert visited(search._walk, n, delta, g, stop_v) == visited(walk_reference, n, delta, g, stop_v)

    # at g = 3 the sweep takes no level, so n = 6 is enough there
    @pytest.mark.parametrize("n,delta,g", [(n, delta, g) for g in range(3, 9)
                                           for n, delta in [(6, 0), (6, 3), (7, 1), (7, 2)]
                                           if n == 6 or g > 3])
    def test_far_masks_see_only_earlier_vertices(self, monkeypatch, n, delta, g):
        reach = search._reach
        sweeps = []

        def spy(rows, seen, limit):
            # the pick that sweeps holds the vertex v being placed and its memo
            scope = sys._getframe(1).f_locals
            v, fars = scope["v"], scope["fars"]
            u = seen.bit_length() - 1
            assert seen == 1 << u and u < v and limit == g - 3
            assert fars[u] == -1  # swept once per place(v), when first picked
            below = (1 << v) - 1
            far = below & ~reach(rows, seen, limit)[0]
            assert far == below & ~ball_reference([row & below for row in rows[:v]], u, g - 3)
            sweeps.append(v)
            return reach(rows, seen, limit)

        monkeypatch.setattr(search, "_reach", spy)
        search._walk(n, delta, g, [0] * n, [0] * n, 0, n, lambda: None)
        assert sweeps


def prefix_edges(rows, s):
    return {(u, v) for v in range(s) for u in range(v) if rows[v] >> u & 1}


@lru_cache(maxsize=None)
def prefix_edge_set(s, head):
    """``prefix_edges`` of the first s rows ``head`` as a frozenset,
    memoised because every walk that reaches depth s without a prune visits
    the same heads."""
    return frozenset(prefix_edges(head, s))


def relabelled(edges, perm):
    return {(a, b) if a < b else (b, a) for a, b in ((perm[u], perm[v]) for u, v in edges)}


@lru_cache(maxsize=None)
def orbit_images(s, rows):
    """The edge sets of the s! relabellings of the s-vertex graph ``rows``,
    the number of permutations that fix it and its smallest encoding."""
    edges = prefix_edges(rows, s)
    images = [frozenset(relabelled(edges, perm)) for perm in permutations(range(s))]
    smallest = min(graph6_reference(s, image) for image in set(images))
    return frozenset(images), images.count(edges), smallest


def walked_prefixes(n, delta, g, s):
    """The assignments the walk visits up to s, in the order it visits them."""
    rows, deg = [0] * n, [0] * n
    prefixes = []
    search._walk(n, delta, g, rows, deg, 0, s, lambda: prefixes.append((tuple(rows), tuple(deg))))
    return prefixes


#: The rows whose prefixes after 7 vertices are few enough to check by brute
#: force over the 7! permutations; with the other rows' splits, they check
#: the generators at every s from 1 to 7.
SPLIT_AT_SEVEN = {(7, 1, 6), (7, 2, 6), (8, 3, 5)}


def split_points(n, delta, g):
    points = {min(n, 4), min(n, 5), min(n, 6)}
    if (n, delta, g) in SPLIT_AT_SEVEN:
        points.add(7)
    return sorted(points)


class TestPrefixOrbits:
    """The split prefixes run as one span per orbit under the permutations
    of vertices 0..s-1, weighted by the number of members the walk finds."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("delta", range(4))
    @pytest.mark.parametrize("g", range(3, 7))
    def test_orbits_partition_the_prefixes(self, n, delta, g):
        for s in split_points(n, delta, g):
            self.check_partition(n, delta, g, s)

    @staticmethod
    def check_partition(n, delta, g, s):
        prefixes = walked_prefixes(n, delta, g, s)
        orbits = search._prefix_orbits(n, delta, g, s)
        assert sum(weight for _, _, weight in orbits) == len(prefixes)
        assert {(rows, deg) for rows, deg, _ in orbits} <= set(prefixes)
        collected = {prefix_edge_set(s, rows[:s]) for rows, _ in prefixes}
        covered = set()
        for rows, deg, weight in orbits:
            assert list(deg) == [bin(row).count("1") for row in rows]
            images, aut, smallest = orbit_images(s, rows[:s])
            # the prefix prunes do not depend on labels, so whole orbits are collected
            assert weight == len(images) == math.factorial(s) // aut
            assert graph6_reference(s, prefix_edges(rows, s)) == smallest
            assert images <= collected and not images & covered
            covered |= images
        assert covered == collected

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("delta", range(4))
    @pytest.mark.parametrize("g", range(3, 7))
    def test_same_orbits_as_reference(self, n, delta, g):
        for s in split_points(n, delta, g):
            expected = prefix_orbits_reference(walked_prefixes(n, delta, g, s), s)
            assert search._prefix_orbits(n, delta, g, s) == expected

    @pytest.mark.parametrize("n,delta,g,s,prefixes,orbits", [(8, 3, 4, 5, 388, 14), (9, 2, 6, 6, 2992, 21)])
    def test_two_generator_images_per_prefix(self, n, delta, g, s, prefixes, orbits):
        """Each orbit is generated once, from two generators of the
        permutations of 0..s-1, the transposition (0 1) and the rotation
        v -> v + 1 mod s: 2 translated images per prefix the walk finds,
        whatever s is.  (The column translates that pick an orbit's smallest
        member run under ``map``, so the profile does not see them.)"""
        calls = []

        def profile(frame, event, arg):
            # the C functions called by the closure that groups each prefix
            if event == "c_call" and frame.f_code.co_name == "visit":
                calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            found = search._prefix_orbits(n, delta, g, s)
        finally:
            sys.setprofile(None)
        assert (len(walked_prefixes(n, delta, g, s)), len(found)) == (prefixes, orbits)
        assert calls.count("translate") == 2 * prefixes

    @pytest.mark.parametrize("n,delta,g,spans", [(8, 2, 4, 38), (9, 2, 6, 21)])
    def test_one_span_per_orbit(self, monkeypatch, n, delta, g, spans):
        calls = []

        def spy(*args):
            calls.append(args)
            return -1, None, 0

        monkeypatch.setattr(search, "_enumerate_span", spy)
        enumerate_extremal(n, delta, g, allow_long=True)
        assert len(calls) == spans

    @pytest.mark.parametrize("n,delta,g,split", [
        (7, 3, 4, 5), (8, 2, 4, 6), (8, 3, 3, 6), (8, 3, 4, 5), (8, 4, 4, 5), (9, 2, 6, 6), (9, 3, 4, 6),
    ])
    def test_split_rule(self, monkeypatch, n, delta, g, split):
        # the module docstring's table: from n = 8, after n - 3 vertices at
        # delta >= 3 and g >= 4, else after 6
        starts = set()

        def spy(*args):
            starts.add(args[5])
            return -1, None, 0

        monkeypatch.setattr(search, "_enumerate_span", spy)
        enumerate_extremal(n, delta, g, allow_long=True)
        assert starts == {split}


@lru_cache(maxsize=None)
def labelled_scan(n):
    """Map (min degree, radius, girth) to (count, smallest graph6 encoding)
    over all 2^C(n,2) labelled graphs on n vertices; radius, girth and the
    encoding are None for a disconnected graph."""
    pairs = list(combinations(range(n), 2))
    facts = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        radius, _ = naive_radius_diameter(n, edges)
        girth = key = None
        if radius is not None:
            girth, key = naive_girth(n, edges), graph6_reference(n, edges)
        fact = (min(degs), radius, girth)
        count, smallest = facts.get(fact, (0, key))
        facts[fact] = (count + 1, smallest if key is None else min(smallest, key))
    return facts


def scan_reference(n, delta, g):
    """(max radius, count, witness encoding) over the connected graphs of
    ``labelled_scan(n)`` with minimum degree >= delta and girth >= g; the
    witness is the smallest encoding among those of maximum radius."""
    valid = [(radius, count, key) for (min_degree, radius, girth), (count, key) in labelled_scan(n).items()
             if radius is not None and min_degree >= delta and girth >= g]
    if not valid:
        return None, 0, None
    best = max(r for r, _, _ in valid)
    return best, sum(c for _, c, _ in valid), min(k for r, _, k in valid if r == best)


search_params = st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(3, 6))


@settings(max_examples=60, deadline=None)
@given(search_params)
def test_enumerate_extremal_property(params):
    res = enumerate_extremal(*params)
    witness = None if res.extremal_witness is None else graph6_bytes(res.extremal_witness)
    assert (res.max_radius, res.graphs_considered, witness) == scan_reference(*params)


@settings(max_examples=5, deadline=None)
@given(search_params)
def test_enumerate_extremal_jobs_property(params):
    seq = enumerate_extremal(*params, jobs=1)
    par = enumerate_extremal(*params, jobs=2)
    assert (seq.max_radius, seq.graphs_considered, seq.extremal_witness) == (
        par.max_radius, par.graphs_considered, par.extremal_witness)


_SIGNAL_MASK = signal.pthread_sigmask(signal.SIG_BLOCK, ())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == _SIGNAL_MASK


class TestForkedSpans:
    """``jobs`` > 1 forks span workers: every job count gives the jobs = 1
    result, and no child outlives the call, however it ends."""

    @pytest.mark.parametrize("params", [(9, 2, 6), (8, 3, 4), (7, 2, 5), (5, 3, 3)])
    def test_every_job_count_gives_the_in_process_result(self, params):
        seq = enumerate_extremal(*params, allow_long=True, jobs=1)
        for jobs in (2, 3, 5):
            assert enumerate_extremal(*params, allow_long=True, jobs=jobs) == seq, jobs
        assert_no_child_left()

    def test_theorem_table_on_two_jobs(self):
        assert verify_theorem_main_small(7, [2, 3], jobs=2) == verify_theorem_main_small(7, [2, 3], jobs=1)
        assert_no_child_left()

    def test_without_fork_the_spans_run_in_process(self, monkeypatch):
        seq = enumerate_extremal(8, 3, 4, jobs=1)
        monkeypatch.delattr(os, "fork")
        assert enumerate_extremal(8, 3, 4, jobs=2) == seq

    def test_a_signal_during_the_forks_waits_until_each_child_is_recorded(self, monkeypatch):
        fork = os.fork

        def fork_then_interrupt():
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        # a parent that ignores SIGINT leaves it ignored here, so no KeyboardInterrupt would come
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                enumerate_extremal(8, 3, 4, jobs=3)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert_no_child_left()

    def test_a_failing_child_raises_and_is_reaped(self, monkeypatch, capfd):
        caller, enumerate_span = os.getpid(), search._enumerate_span

        def span_in_caller_only(*task):
            if os.getpid() != caller:
                raise ValueError("a span failed in a child")
            return enumerate_span(*task)

        monkeypatch.setattr(search, "_enumerate_span", span_in_caller_only)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            enumerate_extremal(8, 3, 4, jobs=3)
        assert_no_child_left()
        assert "ValueError: a span failed in a child" in capfd.readouterr().err

    @pytest.mark.parametrize("error", [ValueError("a span failed in the caller"), KeyboardInterrupt()])
    def test_the_callers_error_comes_out_unchanged(self, monkeypatch, error):
        caller = os.getpid()

        def span_that_stalls_in_the_child(*task):
            if os.getpid() == caller:
                raise error
            time.sleep(60)  # a child still at work when the caller fails is killed, not awaited

        start = time.monotonic()
        with pytest.raises(type(error)) as exc:
            search._spans(span_that_stalls_in_the_child, [("task 0, the caller's",), ("task 1, the child's",)], 2)
        assert exc.value is error
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestVerifyTheorem:
    def test_small_range_all_equal(self):
        table = verify_theorem_main_small(7, [2, 3])
        assert table["all_equal"]
        rows = {(row["n"], row["delta"]): row for row in table["rows"]}
        assert rows[(3, 2)]["formula"] is None
        assert rows[(3, 2)]["enumerated"] is None
        assert rows[(4, 2)]["enumerated"] == 2
        assert rows[(6, 2)]["enumerated"] == 3
        assert rows[(6, 3)]["enumerated"] == 2

    def test_rows_match_formula_object(self):
        table = verify_theorem_main_small(6, [2])
        for row in table["rows"]:
            assert row["formula"] == exact_radius_formula_g4(row["n"], row["delta"])
            assert row["verdict"] == "EQUAL"

    def test_repeated_delta_checked_once(self):
        table = verify_theorem_main_small(3, [2, 2])
        assert table == verify_theorem_main_small(3, [2])
        assert len(table["rows"]) == 3

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_empty_order_range_rejected(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            verify_theorem_main_small(n_max, [2, 3])

    @pytest.mark.parametrize("deltas", [[], (), iter([])])
    def test_empty_delta_set_rejected(self, deltas):
        with pytest.raises(ValueError, match="no degree floor"):
            verify_theorem_main_small(4, deltas)


class TestStreamVerify:
    def test_mixed_stream(self, petersen):
        k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        lines = [
            graph6_bytes(cycle(8)).decode(),
            graph6_bytes(k33).decode(),
            graph6_bytes(petersen).decode(),
        ]
        report = stream_verify(lines, 2, 4)
        assert report["accepted"] == 3  # Petersen has girth 5 >= 4
        assert report["max_radius"] == 4
        assert report["witness"] == lines[0]
        assert report["bound_violations"] == []
        assert report["by_n"]["8"]["max_radius"] == 4
        assert report["by_n"]["10"]["max_radius"] == 2

    def test_empty_stream(self):
        report = stream_verify([], 2, 4)
        assert report["total"] == 0 and report["max_radius"] is None

    def test_girth_filter_excludes_k4(self):
        k4 = build_graph(4, list(combinations(range(4), 2)))
        report = stream_verify([graph6_bytes(k4).decode()], 2, 4)
        assert report["accepted"] == 0 and report["filtered_out"] == 1

    def test_malformed_lines_counted(self):
        # the last two set a padding bit: C_5 as "Dhd", and an edgeless
        # n = 2 line that the edge-count floor would otherwise filter
        lines = ["not graph6 at all \x01", graph6_bytes(cycle(5)).decode(), "Dhd", b"A@"]
        report = stream_verify(lines, 2, 4)
        assert report["malformed"] == 3 and report["accepted"] == 1
        assert report["filtered_out"] == 0

    def test_blank_lines_ignored(self):
        report = stream_verify(["", "  ", graph6_bytes(cycle(6)).decode()], 2, 4)
        assert report["total"] == 1 and report["accepted"] == 1

    def test_a_file_shorter_than_the_split_floor_runs_in_process(self, monkeypatch, tmp_path):
        def no_fork(*args):
            raise AssertionError("split a file shorter than the floor")

        monkeypatch.setattr(search, "_spans", no_fork)
        line = graph6_bytes(cycle(8)) + b"\n"
        copies = (search._SPLIT_BYTES - 1) // len(line)
        path = tmp_path / "c8.g6"
        path.write_bytes(line * copies)
        with open(path, "rb") as fh:
            assert search._split_path(fh) is None
            assert stream_verify(fh, 2, 4, jobs=2)["accepted"] == copies
        path.write_bytes(line * (copies + 1))  # at least the floor
        with open(path, "rb") as fh:
            assert search._split_path(fh) == str(path)
            fh.readline()  # what is left to read is under it
            assert search._split_path(fh) is None


#: Two 4-cycles joined by the edge (2, 4): ecc(0) = 5, radius 3 at 2 and 4.
DUMBBELL = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 7), (7, 4)])


class TestCentreProbe:
    """A graph whose ecc(0) exceeds its order's maximum radius so far is
    tried once more, at a midpoint of a shortest path from vertex 0 to its
    farthest vertex, before any ``metric_summary``."""

    @staticmethod
    def summarised(monkeypatch, lines):
        calls = []

        def spy(G):
            calls.append(graph6_bytes(G).decode())
            return metric_summary(G)

        monkeypatch.setattr(search, "metric_summary", spy)
        report = stream_verify(lines, 2, 4)
        assert report == stream_reference(line_facts(lines), 2, 4)
        return report, calls

    def test_centre_below_the_maximum_is_counted_unsummarised(self, monkeypatch):
        # the midpoint of 0-1-2-4-5-6 is vertex 4, of eccentricity 3 <= 4
        assert max(bfs(DUMBBELL, 0)) == 5 > metric_summary(cycle(8)).radius == 4
        lines = [graph6_bytes(G).decode() for G in (cycle(8), DUMBBELL)]
        report, calls = self.summarised(monkeypatch, lines)
        assert report["by_n"]["8"] == {"count": 2, "max_radius": 4, "witness": lines[0]}
        assert calls == lines[:1]

    def test_larger_radius_is_summarised_and_replaces_the_witness(self, monkeypatch):
        # ecc(0) of C_8 is 4 > 3, and so is the eccentricity of every vertex
        assert metric_summary(DUMBBELL).radius == 3
        lines = [graph6_bytes(G).decode() for G in (DUMBBELL, cycle(8))]
        report, calls = self.summarised(monkeypatch, lines)
        assert report["by_n"]["8"] == {"count": 2, "max_radius": 4, "witness": lines[1]}
        assert calls == lines


def stream_corpus():
    """Seeded graph6 lines: random graphs on 0..8 vertices at every density
    (many disconnected), cycles, pairs of disjoint cycles, complete bipartite
    graphs, malformed and blank lines, some of them as bytes."""
    rng = random.Random(2024)
    lines = []
    for _ in range(160):
        roll = rng.random()
        if roll < 0.5:
            n = rng.randint(0, 8)
            p = rng.random()
            G = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        elif roll < 0.65:
            G = cycle(rng.randint(3, 9))
        elif roll < 0.75:
            a, b = rng.randint(3, 5), rng.randint(3, 5)
            G = build_graph(a + b, [(i, (i + 1) % a) for i in range(a)]
                            + [(a + i, a + (i + 1) % b) for i in range(b)])
        elif roll < 0.85:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            G = build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
        elif roll < 0.93:
            lines.append(rng.choice(["C!", "D", "Dqq", "A\x7f", "~??", "\u00e9", "Bw~"]))
            continue
        else:
            lines.append(rng.choice(["", "  ", "\n"]))
            continue
        text = graph6_bytes(G).decode("ascii")
        lines.append(text.encode("ascii") + b"\n" if rng.random() < 0.3 else text)
    # the benchmark catalogue's shapes, relabelled: cycles on 10..60 vertices
    # with one to three chords, every other one with a triangle chord, and
    # six Petersen graphs glued into a ring (minimum degree 3, girth 5)
    shapes = []
    for i in range(16):
        n = rng.randint(10, 60)
        edges = [(v, (v + 1) % n) for v in range(n)]
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(n)
            edges.append((a, (a + rng.randint(3, n - 3)) % n))
        if i % 2:
            a = rng.randrange(n)
            edges.append((a, (a + 2) % n))
        shapes.append((n, edges))
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(1, 5)])
    shapes.append((60, [(10 * c + u, 10 * c + v) for c in range(6) for u, v in petersen]
                   + [(10 * c, 10 * ((c + 1) % 6) + 5) for c in range(6)]))
    for n, edges in shapes:
        perm = rng.sample(range(n), n)
        lines.append(graph6_bytes(build_graph(n, [(perm[u], perm[v]) for u, v in edges])).decode())
    # lines whose order a split by order must read: behind the format header,
    # in the long size field (n >= 63) or both; a body that fails behind a size
    # that decodes; headers that do not decode; and blank lines
    chorded = build_graph(70, [(v, (v + 1) % 70) for v in range(70)] + [(0, 35), (10, 12)])
    extra = [b">>graph6<<" + graph6_bytes(cycle(8)) + b"\n", ">>graph6<<" + graph6_bytes(cycle(7)).decode(),
             graph6_bytes(cycle(63)).decode(), graph6_bytes(chorded).decode(),
             ">>graph6<<" + graph6_bytes(cycle(64)).decode(), graph6_bytes(cycle(66))[:-1].decode(),
             "~", "~?@", "~~??", "0abc", ">>graph6<<", "\x7fA", "", "\t \n"]
    for line in extra:
        lines.insert(rng.randrange(len(lines) + 1), line)
    return lines


def line_facts(lines):
    """Per line: None when blank, "malformed", or (text, n, radius, min
    degree, girth) from the brute-force oracles."""
    facts = []
    for raw in lines:
        line = raw.strip()
        if not line:
            facts.append(None)
            continue
        try:
            G = from_graph6_reference(line)
        except ValueError:
            facts.append("malformed")
            continue
        edges = list(G.edges())
        radius = naive_radius_diameter(G.n, edges)[0] if G.n else None
        text = line if isinstance(line, str) else line.decode("ascii")
        facts.append((text, G.n, radius, min(G.degrees(), default=0), naive_girth(G.n, edges)))
    return facts


def header_decodes(line):
    """Whether the size header of a nonblank line decodes, by the reference decoder."""
    try:
        from_graph6_reference(line)
    except UnicodeError:
        return False
    except ValueError as exc:
        return not str(exc).startswith(("empty", "truncated", "invalid graph6 size"))
    return True


def file_bytes(lines):
    """``lines``, str or bytes, as the bytes of a file with one line each."""
    return b"".join((line.encode() if isinstance(line, str) else line).rstrip(b"\n") + b"\n" for line in lines)


def streamed(lines, delta, g, jobs, tmp_path):
    """stream_verify over ``lines``, in process at jobs = 1; otherwise over
    a file of them, opened in binary, so that they are split by order over
    ``jobs`` workers."""
    if jobs == 1:
        return stream_verify(lines, delta, g)
    path = tmp_path / "lines.g6"
    path.write_bytes(file_bytes(lines))
    with open(path, "rb") as fh:
        assert search._split_path(fh) == str(path)
        report = stream_verify(fh, delta, g, jobs=jobs)
    assert_no_child_left()
    return report


def stream_reference(facts, delta, g):
    """The report stream_verify must give, built from the oracle facts."""
    report = {"delta": delta, "g": g, "total": 0, "malformed": 0, "filtered_out": 0,
              "accepted": 0, "max_radius": None, "witness": None, "by_n": {},
              "bound_violations": []}
    by_n = {}
    for fact in facts:
        if fact is None:
            continue
        report["total"] += 1
        if fact == "malformed":
            report["malformed"] += 1
            continue
        text, n, radius, min_degree, girth = fact
        if radius is None or min_degree < delta or girth < g:
            report["filtered_out"] += 1
            continue
        report["accepted"] += 1
        if min_degree >= 2 and girth != INF and any(
            radius > upper_bound_radius(n, min_degree, ge) for ge in range(4, girth + 1, 2)
        ):
            report["bound_violations"].append(text)
        slot = by_n.setdefault(n, {"count": 0, "max_radius": -1, "witness": None})
        slot["count"] += 1
        if radius > slot["max_radius"]:
            slot["max_radius"], slot["witness"] = radius, text
        if report["max_radius"] is None or radius > report["max_radius"]:
            report["max_radius"], report["witness"] = radius, text
    report["by_n"] = {str(k): v for k, v in sorted(by_n.items())}
    return report


@pytest.fixture(scope="module")
def corpus_facts():
    lines = stream_corpus()
    return lines, line_facts(lines)


@pytest.fixture
def split_every_file(monkeypatch):
    """The corpus files are shorter than the least file that stream_verify
    splits; with no floor, ``streamed`` splits them all."""
    monkeypatch.setattr(search, "_SPLIT_BYTES", 0)


@pytest.mark.usefixtures("split_every_file")
class TestStreamVerifyOracle:
    @pytest.mark.parametrize("delta", [0, 1, 2, 3])
    @pytest.mark.parametrize("g", [3, 4, 5, 6, 8])
    def test_matches_oracle_report(self, corpus_facts, tmp_path, delta, g, jobs=1):
        lines, facts = corpus_facts
        assert streamed(lines, delta, g, jobs, tmp_path) == stream_reference(facts, delta, g)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("delta", [0, 1, 2, 3])
    @pytest.mark.parametrize("g", [3, 4, 5, 6, 8])
    def test_matches_oracle_report_split_by_order(self, corpus_facts, tmp_path, delta, g, jobs):
        self.test_matches_oracle_report(corpus_facts, tmp_path, delta, g, jobs)

    def test_corpus_covers_every_filter(self, corpus_facts):
        _, facts = corpus_facts
        graphs = [f for f in facts if isinstance(f, tuple)]
        assert None in facts and "malformed" in facts
        assert {0, 1, 2} <= {f[1] for f in graphs}
        assert any(f[2] is None and f[1] > 1 for f in graphs)  # disconnected
        assert {3, 4, 5, 6, INF} <= {f[4] for f in graphs}
        assert {0, 1, 2, 3} <= {f[3] for f in graphs}
        # the benchmark's shapes: a triangle-free graph of minimum degree 3
        # and girth 5, and chorded cycles of 10..60 vertices
        assert any(f[1] == 60 and f[3] == 3 and f[4] == 5 for f in graphs)
        assert {3, 4} <= {f[4] for f in graphs if f[1] >= 10 and f[3] == 2}
        # the lines a split by order must place
        assert any(f[0].startswith(">>graph6<<") and f[1] >= 63 for f in graphs)
        assert any(f[0].startswith(">>graph6<<") and f[1] < 63 for f in graphs)
        assert len({f[1] for f in graphs if f[1] >= 63}) >= 3
        assert len([line for line in corpus_facts[0] if line.strip() and not header_decodes(line)]) >= 6

    def test_triangle_test_matches_girth(self, corpus_facts, petersen):
        graphs = [from_graph6_reference(f[0]) for f in corpus_facts[1] if isinstance(f, tuple)]
        graphs += [build_graph(3, [(0, 1), (1, 2), (0, 2)]), cycle(8), petersen,
                   build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])]
        for G in graphs:
            assert is_triangle_free(G) == (naive_girth(G.n, list(G.edges())) > 3)

    def test_no_girth_read_at_minimum_degree_two(self, corpus_facts, monkeypatch):
        """At g = 4 the triangle test decides the floor, and at minimum
        degree 2 the least bound is the g' = 4 one whatever the girth, so
        the pass asks for the exact girth of minimum-degree-3 graphs only."""
        degrees = []

        def spy(G):
            degrees.append(min(G.degrees()))
            return _girth_of(G)

        monkeypatch.setattr(search, "_girth_of", spy)
        lines, facts = corpus_facts
        assert stream_verify(lines, 2, 4) == stream_reference(facts, 2, 4)
        assert degrees and min(degrees) >= 3

    def test_one_bound_at_minimum_degree_two(self, corpus_facts, monkeypatch):
        """The pass folds the bounds (``bounds.answer``) once per (n, minimum
        degree, girth) of an accepted graph.  At minimum degree 2, n * k / 4 +
        3k grows with k = g' / 2, so each such key reads the g' = 4 bound alone."""
        keys, calls = [], []

        def answer_spy(*key, answer=radgraph.bounds.answer):
            keys.append(key)
            return answer(*key)

        def spy(n, d, ge):
            calls.append((n, d, ge))
            return upper_bound_radius(n, d, ge)

        monkeypatch.setattr(radgraph.bounds, "answer", answer_spy)
        monkeypatch.setattr(radgraph.bounds, "upper_bound_radius", spy)
        lines, facts = corpus_facts
        assert stream_verify(lines, 2, 6) == stream_reference(facts, 2, 6)
        # at g = 6 the pass reads the exact girth of every accepted graph
        accepted = {(f[1], f[3], f[4]) for f in facts
                    if isinstance(f, tuple) and f[2] is not None and f[3] >= 2 and f[4] >= 6}
        assert len(keys) == len(set(keys)) and set(keys) == accepted
        twos = sorted((n, 2, 4) for n, d, _ in keys if d == 2)
        assert twos and sorted(call for call in calls if call[1] == 2) == twos
        for n in range(4, 40):
            for girth in range(4, n + 1):
                assert radgraph.bounds.answer(n, 2, girth)["upper"] == min(
                    upper_bound_radius(n, 2, ge) for ge in range(4, girth + 1, 2))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("delta,g", [(0, 3), (1, 6), (2, 4), (2, 6), (3, 5)])
    def test_matches_oracle_report_shuffled(self, corpus_facts, tmp_path, seed, delta, g, jobs=1):
        """The dismissal by ecc(0) depends on the order of the lines, and
        which worker owns an order on the order in which orders first come."""
        order = list(range(len(corpus_facts[0])))
        random.Random(seed).shuffle(order)
        lines = [corpus_facts[0][i] for i in order]
        facts = [corpus_facts[1][i] for i in order]
        assert streamed(lines, delta, g, jobs, tmp_path) == stream_reference(facts, delta, g)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("delta,g", [(0, 3), (1, 6), (2, 4), (2, 6), (3, 5)])
    def test_matches_oracle_report_shuffled_split_by_order(self, corpus_facts, tmp_path, seed, delta, g, jobs):
        self.test_matches_oracle_report_shuffled(corpus_facts, tmp_path, seed, delta, g, jobs)

    @pytest.mark.parametrize("shift", [Fraction(25, 4), Fraction(13, 2), 7])
    @pytest.mark.parametrize("delta,g", [(0, 3), (2, 4), (2, 6), (3, 4)])
    def test_forced_violations_reported(self, corpus_facts, monkeypatch, tmp_path, delta, g, shift, jobs=1):
        """A bound a few units smaller than the true one makes some accepted
        graphs violators (at the fractional shifts, cycles of one parity
        only); the report must still equal the reference's, whose violations
        come in line order across the orders of every worker."""
        lines, facts = corpus_facts

        def smaller(n, d, ge, bound=upper_bound_radius):
            return bound(n, d, ge) - shift

        monkeypatch.setattr(radgraph.bounds, "upper_bound_radius", smaller)
        monkeypatch.setattr(sys.modules[__name__], "upper_bound_radius", smaller)
        report = streamed(lines, delta, g, jobs, tmp_path)
        assert report["bound_violations"]
        if delta < 3:  # violators of several orders, merged back into line order
            assert len({from_graph6_reference(line).n for line in report["bound_violations"]}) >= 3
        assert report == stream_reference(facts, delta, g)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("shift", [Fraction(25, 4), Fraction(13, 2), 7])
    @pytest.mark.parametrize("delta,g", [(0, 3), (2, 4), (2, 6), (3, 4)])
    def test_forced_violations_reported_split_by_order(self, corpus_facts, monkeypatch, tmp_path, delta, g,
                                                       shift, jobs):
        self.test_forced_violations_reported(corpus_facts, monkeypatch, tmp_path, delta, g, shift, jobs)

    @pytest.mark.parametrize("delta,g", [(0, 3), (2, 4), (3, 5), (1, 6)])
    def test_metric_summary_only_after_cheap_filters(self, corpus_facts, monkeypatch, delta, g):
        import radgraph.search

        lines, facts = corpus_facts
        summarised, decoded = [], []

        def spy(G):
            summarised.append(G)
            return metric_summary(G)

        def decode_spy(data, decode=radgraph.search.gio.from_graph6):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(radgraph.search, "metric_summary", spy)
        monkeypatch.setattr(radgraph.search.gio, "from_graph6", decode_spy)
        report = stream_verify(lines, delta, g)
        assert report == stream_reference(facts, delta, g)
        # the girth and the summary read graphs built from the rows already decoded
        assert summarised and decoded == []
        for G in summarised:
            assert min(G.degrees(), default=0) >= delta
            assert naive_girth(G.n, list(G.edges())) >= g
        passing = [f for f in facts if isinstance(f, tuple) and f[3] >= delta and f[4] >= g]
        assert len(summarised) <= len(passing)
        # a summarised graph may change the report: it is the first of its
        # order, or ecc(0) >= radius exceeds the order's maximum so far or
        # the least applicable bound
        may_change = []
        best = {}
        for fact in passing:
            text, n, radius, min_degree, girth = fact
            if radius is None:
                continue
            G = from_graph6_reference(text)
            ecc0 = max(floyd_distances(n, list(G.edges()))[0])
            evens = range(4, girth + 1, 2) if min_degree >= 2 and girth != INF else ()
            least = min((upper_bound_radius(n, min_degree, ge) for ge in evens), default=ecc0)
            if n not in best or ecc0 > best[n] or ecc0 > least:
                may_change.append(text.encode("ascii").removeprefix(b">>graph6<<"))
            best[n] = max(best.get(n, radius), radius)
        seen = iter(may_change)
        assert all(graph6_bytes(G) in seen for G in summarised)


@pytest.mark.usefixtures("split_every_file")
class TestForkedStream:
    """A stream from a binary regular file is split by order over ``jobs``
    workers; anything else runs in process."""

    def test_a_failing_stream_worker_raises_and_is_reaped(self, corpus_facts, monkeypatch, capfd, tmp_path):
        caller, share = os.getpid(), search._stream_share

        def share_in_caller_only(*args):
            if os.getpid() != caller:
                raise ValueError("a stream share failed in a child")
            return share(*args)

        monkeypatch.setattr(search, "_stream_share", share_in_caller_only)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            streamed(corpus_facts[0], 2, 4, 3, tmp_path)
        assert_no_child_left()
        assert "ValueError: a stream share failed in a child" in capfd.readouterr().err

    def test_every_worker_reads_from_the_callers_offset(self, corpus_facts, tmp_path):
        lines, facts = corpus_facts
        path = tmp_path / "lines.g6"
        path.write_bytes(file_bytes(lines))
        with open(path, "rb") as fh:
            for _ in range(40):
                fh.readline()
            report = stream_verify(fh, 2, 4, jobs=2)
        assert_no_child_left()
        assert report == stream_reference(facts[40:], 2, 4)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("orders", [(7, 6), (6, 7)])
    def test_a_tie_across_orders_keeps_the_earliest_line(self, tmp_path, orders, jobs):
        # C_6 and C_7 both have radius 3; the split deals their orders to different workers
        lines = [graph6_bytes(cycle(n)).decode() for n in orders]
        report = streamed(lines, 2, 4, jobs, tmp_path)
        assert report == stream_reference(line_facts(lines), 2, 4)
        assert (report["max_radius"], report["witness"]) == (3, lines[0])

    def test_only_a_binary_file_found_under_its_name_is_split(self, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_bytes(graph6_bytes(cycle(8)) + b"\n")
        with open(path, "rb") as fh:
            assert search._split_path(fh) == str(path)
        with open(path) as fh:  # text: its offsets are no byte offsets
            assert search._split_path(fh) is None
        with open(path, "rb") as fh:
            os.rename(path, tmp_path / "moved.g6")
            assert search._split_path(fh) is None
            # another file under the name
            path.write_bytes(graph6_bytes(cycle(8)) + b"\n")
            assert search._split_path(fh) is None
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as fh, open(write_fd, "wb"):
            assert search._split_path(fh) is None
        with open(path, "rb") as fh, open(os.dup(fh.fileno()), "rb") as by_fd:  # named by its descriptor
            assert search._split_path(by_fd) is None
        with open(path, "rb") as stdin:  # as the interpreter names fd 0, whatever it is
            stdin.raw.name = "<stdin>"
            assert search._split_path(stdin) is None
        assert search._split_path(io.BytesIO(b"C~\n")) is None
        assert search._split_path(["C~"]) is None

    def test_no_more_workers_than_orders_in_the_head(self, monkeypatch, tmp_path):
        spans, worker_counts = search._spans, []

        def counted(task, tasks, jobs):
            worker_counts.append(jobs)
            return spans(task, tasks, jobs)

        monkeypatch.setattr(search, "_spans", counted)
        monkeypatch.setattr(search, "_SPLIT_BYTES", 64)
        c6, c8 = (graph6_bytes(cycle(n)).decode() for n in (6, 8))
        # C_6 fills the first 64 bytes and C_8 comes after them; then the two alternate
        for lines, workers in (([c6] * 20 + [c8], 1), ([c6, c8] * 10, 2)):
            assert streamed(lines, 2, 4, 3, tmp_path) == stream_reference(line_facts(lines), 2, 4)
            assert worker_counts.pop() == workers

    def test_without_fork_one_share_runs_in_process(self, corpus_facts, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        share, shares = search._stream_share, []

        def counted(lines, delta, g, w, jobs):
            shares.append((w, jobs))
            return share(lines, delta, g, w, jobs)

        monkeypatch.setattr(search, "_stream_share", counted)
        assert streamed(corpus_facts[0], 2, 4, 2, tmp_path) == stream_reference(corpus_facts[1], 2, 4)
        assert shares == [(0, 1)]  # one pass over the file, as at jobs = 1

    def test_stdin_and_lists_run_in_process(self, corpus_facts, monkeypatch):
        def no_fork(*args):
            raise AssertionError("split a stream that cannot be read again")

        monkeypatch.setattr(search, "_spans", no_fork)
        lines, facts = corpus_facts
        data = file_bytes(lines)
        for source in (lines, io.BytesIO(data), io.BufferedReader(io.BytesIO(data))):
            assert stream_verify(source, 2, 4, jobs=3) == stream_reference(facts, 2, 4)
