"""The four workloads: radgraph CLI argv lists, their inputs and the checks
their outputs must pass.

Why these four: ``search`` is the paper's exhaustive check, where the search
layer does nearly all the work; ``incidence`` runs the metric kernel, GF(q)
and the graph6 encoder on a few dense cages of radius 3 and 4; ``rings``
runs the same kernel on sparse graphs of radius in the hundreds, plus the
witness branch and bound; ``stream`` runs the graph layer and the graph6
decoder on thousands of small graphs, where per-call fixed cost matters.

Two cheap defect probes reproduce known radgraph defects and count as
failed until those are fixed: ``search enumerate --g 3`` forbids triangles,
so (5,3,3) finds no graph at all (K5 has radius 1), and the recursive branch
and bound of ``witness find`` overflows the stack on C_2000.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import inputs
import oracle

NAMES = ("search", "incidence", "rings", "stream")

#: A fresh CLI call that does almost no work: interpreter start, import and
#: the argparse build, which every invocation pays.
SETUP_ARGV = ["bound", "--n", "15", "--delta", "3", "--g", "4"]


class CheckFailed(Exception):
    """An invocation's output disagrees with the expected value."""


@dataclass
class Op:
    """One CLI invocation of a workload pass.

    ``graphs`` is how many graphs the invocation handles, for graphs_per_s.
    A defect probe names in ``defect`` the text by which the failure of a
    known, unfixed radgraph defect is recognised; any other failure of the
    probe is a regression."""

    label: str
    argv: list
    check: Callable[[str], None]
    graphs: int = 0
    defect: str = ""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def last_json(stdout: str):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    _require(lines, "no JSON output")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"last output line is not JSON: {exc}") from None


def _expect_fields(obj, **want):
    for key, value in want.items():
        _require(obj.get(key) == value, f"{key} is {obj.get(key)!r}, expected {value!r}")


def check_setup(stdout):
    upper = Fraction(15 * 2, 2 * 3) + 3 * 2  # n k / (2 d (d-1)^(k-2)) + 3k at k = 2
    _require(
        last_json(stdout) == {"exact": oracle.max_radius_g4(15, 3), "upper": int(upper)},
        "bound --n 15 --delta 3 --g 4 disagrees with the closed forms",
    )


def _check_metrics(obj, n, m, rad, diam, girth, min_degree, all_central=False):
    _expect_fields(obj, n=n, edge_count=m, radius=rad, girth=girth, min_degree=min_degree)
    if diam is None:
        _require(obj.get("diameter") is not None and rad <= obj["diameter"] <= 2 * rad,
                 f"diameter {obj.get('diameter')!r} outside [{rad}, {2 * rad}]")
    else:
        _expect_fields(obj, diameter=diam)
    if all_central:
        _require(obj.get("centers") == list(range(n)), "not every vertex is a centre")


def _check_file(path, n, edges=None, regular=None, m=None):
    got_n, got = oracle.decode(Path(path).read_bytes())
    _require(got_n == n, f"{path.name}: n={got_n}, expected {n}")
    if edges is not None:
        _require({tuple(sorted(e)) for e in got} == {tuple(sorted(e)) for e in edges},
                 f"{path.name}: edge set differs from the expected construction")
    if m is not None:
        _require(len(got) == m, f"{path.name}: {len(got)} edges, expected {m}")
    if regular is not None:
        deg = [0] * n
        for u, v in got:
            deg[u] += 1
            deg[v] += 1
        _require(min(deg) == max(deg) == regular, f"{path.name}: not {regular}-regular")


def _check_witness(stdout, adj, k):
    """Validate ``witness find`` output: a GENERAL_2K set whose non-adjacent
    pairs are all at distance >= 2k-1, by the benchmark's own BFS, and the
    claimed bound |T| d (d-1)^(k-2) (+1 when |T| is odd)."""
    obj = last_json(stdout)
    n = len(adj)
    T = obj.get("witness") or []
    _require(T == sorted(set(T)) and all(0 <= v < n for v in T), "witness is not a sorted vertex set")
    members = set(T)
    for u in T:
        near = oracle.distances(adj, u, 2 * k - 2)
        bad = [w for w, d in near.items() if w in members and d >= 2]
        _require(not bad, f"witness vertices {u} and {bad[:1]} are too close")
    d = min(len(row) for row in adj)
    claimed = len(T) * d * (d - 1) ** (k - 2) + len(T) % 2
    _expect_fields(obj, kind="witness-general", claimed=claimed, measured=n, **{"pass": n >= claimed})


def _check_extract(stdout, adj, k, rad):
    obj = last_json(stdout)
    n = len(adj)
    geo = obj.get("geodesic") or []
    _require(len(geo) == rad + 1 and geo[0] == obj.get("center"), "geodesic does not start at the centre")
    _require(all(b in adj[a] for a, b in zip(geo, geo[1:])), "geodesic is not a path")
    from_center = oracle.distances(adj, geo[0])
    _require(max(from_center.values()) == rad and from_center[geo[-1]] == rad,
             f"centre eccentricity or geodesic length is not the radius {rad}")
    ball = sorted(oracle.distances(adj, geo[obj["chosen_index"]], k))
    _require(obj.get("vertex_map") == ball, "vertex_map is not the chosen ball")
    index = {v: i for i, v in enumerate(ball)}
    sub = {(index[u], index[w]) for u in ball for w in adj[u] if w in index and u < w}
    sub_n, sub_edges = oracle.decode(obj.get("subgraph", ""))
    _require(sub_n == len(ball) and set(sub_edges) == sub, "subgraph is not the induced ball")
    d = min(len(row) for row in adj)
    _expect_fields(
        obj,
        subgraph_n=len(ball),
        subgraph_edges=len(sub),
        vertex_bound=(2 * k + 1) * n // (rad + 1),
        edge_bound=(d * d * (d - 1) ** (k - 2) + 1) // 2,
    )
    _require(len(ball) <= obj["vertex_bound"] and len(sub) >= obj["edge_bound"],
             "extracted ball misses its bounds")


def _search(work: Path, seed: int):
    rows = [
        {"n": n, "delta": d, "enumerated": oracle.max_radius_g4(n, d),
         "formula": oracle.max_radius_g4(n, d), "verdict": "EQUAL"}
        for d in (2, 3)
        for n in range(1, 9)
    ]

    def verify_theorem(stdout):
        _require(last_json(stdout) == {"rows": rows, "all_equal": True},
                 "verify-theorem rows disagree with the paper's formula")

    def enumerate_check(n, delta, g, rad, count):
        def check(stdout):
            obj = last_json(stdout)
            _expect_fields(obj, n=n, delta=delta, g=g, max_radius=rad, graphs_considered=count)
            wn, wedges = oracle.decode(obj["witness"])
            adj = oracle.adjacency(wn, wedges)
            _require(wn == n and min(map(len, adj)) >= delta and oracle.girth_capped(adj, g) == g
                     and oracle.radius(adj) == rad, "extremal witness is not valid")
        return check

    k5_radius, k5_count = inputs.brute_force_max_radius(5, 3)
    return [
        Op("verify-theorem n<=8", ["search", "verify-theorem", "--n-max", "8", "--deltas", "2,3",
                                   "--jobs", "1"], verify_theorem),
        Op("enumerate (9,2,6)", ["search", "enumerate", "--n", "9", "--delta", "2", "--g", "6",
                                 "--long-run", "--jobs", "2"],
           enumerate_check(9, 2, 6, 4, 201600), graphs=201600),
        Op("enumerate (5,3,3)", ["search", "enumerate", "--n", "5", "--delta", "3", "--g", "3",
                                 "--jobs", "1"], enumerate_check(5, 3, 3, k5_radius, k5_count),
           defect="max_radius is None, expected 1"),
    ]


def _incidence(work: Path, seed: int):
    q1, q2 = 27, 9
    pg, gq = work / "pg27.g6", work / "w9.g6"
    n1, n2 = 2 * (q1 * q1 + q1 + 1), 2 * (q2 + 1) * (q2 * q2 + 1)
    m1, m2 = n1 * (q1 + 1) // 2, n2 * (q2 + 1) // 2

    def pg_check(stdout):
        _check_metrics(last_json(stdout), n1, m1, 3, 3, 6, q1 + 1, all_central=True)
        _check_file(pg, n1, regular=q1 + 1, m=m1)

    def gq_check(stdout):
        _require(not stdout.strip(), "construct gq without --verify printed output")
        _check_file(gq, n2, regular=q2 + 1, m=m2)

    def analyze_check(stdout):
        _check_metrics(last_json(stdout), n2, m2, 4, 4, 8, q2 + 1, all_central=True)

    return [
        Op("pg-plane q=27", ["construct", "pg-plane", "--q", str(q1), "--verify", "--output", str(pg)],
           pg_check, graphs=1),
        Op("gq q=9", ["construct", "gq", "--q", str(q2), "--output", str(gq)], gq_check, graphs=1),
        Op("analyze W(9)", ["analyze", "--graph", str(gq)], analyze_check, graphs=1),
    ]


def _check_ring(stdout, path, n, edges, rad, girth):
    _check_metrics(last_json(stdout), n, len(edges), rad, None, girth, 3)
    _check_file(path, n, edges=edges)


def _rings(work: Path, seed: int):
    ops, ring = [], {}
    for base, bn, bedges, m, girth, rad, k in (
        ("heawood", 14, inputs.HEAWOOD, 200, 6, 600, 3),
        ("tutte-coxeter", 30, inputs.TUTTE_COXETER, 30, 8, 120, 4),
    ):
        base_path, ring_path = work / f"{base}.g6", work / f"{base}x{m}.g6"
        base_path.write_text(oracle.encode(bn, bedges) + "\n")
        edges = inputs.glue(bn, bedges, m)
        adj = oracle.adjacency(bn * m, edges)
        ring[base] = ring_path, adj
        ops.append(Op(f"glue {base} x{m}",
                      ["construct", "glue", "--base", str(base_path), "--m", str(m), "--verify",
                       "--output", str(ring_path)],
                      partial(_check_ring, path=ring_path, n=bn * m, edges=edges, rad=rad, girth=girth),
                      graphs=1))
        ops.append(Op(f"witness {base} x{m} k={k}",
                      ["witness", "find", "--graph", str(ring_path), "--k", str(k)],
                      partial(_check_witness, adj=adj, k=k), graphs=1))
    tc_path, tc_adj = ring["tutte-coxeter"]
    ops.append(Op("extract tutte-coxeter x30 k=4", ["extract", "--graph", str(tc_path), "--k", "4"],
                  partial(_check_extract, adj=tc_adj, k=4, rad=120), graphs=1))
    c_path = work / "c2000.g6"
    c_path.write_text(oracle.encode(2000, inputs.cycle(2000)) + "\n")
    ops.append(Op("witness C_2000 k=2",
                  ["witness", "find", "--graph", str(c_path), "--k", "2", "--budget", "10000"],
                  partial(_check_witness, adj=oracle.adjacency(2000, inputs.cycle(2000)), k=2),
                  graphs=1, defect="RecursionError"))
    return ops


def _stream(work: Path, seed: int):
    lines = inputs.catalogue(seed)
    path = work / "catalogue.g6"
    path.write_text("\n".join(lines) + "\n")
    facts = inputs.line_facts(lines)
    ops = []
    for delta, g in ((2, 4), (3, 5)):
        want = inputs.stream_expected(lines, facts, delta, g)

        def check(stdout, want=want):
            _require(last_json(stdout) == want, "stream report disagrees with the benchmark's own BFS")

        ops.append(Op(f"stream delta={delta} g={g}", ["search", "stream", "--delta", str(delta), "--g",
                                                      str(g), "--input", str(path)],
                      check, graphs=len(lines)))
    return ops


def build(name: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its ops, in the
    order one pass runs them (later ops read files earlier ones write).

    Only the stream catalogue depends on the seed; the other workloads run
    the fixed parameters their checks have closed forms for."""
    builders = {"search": _search, "incidence": _incidence, "rings": _rings, "stream": _stream}
    return builders[name](work, seed)
