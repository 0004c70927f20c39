"""Command-line entry point: construct / analyze / bound / witness / search /
extract, with graph6, edge-list, DOT and JSON output.

Exit codes form a stable contract for scripting: 0 on success or a passing
check, 1 when a bound or witness validation fails, 2 on usage errors.

Every library call goes through its module (``search.stream_verify``), and
the package registers its submodules lazily (see ``radgraph/__init__.py``),
so a command executes only the modules it calls: ``bound`` runs ``bounds``
alone, ``search stream`` ``bounds``, ``graph``, ``io`` and ``search``, and
``witness find`` ``graph``, ``io`` and ``witness``.  For the same reason a
failed witness check is caught in ``_cmd_witness``, not in ``main``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import bounds, constructions, geometry, graph, search, witness
from . import io as gio

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _open_input(path):
    """The input file, or stdin for ``-``, as a binary stream (stdin's text
    stream when it has no binary buffer)."""
    if path == "-":
        return contextlib.nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
    return open(path, "rb")


def _load_graph(path, fmt="graph6"):
    with _open_input(path) as fh:
        data = fh.read()
    if fmt == "edgelist":
        return gio.from_edgelist_text(data.decode("ascii") if isinstance(data, bytes) else data)
    return gio.from_graph6(data)


def _render_graph(G, fmt):
    if fmt == "graph6":
        return gio.graph6_bytes(G).decode("ascii") + "\n"
    if fmt == "edgelist":
        return gio.to_edgelist_text(G)
    if fmt == "dot":
        return gio.to_dot(G)
    raise ValueError(f"unknown output format {fmt!r}")


def _emit(text, output):
    if output and output != "-":
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metrics_dict(G):
    ms = graph.metric_summary(G)
    girth = "infinite" if ms.girth == float("inf") else int(ms.girth)
    return {
        "n": G.n,
        "edge_count": G.edge_count,
        "radius": ms.radius,
        "diameter": ms.diameter,
        "girth": girth,
        "min_degree": ms.min_degree,
        "centers": list(ms.centers),
    }


def _json_number(value):
    """A Fraction as an int when it is integral and as a float otherwise."""
    return int(value) if value.denominator == 1 else float(value)


def _print_json(obj, pretty=False):
    if pretty:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_vertex_set(text):
    """The comma-separated vertices of ``text``; a set with none is rejected."""
    try:
        vertices = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        vertices = []
    if not vertices:
        raise argparse.ArgumentTypeError(f"bad vertex set {text!r}: expected e.g. 0,1,4,5")
    return vertices


def _at_least(lo):
    """An argparse ``type=`` for the integers >= lo."""
    def integer(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {int(text)}")
        return int(text)
    return integer


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated option names.

    Sub-parsers are built with the class of their parent, so every command
    inherits this; ``analyze --input g.edges`` is then an unknown option, not
    a prefix of ``--input-format``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _build_parser():
    parser = _Parser(
        prog="radgraph",
        description="Constructions, bounds and exhaustive checks for the maximum "
        "radius of connected graphs with degree and girth floors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph family member")
    kinds = p.add_subparsers(dest="kind", required=True)
    for name in ("box", "bipartite2", "radius3", "pg-plane", "gq", "glue"):
        k = kinds.add_parser(name)
        if name == "box":
            k.add_argument("--r", type=int, required=True)
            k.add_argument("--delta", type=int, required=True)
            k.add_argument("--c", type=int, default=0)
        elif name in ("bipartite2", "radius3"):
            k.add_argument("--n", type=int, required=True)
            k.add_argument("--delta", type=int, required=True)
        elif name in ("pg-plane", "gq"):
            k.add_argument("--q", type=int, required=True)
        else:  # glue
            k.add_argument("--base", required=True, help="graph6 file or - for stdin")
            k.add_argument("--m", type=int, required=True)
        k.add_argument("--format", choices=("graph6", "edgelist", "dot"), default="graph6")
        k.add_argument("--output", default="-")
        k.add_argument("--verify", action="store_true",
                       help="also print a JSON metric summary")
        k.add_argument("--pretty", action="store_true")

    p = sub.add_parser("analyze", help="metric summary of a graph as JSON")
    p.add_argument("--graph", required=True, help="graph file or - for stdin")
    p.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("bound", help="all applicable radius bounds as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("witness", help="check or search witness sets")
    wsub = p.add_subparsers(dest="action", required=True)
    c = wsub.add_parser("check")
    c.add_argument("what", choices=("general", "tf", "cycles"))
    c.add_argument("--graph", required=True)
    c.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    c.add_argument("--set", dest="vertex_set", type=_parse_vertex_set, required=True)
    c.add_argument("--k", type=int, default=None, help="half-girth (general)")
    c.add_argument("--r", type=int, default=None, help="cycle length (cycles)")
    c.add_argument("--pretty", action="store_true")
    f = wsub.add_parser("find")
    f.add_argument("--graph", required=True)
    f.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--budget", type=int, default=10**6)
    f.add_argument("--pretty", action="store_true")

    p = sub.add_parser("search", help="exhaustive enumeration and stream checks")
    ssub = p.add_subparsers(dest="action", required=True)
    e = ssub.add_parser("enumerate")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--delta", type=int, required=True)
    e.add_argument("--g", type=int, default=4)
    e.add_argument("--long-run", action="store_true")
    e.add_argument("--jobs", type=_at_least(1), default=os.cpu_count() or 1)
    e.add_argument("--pretty", action="store_true")
    v = ssub.add_parser("verify-theorem")
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--deltas", default="2,3", help="comma-separated degree floors")
    v.add_argument("--jobs", type=_at_least(1), default=os.cpu_count() or 1)
    v.add_argument("--pretty", action="store_true")
    s = ssub.add_parser("stream")
    s.add_argument("--delta", type=_at_least(0), required=True)
    s.add_argument("--g", type=_at_least(3), required=True)
    s.add_argument("--input", default="-", help="graph6 lines, file or - for stdin")
    s.add_argument("--pretty", action="store_true")

    p = sub.add_parser("extract", help="smallest dense ball along a central geodesic")
    p.add_argument("--graph", required=True)
    p.add_argument("--input-format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pretty", action="store_true")

    return parser


def _cmd_construct(args):
    if args.kind == "box":
        G = constructions.box_graph(args.r, args.delta, args.c)
    elif args.kind == "bipartite2":
        G = constructions.bipartite_radius2(args.n, args.delta)
    elif args.kind == "radius3":
        G = constructions.radius3_graph(args.n, args.delta)
    elif args.kind == "pg-plane":
        G = geometry.projective_plane_incidence_graph(args.q)
    elif args.kind == "gq":
        G = geometry.symplectic_quadrangle_incidence_graph(args.q)
    else:
        base = _load_graph(args.base)
        G = constructions.glue_cycle(base, args.m)
    _emit(_render_graph(G, args.format), args.output)
    if args.verify:
        _print_json(_metrics_dict(G), args.pretty)
    return EXIT_OK


def _cmd_analyze(args):
    G = _load_graph(args.graph, args.input_format)
    _print_json(_metrics_dict(G), args.pretty)
    return EXIT_OK


def _cmd_bound(args):
    if args.n < 1:
        raise ValueError(f"order must be >= 1, got {args.n}")
    if args.g < 3:
        raise ValueError(f"girth must be >= 3, got {args.g}")
    if args.delta < 2:
        raise ValueError(f"minimum degree must be >= 2, got {args.delta}")
    out = {}
    if args.g == 4:
        exact = bounds.exact_radius_formula_g4(args.n, args.delta)
        out["exact"] = "nonexistent" if exact is None else exact
    if args.g % 2 == 0 and args.g >= 4:
        out["upper"] = _json_number(bounds.upper_bound_radius(args.n, args.delta, args.g))
    if args.g in (6, 8, 12):
        out["cage_lower"] = _json_number(bounds.cage_lower_bound(args.n, args.delta, args.g))
    _print_json(out, args.pretty)
    return EXIT_OK


def _cmd_witness(args):
    G = _load_graph(args.graph, args.input_format)
    if args.action == "find":
        try:
            report = witness.find_witness(G, args.k, args.budget)
        except witness.WitnessValidationError as exc:
            sys.stderr.write(f"check failed: {exc}\n")
            return EXIT_CHECK_FAILED
    else:
        # each check's checker and the one parameter option it takes, if any
        check, takes = {"general": (witness.check_witness_general, "k"),
                        "tf": (witness.check_witness_triangle_free, None),
                        "cycles": (witness.check_witness_two_cycles, "r")}[args.what]
        if takes and getattr(args, takes) is None:
            raise ValueError(f"--{takes} is required for the {args.what} check")
        for name in ("k", "r"):
            if name != takes and getattr(args, name) is not None:
                raise ValueError(f"--{name} does not apply to the {args.what} check")
        extra = [getattr(args, takes)] if takes else []
        try:
            report = check(G, args.vertex_set, *extra)
        except witness.WitnessValidationError as exc:
            _print_json({"kind": exc.kind, "error": str(exc),
                         "pair": list(exc.pair) if exc.pair else None, "pass": False},
                        args.pretty)
            return EXIT_CHECK_FAILED
    _print_json(report.to_json_dict(), args.pretty)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_search(args):
    if args.action == "enumerate":
        result = search.enumerate_extremal(
            args.n, args.delta, args.g, allow_long=args.long_run, jobs=args.jobs
        )
        payload = {
            "n": result.n,
            "delta": result.delta,
            "g": result.g,
            "max_radius": result.max_radius,
            "witness": (
                gio.graph6_bytes(result.extremal_witness).decode("ascii")
                if result.extremal_witness
                else None
            ),
            "graphs_considered": result.graphs_considered,
        }
        _print_json(payload, args.pretty)
        return EXIT_OK
    if args.action == "verify-theorem":
        deltas = [int(tok) for tok in args.deltas.split(",") if tok]
        table = search.verify_theorem_main_small(args.n_max, deltas, jobs=args.jobs)
        _print_json(table, args.pretty)
        return EXIT_OK if table["all_equal"] else EXIT_CHECK_FAILED
    with _open_input(args.input) as fh:
        report = search.stream_verify(fh, args.delta, args.g)
    _print_json(report, args.pretty)
    return EXIT_OK if not report["bound_violations"] else EXIT_CHECK_FAILED


def _cmd_extract(args):
    G = _load_graph(args.graph, args.input_format)
    res = constructions.extract_dense_subgraph(G, args.k)
    payload = {
        "center": res.center,
        "geodesic": list(res.geodesic),
        "chosen_index": res.chosen_index,
        "subgraph": gio.graph6_bytes(res.subgraph).decode("ascii"),
        "subgraph_n": res.subgraph.n,
        "subgraph_edges": res.subgraph.edge_count,
        "vertex_map": list(res.vertex_map),
        "vertex_bound": res.vertex_bound,
        "edge_bound": res.edge_bound,
    }
    _print_json(payload, args.pretty)
    ok = res.subgraph.n <= res.vertex_bound and res.subgraph.edge_count >= res.edge_bound
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "analyze": _cmd_analyze,
        "bound": _cmd_bound,
        "witness": _cmd_witness,
        "search": _cmd_search,
        "extract": _cmd_extract,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
