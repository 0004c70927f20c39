"""Command-line entry point: construct / analyze / bound / witness / search /
extract, with graph6, edge-list, DOT and JSON output.

Exit codes form a stable contract for scripting: 0 on success or a passing
check, 1 when a bound or witness validation fails, 2 on usage errors.

Every library call goes through its module (``search.stream_verify``), and
the package registers its submodules lazily (see ``radgraph/__init__.py``),
so a command executes only the modules it calls: ``bound`` runs ``bounds``
alone, ``search stream`` ``bounds``, ``graph``, ``io`` and ``search``, and
``witness find`` ``graph``, ``io`` and ``witness``.  For the same reason a
failed witness check is caught in its command's handler, not in ``main``.
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


#: The choices of ``--input-format`` and ``construct --format``.  An entry
#: reaches ``io`` only when it is called, so building the parser does not run it.
_LOADERS = {  # the graph read from a file's bytes (or stdin's text)
    "graph6": lambda data: gio.from_graph6(data),
    "edgelist": lambda data: gio.from_edgelist_text(
        data.decode("ascii") if isinstance(data, bytes) else data),
}
_RENDERERS = {  # the text written for a graph
    "graph6": lambda G: gio.graph6_bytes(G).decode("ascii") + "\n",
    "edgelist": lambda G: gio.to_edgelist_text(G),
    "dot": lambda G: gio.to_dot(G),
}


def _load_graph(path, fmt="graph6"):
    with _open_input(path) as fh:
        return _LOADERS[fmt](fh.read())


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


def _json_number(key, value):
    """A Fraction as an int when it is integral and as a float otherwise;
    ValueError (a usage error) when the float would overflow."""
    try:
        return int(value) if value.denominator == 1 else float(value)
    except OverflowError:
        raise ValueError(f'the "{key}" value is too large to print as a JSON number') from None


def _cpus():
    """The CPUs this process may run on, fewer than the host's under ``taskset``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _int_list(lo):
    """The ``type`` of an option of comma-separated integers, each >= lo (as
    in :func:`_at_least`); a list with none is rejected."""
    def integers(text):
        try:
            values = [int(tok) for tok in text.split(",") if tok != ""]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
        if min(values) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {min(values)}")
        return values
    return integers


def _at_least(lo, **default):
    """``add_argument`` keywords for an integer option >= lo, required unless it
    has a default.  lo is the least value the library takes for some choice of
    the command's other options, so the library keeps its own checks."""
    def integer(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {int(text)}")
        return int(text)
    return {"type": integer, "required": not default, **default}


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated option names.

    Sub-parsers are built with the class of their parent, so every command
    inherits this; ``analyze --input g.edges`` is then an unknown option, not
    a prefix of ``--input-format``.  Every command reports the arguments it
    does not take itself, so the usage line shows the options it does take.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


#: Each ``construct`` kind in one row: its builder over the parsed arguments,
#: its options as ``add_argument`` keywords, the sample options the tests run,
#: a source, and closed forms over the parsed arguments for the graph G it
#: builds (``facts``: order, minimum degree, girth and radius; every row is
#: self-centred) and for the radius of ``glue_cycle(G, m)`` (``ring``).
#: ``glue`` is a combinator and states neither.  A builder loads
#: ``constructions`` or ``geometry`` only when it is called, so building the
#: parser loads neither.
_FAMILIES = {
    "box": dict(  # box(r, 2, 0) is the cycle C_2r
        build=lambda a: constructions.box_graph(a.r, a.delta, a.c),
        options={"--r": _at_least(4), "--delta": _at_least(2), "--c": _at_least(0, default=0)},
        sample="--r 4 --delta 2", source="the paper: the exact radius at g = 4",
        facts=lambda a: (2 * -(-a.r * a.delta // 2) + a.c, a.delta,
                         2 * a.r if (a.delta, a.c) == (2, 0) else 4, a.r),
        ring=lambda a, m: a.r * m if (a.delta, a.c) == (2, 0) else 2 * m + a.r - 3),
    "bipartite2": dict(
        build=lambda a: constructions.bipartite_radius2(a.n, a.delta),
        options={"--n": _at_least(4), "--delta": _at_least(2)},
        sample="--n 6 --delta 2", source="K_(delta, n-delta)",
        facts=lambda a: (a.n, a.delta, 4, 2), ring=lambda a, m: 2 * m),
    "radius3": dict(  # radius3(6, 2) is C_6, and at delta = 2 the cut edge lies on a 6-cycle
        build=lambda a: constructions.radius3_graph(a.n, a.delta),
        options={"--n": _at_least(6), "--delta": _at_least(2)},
        sample="--n 8 --delta 3", source="K_(delta+1, n-delta-1) less a matching and a star",
        facts=lambda a: (a.n, a.delta, 6 if a.n == 6 else 4, 3),
        ring=lambda a, m: (3 if a.delta == 2 else 2) * m),
    "pg-plane": dict(
        build=lambda a: geometry.projective_plane_incidence_graph(a.q), options={"--q": _at_least(2)},
        sample="--q 2", source="PG(2,q), points against lines: the Moore (q+1, 6)-cage",
        facts=lambda a: (2 * (a.q * a.q + a.q + 1), a.q + 1, 6, 3), ring=lambda a, m: 3 * m),
    "gq": dict(
        build=lambda a: geometry.symplectic_quadrangle_incidence_graph(a.q), options={"--q": _at_least(2)},
        sample="--q 2", source="the quadrangle W(q) in PG(3,q): the Moore (q+1, 8)-cage",
        facts=lambda a: (2 * (a.q + 1) * (a.q * a.q + 1), a.q + 1, 8, 4), ring=lambda a, m: 4 * m),
    "glue": dict(
        build=lambda a: constructions.glue_cycle(_load_graph(a.base), a.m),
        options={"--base": {"required": True, "help": "graph6 file or - for stdin"}, "--m": _at_least(2)},
        sample="--base h.g6 --m 3", source="the paper: rings of radius linear in m at g = 6, 8 and 12"),
}


def _build_parser():
    parser = _Parser(
        prog="radgraph",
        description="Constructions, bounds and exhaustive checks for the maximum "
        "radius of connected graphs with degree and girth floors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", **_at_least(1, default=_cpus()))
    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--graph", required=True, help="graph file or - for stdin")
    graph_in.add_argument("--input-format", choices=_LOADERS, default="graph6")

    p = sub.add_parser("construct", help="build a named graph family member")
    kinds = p.add_subparsers(dest="kind", required=True)
    for name, row in _FAMILIES.items():
        k = kinds.add_parser(name, parents=[pretty])
        for option, keywords in row["options"].items():
            k.add_argument(option, **keywords)
        k.add_argument("--format", choices=_RENDERERS, default="graph6")
        k.add_argument("--output", default="-")
        k.add_argument("--verify", action="store_true", help="also print a JSON metric summary")
        k.set_defaults(run=_cmd_construct)

    p = sub.add_parser("analyze", help="metric summary of a graph as JSON",
                       parents=[graph_in, pretty])
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("bound", help="all applicable radius bounds as JSON", parents=[pretty])
    p.add_argument("--n", **_at_least(1))
    p.add_argument("--delta", **_at_least(2))
    p.add_argument("--g", **_at_least(3))
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("witness", help="check or search witness sets")
    wsub = p.add_subparsers(dest="action", required=True)
    checks = wsub.add_parser("check").add_subparsers(dest="what", required=True)
    witness_set = argparse.ArgumentParser(add_help=False, parents=[graph_in, pretty])
    witness_set.add_argument("--set", dest="vertex_set", type=_int_list(0), required=True)
    c = checks.add_parser("general", parents=[witness_set])
    c.add_argument("--k", **_at_least(2), help="half-girth")
    c.set_defaults(run=_cmd_check, check=lambda G, a: witness.check_witness_general(G, a.vertex_set, a.k))
    c = checks.add_parser("tf", parents=[witness_set])
    c.set_defaults(run=_cmd_check, check=lambda G, a: witness.check_witness_triangle_free(G, a.vertex_set))
    c = checks.add_parser("cycles", parents=[witness_set])
    c.add_argument("--r", **_at_least(4), help="cycle length")
    c.set_defaults(run=_cmd_check, check=lambda G, a: witness.check_witness_two_cycles(G, a.vertex_set, a.r))
    f = wsub.add_parser("find", parents=[graph_in, pretty])
    f.add_argument("--k", **_at_least(2))
    f.add_argument("--budget", **_at_least(0, default=10**6))
    f.set_defaults(run=_cmd_find)

    p = sub.add_parser("search", help="exhaustive enumeration and stream checks")
    ssub = p.add_subparsers(dest="action", required=True)
    e = ssub.add_parser("enumerate", parents=[jobs, pretty])
    e.add_argument("--n", **_at_least(1))
    e.add_argument("--delta", **_at_least(0))
    e.add_argument("--g", **_at_least(3, default=4))
    e.add_argument("--long-run", action="store_true")
    e.set_defaults(run=_cmd_enumerate)
    v = ssub.add_parser("verify-theorem", parents=[jobs, pretty])
    v.add_argument("--n-max", **_at_least(1))
    v.add_argument("--deltas", type=_int_list(2), default="2,3", help="comma-separated degree floors")
    v.set_defaults(run=_cmd_verify_theorem)
    s = ssub.add_parser("stream", parents=[jobs, pretty])
    s.add_argument("--delta", **_at_least(0))
    s.add_argument("--g", **_at_least(3))
    s.add_argument("--input", default="-", help="graph6 lines, file or - for stdin")
    s.set_defaults(run=_cmd_stream)

    p = sub.add_parser("extract", help="smallest dense ball along a central geodesic",
                       parents=[graph_in, pretty])
    p.add_argument("--k", **_at_least(2))
    p.set_defaults(run=_cmd_extract)

    return parser


def _cmd_construct(args):
    G = _FAMILIES[args.kind]["build"](args)
    _emit(_RENDERERS[args.format](G), args.output)
    return (_metrics_dict(G) if args.verify else None), EXIT_OK


def _cmd_analyze(args):
    return _metrics_dict(_load_graph(args.graph, args.input_format)), EXIT_OK


def _cmd_bound(args):
    out = bounds.answer(args.n, args.delta, args.g)  # _json_number(False) would print 0
    return {key: value if key == "exists" else _json_number(key, value) for key, value in out.items()}, EXIT_OK


def _cmd_check(args):
    G = _load_graph(args.graph, args.input_format)
    try:
        report = args.check(G, args)
    except witness.WitnessValidationError as exc:
        return {"kind": exc.kind, "error": str(exc),
                "pair": list(exc.pair) if exc.pair else None, "pass": False}, EXIT_CHECK_FAILED
    return report.to_json_dict(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_find(args):
    G = _load_graph(args.graph, args.input_format)
    try:
        report = witness.find_witness(G, args.k, args.budget)
    except witness.WitnessValidationError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return None, EXIT_CHECK_FAILED
    return report.to_json_dict(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_enumerate(args):
    result = search.enumerate_extremal(
        args.n, args.delta, args.g, allow_long=args.long_run, jobs=args.jobs
    )
    return {
        "n": result.n,
        "delta": result.delta,
        "g": result.g,
        "max_radius": result.max_radius,
        "witness": (gio.graph6_bytes(result.extremal_witness).decode("ascii")
                    if result.extremal_witness else None),
        "graphs_considered": result.graphs_considered,
    }, EXIT_OK


def _cmd_verify_theorem(args):
    table = search.verify_theorem_main_small(args.n_max, args.deltas, jobs=args.jobs)
    return table, EXIT_OK if table["all_equal"] else EXIT_CHECK_FAILED


def _cmd_stream(args):
    with _open_input(args.input) as fh:
        report = search.stream_verify(fh, args.delta, args.g, jobs=args.jobs)
    return report, EXIT_OK if not report["bound_violations"] else EXIT_CHECK_FAILED


def _cmd_extract(args):
    G = _load_graph(args.graph, args.input_format)
    res = constructions.extract_dense_subgraph(G, args.k)
    ok = res.subgraph.n <= res.vertex_bound and res.subgraph.edge_count >= res.edge_bound
    return {
        "center": res.center,
        "geodesic": list(res.geodesic),
        "chosen_index": res.chosen_index,
        "subgraph": gio.graph6_bytes(res.subgraph).decode("ascii"),
        "subgraph_n": res.subgraph.n,
        "subgraph_edges": res.subgraph.edge_count,
        "vertex_map": list(res.vertex_map),
        "vertex_bound": res.vertex_bound,
        "edge_bound": res.edge_bound,
    }, EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    """Run the command's handler, which returns (JSON payload or None, exit code)."""
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.run(args)
        if payload is not None:
            sys.stdout.write(json.dumps(payload, indent=2 if args.pretty else None,
                                        sort_keys=True) + "\n")
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
