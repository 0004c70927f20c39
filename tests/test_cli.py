import argparse
import contextlib
import io
import json
import os

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import radgraph.bounds
import radgraph.witness
from radgraph import (
    bipartite_radius2,
    box_graph,
    build_graph,
    check_witness_general,
    find_witness,
    from_graph6,
    glue_cycle,
    graph6_bytes,
    metric_summary,
    projective_plane_incidence_graph,
    radius3_graph,
    symplectic_quadrangle_incidence_graph,
    to_edgelist_text,
    verify_theorem_main_small,
)
from radgraph import cli, search
from radgraph.cli import main
from conftest import cycle, fresh_python


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_box_with_verify(self, capsys):
        code, out, _ = run(
            capsys, "construct", "box", "--r", "5", "--delta", "3", "--c", "0",
            "--format", "graph6", "--verify",
        )
        assert code == 0
        lines = out.strip().splitlines()
        G = from_graph6(lines[0])
        info = json.loads(lines[1])
        assert info["radius"] == 5 and info["girth"] == 4 and info["min_degree"] == 3
        assert G.n == info["n"] == 16

    def test_pg_plane(self, capsys):
        code, out, _ = run(capsys, "construct", "pg-plane", "--q", "2")
        assert code == 0
        assert from_graph6(out.strip()).n == 14

    def test_gq(self, capsys):
        code, out, _ = run(capsys, "construct", "gq", "--q", "2")
        assert code == 0
        assert from_graph6(out.strip()).n == 30

    def test_glue_from_file(self, capsys, tmp_path):
        heawood = tmp_path / "heawood.g6"
        code, out, _ = run(capsys, "construct", "pg-plane", "--q", "2")
        heawood.write_text(out.strip() + "\n")
        capsys.readouterr()
        code, out, _ = run(capsys, "construct", "glue", "--base", str(heawood), "--m", "4")
        assert code == 0
        G = from_graph6(out.strip())
        assert G.n == 56 and metric_summary(G).min_degree == 3

    def test_output_file_and_formats(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        code, _, _ = run(
            capsys, "construct", "bipartite2", "--n", "6", "--delta", "2",
            "--format", "edgelist", "--output", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[0] == "6 8"
        code, out, _ = run(
            capsys, "construct", "radius3", "--n", "8", "--delta", "3",
            "--format", "dot",
        )
        assert code == 0 and out.startswith("graph G {")

    def test_bad_parameters_exit_2(self, capsys):
        # the parser holds each option's own floor, the library the rules that join two options
        with pytest.raises(SystemExit) as exc:
            main(["construct", "box", "--r", "3", "--delta", "3"])
        assert exc.value.code == 2 and "argument --r: must be >= 4, got 3" in capsys.readouterr().err
        with pytest.raises(ValueError, match="r >= 4"):
            box_graph(3, 3)
        code, out, err = run(capsys, "construct", "bipartite2", "--n", "5", "--delta", "3")
        assert (code, out) == (2, "") and err == (
            "error: no connected triangle-free graph with min degree 3 on 5 < 6 vertices\n")

    def test_emitted_graph6_round_trips(self, capsys):
        for argv in (
            ["construct", "box", "--r", "4", "--delta", "2", "--c", "1"],
            ["construct", "pg-plane", "--q", "3"],
            ["construct", "bipartite2", "--n", "7", "--delta", "3"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            G = from_graph6(out.strip().splitlines()[0])
            assert graph6_bytes(G).decode() == out.strip().splitlines()[0]


#: The required options of each ``construct`` kind with sample values, and the
#: library build they name; ``glue`` reads h.g6, the Heawood graph, from the
#: working directory.
FAMILY_SAMPLES = {
    "box": (["--r", "4", "--delta", "2"], lambda: box_graph(4, 2)),
    "bipartite2": (["--n", "6", "--delta", "2"], lambda: bipartite_radius2(6, 2)),
    "radius3": (["--n", "8", "--delta", "3"], lambda: radius3_graph(8, 3)),
    "pg-plane": (["--q", "2"], lambda: projective_plane_incidence_graph(2)),
    "gq": (["--q", "2"], lambda: symplectic_quadrangle_incidence_graph(2)),
    "glue": (["--base", "h.g6", "--m", "3"],
             lambda: glue_cycle(projective_plane_incidence_graph(2), 3)),
}


def test_family_samples_cover_the_table():
    assert FAMILY_SAMPLES.keys() == cli._FAMILIES.keys()


@pytest.mark.parametrize("kind", list(cli._FAMILIES))
def test_family_prints_its_library_build(capsys, monkeypatch, tmp_path, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.g6").write_bytes(graph6_bytes(projective_plane_incidence_graph(2)))
    options, build = FAMILY_SAMPLES[kind]
    G = build()
    line = graph6_bytes(G).decode()
    assert run(capsys, "construct", kind, *options) == (0, line + "\n", "")
    code, out, err = run(capsys, "construct", kind, *options, "--verify")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == line
    assert json.loads(out.splitlines()[1]) == cli._metrics_dict(G)
    # every sample option is required; the kind's other options have defaults
    required = [option for option, keywords in cli._FAMILIES[kind][1].items()
                if "default" not in keywords]
    assert required == options[::2]
    for at in range(0, len(options), 2):
        option = options[at]
        with pytest.raises(SystemExit) as exc:
            main(["construct", kind, *options[:at], *options[at + 2:]])
        assert exc.value.code == 2
        assert f"the following arguments are required: {option}\n" in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode() + "\n")
        code, out, _ = run(capsys, "analyze", "--graph", str(path))
        info = json.loads(out)
        assert code == 0
        assert info["radius"] == 4 and info["girth"] == 8

    def test_analyze_forest_girth_infinite(self, capsys, tmp_path):
        path = tmp_path / "t.g6"
        path.write_text(graph6_bytes(build_graph(3, [(0, 1), (1, 2)])).decode())
        code, out, _ = run(capsys, "analyze", "--graph", str(path))
        assert json.loads(out)["girth"] == "infinite"

    @pytest.mark.parametrize("text", ["3 3\n0 1\n1 2\n0 1\n", "3 2\n0 1\n1 0\n"])
    def test_analyze_repeated_edge_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "dup.edges"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--graph", str(path), "--input-format", "edgelist")
        assert code == 2 and out == "" and "repeats edge (0, 1)" in err

    def test_analyze_order_above_the_edges_plus_one_exit_2(self, capsys, tmp_path):
        # the 10-byte file declares 3000000 vertices and no edge
        path = tmp_path / "isolated.edges"
        path.write_text("3000000 0\n")
        code, out, err = run(capsys, "analyze", "--graph", str(path), "--input-format", "edgelist")
        assert code == 2 and out == "" and "too few to connect them" in err


class TestBound:
    def test_g4(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "4")
        data = json.loads(out)
        assert code == 0 and data["exact"] == 4 and "upper" in data

    def test_g6_upper_is_the_least_over_the_even_girths(self, capsys):
        # girth >= 6 implies girth >= 4, and the g' = 4 bound 32/3 is below the g = 6 one, 12.5
        code, out, _ = run(capsys, "bound", "--n", "14", "--delta", "3", "--g", "6")
        assert code == 0 and out == '{"cage_lower": 0, "upper": 10.666666666666666}\n'

    def test_integral_bound_prints_as_int(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "4")
        assert code == 0 and out == '{"exact": 4, "upper": 11}\n'

    def test_order_below_the_moore_bound_at_g4_is_empty(self, capsys):
        # a triangle-free graph of minimum degree 3 holds 2 * 3 vertices around an edge
        assert run(capsys, "bound", "--n", "5", "--delta", "3", "--g", "4") == (0, '{"exists": false}\n', "")

    @pytest.mark.parametrize("g", ["4", "6"])
    def test_a_fraction_beyond_float_range_is_a_usage_error(self, capsys, g):
        # the upper bound is a fraction near 10^400, beyond the range of a float
        assert run(capsys, "bound", "--n", str(10**400 + 1), "--delta", "3", "--g", g) == (
            2, "", 'error: the "upper" value is too large to print as a JSON number\n')

    def test_an_integer_beyond_float_range_prints_exactly(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", str(10**400), "--delta", "2", "--g", "4")
        want = radgraph.bounds.answer(10**400, 2, 4)
        assert code == 0 and json.loads(out) == want and all(v.denominator == 1 for v in want.values())

    def test_girth_3_has_no_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "3")
        assert code == 0 and json.loads(out) == {}

    @pytest.mark.parametrize("g", ["16", "1000000000000"])
    def test_girth_above_the_order_is_empty(self, capsys, monkeypatch, g):
        # at delta >= 2 every graph has a cycle, so its girth is at most n: no bound is computed
        for name in ("exact_radius_formula_g4", "upper_bound_radius", "cage_lower_bound"):
            monkeypatch.setattr(radgraph.bounds, name, None)
        assert run(capsys, "bound", "--n", "15", "--delta", "3", "--g", g) == (
            0, '{"exists": false}\n', "")

    @pytest.mark.parametrize("n,g", [("1000000000000", "1000000000000"), ("15", "12"), ("15", "15")])
    def test_girth_beyond_the_moore_tree_is_empty(self, capsys, monkeypatch, n, g):
        # at delta >= 3 the Moore tree around an edge has 2^(g//2) > n vertices: no bound is computed
        for name in ("exact_radius_formula_g4", "upper_bound_radius", "cage_lower_bound"):
            monkeypatch.setattr(radgraph.bounds, name, None)
        assert run(capsys, "bound", "--n", n, "--delta", "3", "--g", g) == (0, '{"exists": false}\n', "")

    @pytest.mark.parametrize("delta,g,want", [
        ("3", "10", {"exists": False}),  # 2 * (1 + 2 + 4 + 8 + 16) = 62 vertices around an edge
        ("2", "12", {"cage_lower": 1.5, "upper": 13.5}),  # at delta = 2 the Moore bound is g
    ])
    def test_the_moore_bound_decides_emptiness(self, capsys, delta, g, want):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", delta, "--g", g)
        assert code == 0 and json.loads(out) == want

    def test_girth_equal_to_the_order_is_not_empty(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "16", "--delta", "2", "--g", "16")
        # at delta = 2 the g' = 4 bound is the least: 16 * 2 / 4 + 6
        assert code == 0 and json.loads(out) == {"upper": 14}

    @pytest.mark.parametrize("name,facts", [
        ("petersen", (10, 3, 5)), ("heawood", (14, 3, 6)), ("w2", (30, 3, 8)),
        *((f"c{g}", (g, 2, g)) for g in (3, 4, 5, 6, 11)),
    ])
    def test_a_graph_on_the_moore_bound_is_the_least_order(self, capsys, request, name, facts):
        """Each graph meets the Moore bound of its minimum degree and girth, so
        its order is answered and one vertex fewer is an empty class."""
        builders = {"heawood": lambda: projective_plane_incidence_graph(2),
                    "w2": lambda: symplectic_quadrangle_incidence_graph(2),
                    "petersen": lambda: request.getfixturevalue("petersen")}
        G = builders.get(name, lambda: cycle(facts[0]))()
        ms = metric_summary(G)
        assert (G.n, ms.min_degree, ms.girth) == facts
        floors = ("--delta", str(facts[1]), "--g", str(facts[2]))
        code, out, _ = run(capsys, "bound", "--n", str(G.n), *floors)
        assert code == 0 and "exists" not in json.loads(out)
        assert run(capsys, "bound", "--n", str(G.n - 1), *floors) == (0, '{"exists": false}\n', "")


class TestWitness:
    def test_check_tf_pass(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, _ = run(
            capsys, "witness", "check", "tf", "--graph", str(path), "--set", "0,1,4,5"
        )
        data = json.loads(out)
        assert code == 0 and data["pass"] and data["claimed"] == 8

    def test_check_tf_invalid_set_exit_1(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, _ = run(
            capsys, "witness", "check", "tf", "--graph", str(path), "--set", "0,2"
        )
        data = json.loads(out)
        assert code == 1 and data["pass"] is False and data["pair"] == [0, 2]

    def test_check_general(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, _ = run(
            capsys, "witness", "check", "general", "--graph", str(path),
            "--set", "0,4", "--k", "2",
        )
        assert code == 0 and json.loads(out)["claimed"] == 4

    def test_check_cycles(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, _ = run(
            capsys, "witness", "check", "cycles", "--graph", str(path),
            "--set", "0,1,2,3,4,5,6,7", "--r", "4",
        )
        assert code == 0 and json.loads(out)["pass"]

    @pytest.mark.parametrize("argv,message", [
        (("tf", "--k", "3"), "--k does not apply to the tf check"),
        (("tf", "--k", "9", "--r", "77"), "--k does not apply to the tf check"),
        (("tf", "--r", "4"), "--r does not apply to the tf check"),
        (("general", "--k", "2", "--r", "5"), "--r does not apply to the general check"),
        (("cycles", "--r", "4", "--k", "2"), "--k does not apply to the cycles check"),
        (("general",), "--k is required for the general check"),
        (("general", "--r", "5"), "--k is required for the general check"),
        (("cycles",), "--r is required for the cycles check"),
        (("cycles", "--k", "2"), "--r is required for the cycles check"),
    ])
    def test_check_parameter_of_another_kind_exit_2(self, capsys, tmp_path, argv, message):
        # each check is its own leaf command, so its parser enforces the rule
        # before the (here missing) graph file is opened
        option, rule = message.split(" ", 1)
        with pytest.raises(SystemExit) as exc:
            main(["witness", "check", *argv, "--graph", str(tmp_path / "missing.g6"),
                  "--set", "0,1,2,3,4,5,6,7"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and "No such file" not in out.err
        [error] = [line for line in out.err.splitlines() if "error:" in line]
        if rule.startswith("does not apply"):
            assert "error: unrecognized arguments: " in error and option in error.split()
        else:
            assert error.endswith(f"error: the following arguments are required: {option}")

    @pytest.mark.parametrize("what,passing,failing", [
        ("general", ("--set", "0,4", "--k", "2"), ("--set", "0,2", "--k", "2")),
        ("tf", ("--set", "0,1,4,5"), ("--set", "0,2")),
        ("cycles", ("--set", "0,1,2,3,4,5,6,7", "--r", "4"), ("--set", "0,1,2,3,4,5,6", "--r", "4")),
    ])
    def test_failing_check_prints_the_passing_kind(self, capsys, tmp_path, what, passing, failing):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, _ = run(capsys, "witness", "check", what, "--graph", str(path), *passing)
        assert code == 0
        kind = json.loads(out)["kind"]
        code, out, _ = run(capsys, "witness", "check", what, "--graph", str(path), *failing)
        assert code == 1 and json.loads(out)["kind"] == kind

    @pytest.mark.parametrize("text", [",", "", ",,"])
    def test_check_empty_set_exit_2(self, capsys, tmp_path, text):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "check", "general", "--graph", str(tmp_path / "missing.g6"),
                  "--set", text, "--k", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(
            f"error: argument --set: expected comma-separated integers, got {text!r}\n")

    def test_find(self, capsys, tmp_path):
        path = tmp_path / "h.g6"
        run(capsys, "construct", "pg-plane", "--q", "2", "--output", str(path))
        code, out, _ = run(capsys, "witness", "find", "--graph", str(path), "--k", "3")
        data = json.loads(out)
        assert code == 0 and len(data["witness"]) >= 2

    def test_find_checks_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "ring.g6"
        G = glue_cycle(projective_plane_incidence_graph(2), 4)
        path.write_text(graph6_bytes(G).decode())
        want = check_witness_general(G, find_witness(G, 3).vertices, 3).to_json_dict()
        calls = []

        def spy(*args):
            calls.append(args)
            return check_witness_general(*args)

        monkeypatch.setattr(radgraph.witness, "check_witness_general", spy)
        code, out, _ = run(capsys, "witness", "find", "--graph", str(path), "--k", "3")
        assert code == 0 and out == json.dumps(want, sort_keys=True) + "\n"
        assert len(calls) == 1

    def test_find_failed_check_exit_1(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())

        def failing(*args):
            raise radgraph.witness.WitnessValidationError("pair too close", kind="witness-general")

        monkeypatch.setattr(radgraph.witness, "find_witness", failing)
        code, out, err = run(capsys, "witness", "find", "--graph", str(path), "--k", "2")
        assert (code, out, err) == (1, "", "check failed: pair too close\n")

    def test_find_on_long_cycle(self, capsys, tmp_path):
        # the branch and bound goes about n levels deep on a long cycle
        path = tmp_path / "c3000.g6"
        path.write_text(graph6_bytes(cycle(3000)).decode())
        code, out, err = run(capsys, "witness", "find", "--graph", str(path), "--k", "2",
                             "--budget", "10000")
        assert code == 0 and json.loads(out)["pass"] and "Traceback" not in err

    def test_find_negative_budget_exit_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "find", "--graph", str(tmp_path / "missing.g6"), "--k", "2",
                  "--budget", "-5"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith("error: argument --budget: must be >= 0, got -5\n")
        with pytest.raises(ValueError, match="^budget must be >= 0, got -5$"):
            find_witness(cycle(8), 2, -5)

    def test_malformed_set_exit_2(self, capsys, tmp_path):
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        with pytest.raises(SystemExit) as exc:
            main(["witness", "check", "tf", "--graph", str(path), "--set", "a,b"])
        assert exc.value.code == 2


class TestSearch:
    def test_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "search", "enumerate", "--n", "6", "--delta", "2",
            "--g", "4", "--jobs", "1",
        )
        data = json.loads(out)
        assert code == 0 and data["max_radius"] == 3
        assert from_graph6(data["witness"]).n == 6

    def test_verify_theorem(self, capsys):
        code, out, _ = run(
            capsys, "search", "verify-theorem", "--n-max", "6", "--deltas", "2,3",
            "--jobs", "1",
        )
        data = json.loads(out)
        assert code == 0 and data["all_equal"]

    def test_verify_theorem_repeated_delta_once(self, capsys):
        code, out, _ = run(capsys, "search", "verify-theorem", "--n-max", "3", "--deltas", "2,2",
                           "--jobs", "1")
        data = json.loads(out)
        assert code == 0 and [(row["n"], row["delta"]) for row in data["rows"]] == [(1, 2), (2, 2), (3, 2)]

    @pytest.mark.parametrize("argv,message", [
        (("--n", "9"), "n = 9 above the enumeration cap 8 (pass allow_long=True or --long-run to go up to 9)"),
        (("--n", "10"), "n = 10 above the enumeration cap 8"),
        (("--n", "10", "--long-run"), "n = 10 above the enumeration cap 9"),
    ])
    def test_enumerate_cap_exit_2(self, capsys, argv, message):
        # the hint names --long-run only where it raises the cap far enough
        code, out, err = run(capsys, "search", "enumerate", *argv, "--delta", "2", "--g", "4")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (("--n-max", "0"), "n_max must be >= 1, got 0"),
        (("--n-max", "-3"), "n_max must be >= 1, got -3"),
        (("--n-max", "4", "--deltas", ","), "delta_set names no degree floor"),
        (("--n-max", "4", "--deltas", ""), "delta_set names no degree floor"),
    ])
    def test_verify_theorem_empty_table_exit_2(self, capsys, argv, message):
        # the parser rejects the option named last before the library sees the table
        option = argv[-2]
        with pytest.raises(SystemExit) as exc:
            main(["search", "verify-theorem", *argv, "--jobs", "1"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        [error] = [line for line in out.err.splitlines() if "error:" in line]
        assert error.startswith(f"radgraph search verify-theorem: error: argument {option}: ")
        # and the library keeps its own check of the same input
        options = dict(zip(argv[::2], argv[1::2]))
        deltas = [int(tok) for tok in options.get("--deltas", "2,3").split(",") if tok]
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_theorem_main_small(int(options["--n-max"]), deltas)

    @pytest.mark.parametrize("argv,message", [
        (("search", "enumerate", "--n", "5", "--delta", "2", "--g", "4", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
        (("search", "enumerate", "--n", "5", "--delta", "2", "--g", "4", "--jobs", "-3"), "--jobs: must be >= 1, got -3"),
        (("search", "verify-theorem", "--n-max", "4", "--deltas", "2", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
        (("search", "verify-theorem", "--n-max", "4", "--deltas", "2", "--jobs", "-2"), "--jobs: must be >= 1, got -2"),
        (("search", "stream", "--delta", "-3", "--g", "4"), "--delta: must be >= 0, got -3"),
        (("search", "stream", "--delta", "2", "--g", "0"), "--g: must be >= 3, got 0"),
        (("search", "stream", "--delta", "2", "--g", "2"), "--g: must be >= 3, got 2"),
        # bound: an empty order, a girth floor below 3 and a degree floor below 2
        *[(("bound", "--n", n, "--delta", "3", "--g", g), f"--n: must be >= 1, got {n}")
          for n, g in [("-5", "6"), ("0", "8"), ("0", "4"), ("-5", "5"), ("0", "7"), ("0", "3")]],
        *[(("bound", "--n", "15", "--delta", "3", "--g", g), f"--g: must be >= 3, got {g}")
          for g in ["2", "-4"]],
        *[(("bound", "--n", "15", "--delta", delta, "--g", g), f"--delta: must be >= 2, got {delta}")
          for delta, g in [("0", "7"), ("1", "3"), ("1", "5"), ("-2", "3"), ("1", "6"), ("0", "4")]],
    ])
    def test_out_of_domain_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        command = " ".join(word for word in argv[:2] if not word.startswith("-"))
        assert [line for line in out.err.splitlines() if "error:" in line] == [
            f"radgraph {command}: error: argument {message}"]

    def test_stream_domain_minimum_accepted(self, capsys, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text(graph6_bytes(cycle(5)).decode())
        code, out, _ = run(capsys, "search", "stream", "--delta", "0", "--g", "3", "--input", str(path))
        assert code == 0 and json.loads(out)["accepted"] == 1

    def test_stream_from_stdin(self, capsys, monkeypatch):
        import io

        text = graph6_bytes(cycle(8)).decode() + "\n" + graph6_bytes(cycle(5)).decode() + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "search", "stream", "--delta", "2", "--g", "4")
        data = json.loads(out)
        assert code == 0 and data["accepted"] == 2 and data["max_radius"] == 4

    def test_stream_from_file(self, capsys, tmp_path):
        path = tmp_path / "catalogue.g6"
        lines = [graph6_bytes(cycle(8)).decode(), "", "C!", graph6_bytes(cycle(5)).decode()]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "search", "stream", "--delta", "2", "--g", "4",
                           "--input", str(path))
        data = json.loads(out)
        assert code == 0 and data["total"] == 3 and data["malformed"] == 1
        assert data["accepted"] == 2 and data["max_radius"] == 4

    #: Petersen, C_6, C_8 plus a chord, a malformed line, a blank line, K_3,3,
    #: C_5 behind the format header, an edgeless n = 2 line with a padding bit
    #: set, and K_3 and K_4, which fail on a triangle.
    CATALOGUE = b"IheA@GUAo\nEhEG\nGhcGKC\nG?!bad\n\nEFz_\n>>graph6<<Dhc\nA@\nBw\nC~\n"

    @pytest.mark.parametrize("delta,g", [(2, 4), (3, 5), (0, 3)])
    def test_stream_prints_the_same_for_every_job_count(self, capsys, monkeypatch, tmp_path, delta, g):
        monkeypatch.setattr("radgraph.search._SPLIT_BYTES", 0)  # so that the short file is split
        path = tmp_path / "catalogue.g6"
        path.write_bytes(self.CATALOGUE)
        argv = ("search", "stream", "--delta", str(delta), "--g", str(g))
        printed = {run(capsys, *argv, "--input", str(path), "--jobs", str(jobs)) for jobs in (1, 2, 3)}
        for jobs in (1, 2):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.CATALOGUE), encoding="ascii"))
            printed.add(run(capsys, *argv, "--jobs", str(jobs)))
        assert len(printed) == 1
        [(code, out, err)] = printed
        assert code == 0 and err == "" and json.loads(out)["total"] == 9

    @pytest.mark.parametrize("command,options,message", [
        ("search verify-theorem", "--n-max 2 --deltas 0", "--deltas: must be >= 2, got 0"),
        ("search verify-theorem", "--n-max 2 --deltas 3,1,2", "--deltas: must be >= 2, got 1"),
        ("witness check tf", "--graph missing.g6 --set=-1,3", "--set: must be >= 0, got -1"),
        ("witness check general", "--graph missing.g6 --set 4,0,-3 --k 2", "--set: must be >= 0, got -3"),
    ])
    def test_list_element_below_its_floor_exit_2_before_any_read(self, capsys, monkeypatch, tmp_path,
                                                                   command, options, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), *options.split()])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "" and "No such file" not in out.err
        assert out.err.startswith(f"usage: radgraph {command} ")
        assert [line for line in out.err.splitlines() if "error:" in line] == [
            f"radgraph {command}: error: argument {message}"]

    def test_stream_non_ascii_line_is_malformed(self, capsys, monkeypatch, tmp_path):
        import io

        data = b"\n".join([graph6_bytes(cycle(8)), b"G\xe9??", graph6_bytes(cycle(5)), b""])
        path = tmp_path / "catalogue.g6"
        path.write_bytes(data)
        argv = ("search", "stream", "--delta", "2", "--g", "4")
        file_code, file_out, _ = run(capsys, *argv, "--input", str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        stdin_code, stdin_out, _ = run(capsys, *argv)
        assert file_code == stdin_code == 0
        assert file_out == stdin_out
        report = json.loads(file_out)
        assert report["total"] == 3 and report["malformed"] == 1 and report["accepted"] == 2


class TestExtract:
    def test_extract_json(self, capsys, tmp_path):
        path = tmp_path / "glue.g6"
        run(capsys, "construct", "pg-plane", "--q", "2", "--output", str(path))
        heawood = path.read_text().strip()
        glue_path = tmp_path / "g6.g6"
        code, out, _ = run(
            capsys, "construct", "glue", "--base", str(path), "--m", "6",
            "--output", str(glue_path),
        )
        code, out, _ = run(capsys, "extract", "--graph", str(glue_path), "--k", "3")
        data = json.loads(out)
        assert code == 0
        assert data["subgraph_n"] <= data["vertex_bound"]
        assert data["subgraph_edges"] >= data["edge_bound"]
        sub = from_graph6(data["subgraph"])
        assert sub.n == data["subgraph_n"]


def test_seed_flag_accepted(capsys, tmp_path):
    # --seed and witness find --jobs were accepted and ignored; both are gone
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "bound", "--n", "8", "--delta", "2", "--g", "4"])
    assert exc.value.code == 2
    path = tmp_path / "c8.g6"
    path.write_text(graph6_bytes(cycle(8)).decode())
    with pytest.raises(SystemExit) as exc:
        main(["witness", "find", "--graph", str(path), "--k", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_jobs_default_is_the_cpus_this_process_may_run_on(monkeypatch):
    argv = ["search", "enumerate", "--n", "5", "--delta", "2"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._build_parser().parse_args(argv).jobs == 1
    # where os cannot tell, every CPU of the host counts, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._build_parser().parse_args(argv).jobs == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._build_parser().parse_args(argv).jobs == 1


def test_option_names_are_not_abbreviated(capsys, tmp_path):
    # --input is search stream's file option; for analyze it used to be read
    # as a prefix of --input-format
    path = tmp_path / "c8.g6"
    path.write_text(graph6_bytes(cycle(8)).decode())
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--graph", str(path), "--input", str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --input" in capsys.readouterr().err
    code, out, _ = run(capsys, "search", "stream", "--delta", "2", "--g", "4", "--input", str(path))
    assert code == 0 and json.loads(out)["accepted"] == 1


def leaf_parsers(parser, path=()):
    """(command words, parser) of every sub-parser that has no sub-commands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


CHECKS = ["witness check general", "witness check tf", "witness check cycles"]


def test_parser_walk():
    # each leaf names its handler and takes --pretty once; each choices list is its table's keys
    leaves = dict(leaf_parsers(cli._build_parser()))
    assert set(leaves) == {*(f"construct {kind}" for kind in cli._FAMILIES), "analyze", "bound",
                           *CHECKS, "witness find", "search enumerate",
                           "search verify-theorem", "search stream", "extract"}
    # each check binds its checker, and only general takes --k and only cycles --r
    for path, parameter in zip(CHECKS, [["--k"], [], ["--r"]]):
        parser = leaves[path]
        assert callable(parser.get_default("check")), path
        assert [a.option_strings[0] for a in parser._actions if a.required] == [
            "--graph", "--set", *parameter], path
    tables = {"format": cli._RENDERERS, "input_format": cli._LOADERS}
    chosen = {name: [] for name in tables}
    for path, parser in leaves.items():
        assert callable(parser.get_default("run")), path
        assert [a.option_strings for a in parser._actions].count(["--pretty"]) == 1, path
        for action in parser._actions:
            if action.dest in tables:
                assert list(action.choices) == list(tables[action.dest]), (path, action.dest)
                chosen[action.dest].append(path)
    assert chosen == {
        "format": [f"construct {kind}" for kind in cli._FAMILIES],
        "input_format": ["analyze", *CHECKS, "witness find", "extract"],
    }


#: The floor of every integer option, by leaf command: the least value the
#: library takes for some choice of the command's other options.  A list
#: option's floor holds for each of its elements.
FLOORS = {
    "construct box": {"--r": 4, "--delta": 2, "--c": 0},
    "construct bipartite2": {"--n": 4, "--delta": 2},
    "construct radius3": {"--n": 6, "--delta": 2},
    "construct pg-plane": {"--q": 2},
    "construct gq": {"--q": 2},
    "construct glue": {"--m": 2},
    "bound": {"--n": 1, "--delta": 2, "--g": 3},
    "witness check general": {"--set": 0, "--k": 2},
    "witness check tf": {"--set": 0},
    "witness check cycles": {"--set": 0, "--r": 4},
    "witness find": {"--k": 2, "--budget": 0},
    "search enumerate": {"--n": 1, "--delta": 0, "--g": 3, "--jobs": 1},
    "search verify-theorem": {"--n-max": 1, "--deltas": 2, "--jobs": 1},
    "search stream": {"--delta": 0, "--g": 3, "--jobs": 1},
    "extract": {"--k": 2},
}
#: The other options that a leaf in FLOORS needs, with files in the working
#: directory, and the values that replace a floor where the floor alone fails
#: the check (a set of one vertex is no witness for two cycles).
OTHERS = {
    "construct glue": "--base h.g6",
    "witness check general": "--graph c8.g6",
    "witness check tf": "--graph c8.g6",
    "witness check cycles": "--graph c8.g6 --set 0,1,2,3,4,5,6,7",
    "witness find": "--graph c8.g6",
    "search stream": "--input c8.g6",
    "extract": "--graph c8.g6",
}


def at_floors(path, **values):
    """The argv of ``path`` with every integer option at its floor unless
    given in values, or else in OTHERS."""
    others = OTHERS.get(path, "").split()
    argv = [*path.split(), *others]
    for option, floor in FLOORS[path].items():
        if option in values or option not in others:
            argv += [option, str(values.get(option, floor))]
    return argv


def test_every_integer_option_has_a_floor():
    for path, parser in leaf_parsers(cli._build_parser()):
        assert all(action.type is not int for action in parser._actions), path
        integers = [action.option_strings[0] for action in parser._actions
                    if getattr(action.type, "__name__", None) in ("integer", "integers")]
        assert set(integers) == set(FLOORS.get(path, [])), path


@pytest.mark.parametrize("path", list(FLOORS))
def test_every_floor_runs(capsys, monkeypatch, tmp_path, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.g6").write_bytes(graph6_bytes(projective_plane_incidence_graph(2)))
    (tmp_path / "c8.g6").write_bytes(graph6_bytes(cycle(8)))
    code, out, err = run(capsys, *at_floors(path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("path,option", [(path, option) for path in FLOORS for option in FLOORS[path]])
def test_below_the_floor_exit_2_before_any_read(capsys, monkeypatch, tmp_path, path, option):
    # every file the command names is missing, so a read before the parse error would show
    monkeypatch.chdir(tmp_path)
    floor = FLOORS[path][option]
    with pytest.raises(SystemExit) as exc:
        main(at_floors(path, **{option: floor - 1}))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "No such file" not in out.err
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        f"radgraph {path}: error: argument {option}: must be >= {floor}, got {floor - 1}"]


#: The files the property below names: graphs with and without a triangle, a
#: tree, an edge list, a malformed and an empty file, and one that is missing.
GRAPHS = {
    "c8.g6": graph6_bytes(cycle(8)),
    "h.g6": graph6_bytes(projective_plane_incidence_graph(2)),
    "k4.g6": b"C~",
    "path.g6": graph6_bytes(build_graph(3, [(0, 1), (1, 2)])),
}
FILES = {**GRAPHS, "c8.el": to_edgelist_text(cycle(8)).encode(), "bad.g6": b"G?!bad", "empty.g6": b""}
#: Fixed ranges the property draws integers from, by option or by (leaf, option),
#: so that each run stays small; any other integer takes floor .. floor + 4, or
#: from floor - 2 in a careless command line.
RANGES = {"--jobs": (1, 2), "--budget": (-1, 1000), ("search enumerate", "--n"): (-1, 6),
          ("search verify-theorem", "--n-max"): (-1, 5), ("construct gq", "--q"): (0, 5)}
LEAVES = list(leaf_parsers(cli._build_parser()))


@pytest.mark.parametrize("path,parser", LEAVES, ids=[path for path, _ in LEAVES])
def test_unknown_option_is_reported_by_its_leaf(capsys, monkeypatch, tmp_path, path, parser):
    # every file the command names is missing, so a read before the parse error would show
    monkeypatch.chdir(tmp_path)
    argv = at_floors(path) if path in FLOORS else [*path.split(), "--graph", "c8.g6"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--zzz"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"usage: {parser.prog} [-h]")
    assert out.err.endswith(f"\n{parser.prog}: error: unrecognized arguments: --zzz\n")


#: Each command that has sub-commands, and a leaf below it.
COMMANDS = {"": "bound", "construct": "construct box", "witness": "witness find",
            "witness check": "witness check tf", "search": "search enumerate"}


@pytest.mark.parametrize("path,leaf", COMMANDS.items())
def test_unknown_option_before_a_command_word_is_reported_there(capsys, monkeypatch, tmp_path, path, leaf):
    # ``witness check --zzz tf ...``: the parser that meets --zzz reports it with its own usage
    monkeypatch.chdir(tmp_path)
    words = path.split()
    prog = " ".join(["radgraph", *words])
    with pytest.raises(SystemExit) as exc:
        main([*words, "--zzz", *at_floors(leaf)[len(words):]])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"usage: {prog} [-h]")
    assert out.err.endswith(f"\n{prog}: error: unrecognized arguments: --zzz\n")


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    for name, data in FILES.items():
        (root / name).write_bytes(data + b"\n" if data else data)
    return root


def option_words(path, action, root, careless):
    """A strategy for the words that follow ``action``'s option in ``path``.

    A careful command line keeps to each option's domain and names graph
    files; a careless one also draws values below the floors, choices and
    lists that do not parse, and files that do not hold a graph."""
    option = action.option_strings[0]
    if action.nargs == 0:
        return st.just([])
    if action.choices:
        words = st.sampled_from([*action.choices, "xyz"] if careless else list(action.choices))
    elif getattr(action.type, "__name__", None) == "integer":
        floor = FLOORS[path][option]
        lo, hi = RANGES.get(option, RANGES.get((path, option), (floor - 2 if careless else floor, floor + 4)))
        words = st.integers(lo, hi).map(str)
    elif getattr(action.type, "__name__", None) == "integers":
        if careless:
            words = st.lists(st.integers(-1, 9), max_size=4).map(lambda xs: ",".join(map(str, xs)))
            words = st.one_of(words, st.sampled_from(["a,b", "1,,2", " "]))
        else:  # from the floor up: --set names vertices of every graph in GRAPHS
            floor = FLOORS[path][option]
            words = st.lists(st.integers(floor, floor + 2), min_size=1, max_size=4).map(
                lambda xs: ",".join(map(str, xs)))
    elif option == "--output":
        words = st.sampled_from(["-", str(root / "out.txt")])
    else:  # --graph, --base, --input
        names = [*FILES, "missing.g6"] if careless else list(GRAPHS)
        words = st.sampled_from([str(root / name) for name in names])
    return words.map(lambda word: [word])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2(small_files, data):
    path, parser = data.draw(st.sampled_from(LEAVES), label="leaf")
    careless = data.draw(st.booleans(), label="careless")
    argv = path.split()
    for action in data.draw(st.permutations(parser._actions)):
        if action.option_strings in (["-h", "--help"], ["--long-run"]):
            continue
        # a careless line leaves out a required option now and then; either takes
        # an optional one half the time
        if data.draw(st.integers(0, 9)) < ((9 if careless else 10) if action.required else 5):
            argv += [action.option_strings[0],
                     *data.draw(option_words(path, action, small_files, careless))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv


@pytest.mark.parametrize("argv", [
    "bound --n 14 --delta 3 --g 6",
    "analyze --graph c8.g6",
    "construct box --r 4 --delta 2 --verify",
    "witness check tf --graph c8.g6 --set 0,2",
    "search enumerate --n 6 --delta 2 --g 4 --jobs 1",
])
def test_pretty_indents_the_plain_payload(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c8.g6").write_bytes(graph6_bytes(cycle(8)))
    code, plain, err = run(capsys, *argv.split())
    *lines, payload = plain.splitlines()  # construct writes its graph first
    want = "".join(line + "\n" for line in lines)
    want += json.dumps(json.loads(payload), indent=2, sort_keys=True) + "\n"
    assert run(capsys, *argv.split(), "--pretty") == (code, want, err)


#: Runs main(argv) in a fresh interpreter; prints the exit code, the radgraph
#: submodules whose code has run (a lazy stub is not yet a plain module),
#: whether dataclasses was imported, whether a process pool module was and
#: whether fractions was.
LAUNCH = """
import contextlib, io, json, sys, types
from radgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
executed = [name for name, module in sys.modules.items()
            if name.startswith("radgraph.") and type(module) is types.ModuleType]
pools = [name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules]
print(json.dumps([code, sorted(executed), "dataclasses" in sys.modules, pools, "fractions" in sys.modules]))
"""


@pytest.mark.parametrize("argv,modules", [
    ("bound --n 15 --delta 3 --g 4", "bounds"),
    ("search stream --delta 2 --g 4 --input ring.g6", "bounds graph io search"),
    ("search stream --delta 2 --g 4 --input rings.g6 --jobs 2", "bounds graph io search"),
    ("search enumerate --n 6 --delta 2 --g 4 --jobs 1", "constructions graph io search"),
    ("search verify-theorem --n-max 4 --deltas 2 --jobs 1", "bounds constructions graph io search"),
    ("search enumerate --n 7 --delta 2 --g 4 --jobs 2", "constructions graph io search"),
    ("search verify-theorem --n-max 6 --deltas 2 --jobs 2", "bounds constructions graph io search"),
    ("construct glue --base h.g6 --m 3", "constructions graph io"),
    ("construct gq --q 3", "fields geometry graph io"),
    ("construct box --r 4 --delta 2", "constructions graph io"),
    ("construct bipartite2 --n 6 --delta 2", "constructions graph io"),
    ("construct radius3 --n 8 --delta 3", "constructions graph io"),
    ("construct pg-plane --q 2", "fields geometry graph io"),
    ("analyze --graph ring.g6", "graph io"),
    ("witness find --graph ring.g6 --k 3", "graph io witness"),
    ("witness check general --graph h.g6 --set 0,8 --k 3", "graph io witness"),
    ("witness check tf --graph c8.g6 --set 0,1,4,5", "graph io witness"),
    ("witness check cycles --graph c8.g6 --set 0,1,2,3,4,5,6,7 --r 4", "graph io witness"),
    ("extract --graph ring.g6 --k 3", "constructions graph io"),
])
def test_command_executes_only_its_modules(tmp_path, argv, modules):
    heawood = projective_plane_incidence_graph(2)
    (tmp_path / "h.g6").write_bytes(graph6_bytes(heawood))
    (tmp_path / "ring.g6").write_bytes(graph6_bytes(glue_cycle(heawood, 4)))
    # long enough for stream --jobs 2 to split it
    rings = b"".join(graph6_bytes(glue_cycle(heawood, m)) + b"\n" for m in range(3, 15))
    (tmp_path / "rings.g6").write_bytes(rings * -(-search._SPLIT_BYTES // len(rings)))
    (tmp_path / "c8.g6").write_bytes(graph6_bytes(cycle(8)))
    launched = fresh_python(LAUNCH, *argv.split(), cwd=tmp_path)
    code, executed, dataclasses, pools, fractions = json.loads(launched)
    assert code == 0
    assert executed == sorted(f"radgraph.{name}" for name in ["cli", *modules.split()])
    assert not dataclasses  # the result records are plain slot classes
    assert not pools  # --jobs 2 forks its span workers
    assert fractions == ("bounds" in modules.split())  # only the exact bounds need it

