import json

import pytest

import radgraph.witness
from radgraph import (
    build_graph,
    check_witness_general,
    find_witness,
    from_graph6,
    glue_cycle,
    graph6_bytes,
    metric_summary,
    projective_plane_incidence_graph,
)
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
        code, _, err = run(capsys, "construct", "box", "--r", "3", "--delta", "3")
        assert code == 2 and "r >= 4" in err

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


class TestBound:
    def test_g4(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "4")
        data = json.loads(out)
        assert code == 0 and data["exact"] == 4 and "upper" in data

    def test_g6(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "14", "--delta", "3", "--g", "6")
        data = json.loads(out)
        assert data["upper"] == 12.5 and data["cage_lower"] == 0

    def test_integral_bound_prints_as_int(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "4")
        assert code == 0 and out == '{"exact": 4, "upper": 11}\n'

    def test_nonexistent(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--delta", "3", "--g", "4")
        assert json.loads(out)["exact"] == "nonexistent"

    @pytest.mark.parametrize("n,delta,g", [("-5", "3", "6"), ("0", "3", "8"), ("0", "3", "4"),
                                           ("-5", "3", "5"), ("0", "3", "7"), ("0", "3", "3")])
    def test_empty_order_exit_2(self, capsys, n, delta, g):
        code, out, err = run(capsys, "bound", "--n", n, "--delta", delta, "--g", g)
        assert code == 2 and out == "" and "order must be >= 1" in err

    @pytest.mark.parametrize("g", ["2", "-4"])
    def test_girth_below_3_exit_2(self, capsys, g):
        code, out, err = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", g)
        assert code == 2 and out == "" and "girth must be >= 3" in err

    @pytest.mark.parametrize("delta,g", [("0", "7"), ("1", "3"), ("1", "5"), ("-2", "3"),
                                         ("1", "6"), ("0", "4")])
    def test_degree_floor_below_2_exit_2(self, capsys, delta, g):
        code, out, err = run(capsys, "bound", "--n", "15", "--delta", delta, "--g", g)
        assert code == 2 and out == ""
        assert err == f"error: minimum degree must be >= 2, got {delta}\n"

    def test_girth_3_has_no_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "15", "--delta", "3", "--g", "3")
        assert code == 0 and json.loads(out) == {}


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
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, err = run(capsys, "witness", "check", *argv, "--graph", str(path),
                             "--set", "0,1,2,3,4,5,6,7")
        assert code == 2 and out == "" and err == f"error: {message}\n"

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
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        with pytest.raises(SystemExit) as exc:
            main(["witness", "check", "general", "--graph", str(path), "--set", text, "--k", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad vertex set" in captured.err

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
        path = tmp_path / "c8.g6"
        path.write_text(graph6_bytes(cycle(8)).decode())
        code, out, err = run(capsys, "witness", "find", "--graph", str(path), "--k", "2",
                             "--budget", "-5")
        assert code == 2 and out == ""
        assert err == "error: budget must be >= 0, got -5\n"

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
        code, out, err = run(capsys, "search", "verify-theorem", *argv, "--jobs", "1")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (("enumerate", "--n", "5", "--delta", "2", "--g", "4", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
        (("enumerate", "--n", "5", "--delta", "2", "--g", "4", "--jobs", "-3"), "--jobs: must be >= 1, got -3"),
        (("verify-theorem", "--n-max", "4", "--deltas", "2", "--jobs", "0"), "--jobs: must be >= 1, got 0"),
        (("verify-theorem", "--n-max", "4", "--deltas", "2", "--jobs", "-2"), "--jobs: must be >= 1, got -2"),
        (("stream", "--delta", "-3", "--g", "4"), "--delta: must be >= 0, got -3"),
        (("stream", "--delta", "2", "--g", "0"), "--g: must be >= 3, got 0"),
        (("stream", "--delta", "2", "--g", "2"), "--g: must be >= 3, got 2"),
    ])
    def test_out_of_domain_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["search", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert [line for line in out.err.splitlines() if "error:" in line] == [
            f"radgraph search {argv[0]}: error: argument {message}"]

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


#: Runs main(argv) in a fresh interpreter; prints the exit code, the radgraph
#: submodules whose code has run (a lazy stub is not yet a plain module) and
#: whether dataclasses was imported.
LAUNCH = """
import contextlib, io, json, sys, types
from radgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
executed = [name for name, module in sys.modules.items()
            if name.startswith("radgraph.") and type(module) is types.ModuleType]
print(json.dumps([code, sorted(executed), "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("argv,modules", [
    ("bound --n 15 --delta 3 --g 4", "bounds"),
    ("search stream --delta 2 --g 4 --input ring.g6", "bounds graph io search"),
    ("search enumerate --n 6 --delta 2 --g 4 --jobs 1", "bounds constructions graph io search"),
    ("construct glue --base h.g6 --m 3", "constructions graph io"),
    ("construct gq --q 3", "fields geometry graph io"),
    ("analyze --graph ring.g6", "graph io"),
    ("witness find --graph ring.g6 --k 3", "graph io witness"),
    ("extract --graph ring.g6 --k 3", "constructions graph io"),
])
def test_command_executes_only_its_modules(tmp_path, argv, modules):
    heawood = projective_plane_incidence_graph(2)
    (tmp_path / "h.g6").write_bytes(graph6_bytes(heawood))
    (tmp_path / "ring.g6").write_bytes(graph6_bytes(glue_cycle(heawood, 4)))
    code, executed, dataclasses = json.loads(fresh_python(LAUNCH, *argv.split(), cwd=tmp_path))
    assert code == 0
    assert executed == sorted(f"radgraph.{name}" for name in ["cli", *modules.split()])
    if argv.startswith("bound"):
        assert not dataclasses
