"""Tests of the benchmark's own code: inputs, codec, span arithmetic, checks."""

import json
import random

import pytest

import inputs
import oracle
import run
import spans
import workloads


@pytest.fixture
def small_catalogue(monkeypatch):
    monkeypatch.setattr(inputs, "CATALOGUE_LINES", 400)
    monkeypatch.setattr(inputs, "TAIL_LINES", 3)


def test_catalogue_is_a_function_of_the_seed(small_catalogue):
    first = inputs.catalogue(7)
    assert first == inputs.catalogue(7)
    assert first != inputs.catalogue(8)
    assert len(first) == 400


def test_catalogue_mix(small_catalogue):
    facts = inputs.line_facts(inputs.catalogue(3))
    malformed = sum(f is None for f in facts)
    disconnected = sum(f is not None and not f[1] for f in facts)
    assert 0 < malformed < 20
    assert 0 < disconnected < 40
    assert max(f[0] for f in facts if f) > 62  # the tail crosses the one-byte size header


def test_encode_known_values():
    assert oracle.encode(0, []) == "?"
    assert oracle.encode(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"
    assert oracle.encode(63, [])[:4] == "~??~"


@pytest.mark.parametrize("seed", range(20))
def test_encode_decode_round_trip(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 5, 62, 63, 200])
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))} if n > 1 else set()
    got_n, got = oracle.decode(oracle.encode(n, edges))
    assert got_n == n and set(got) == edges


@pytest.mark.parametrize("text", ["", "C!", "Cw?", "Bx", "Bw\x7f"])
def test_decode_rejects_malformed(text):
    with pytest.raises(ValueError):
        oracle.decode(text)


def test_radius_and_girth_on_small_graphs():
    c7 = oracle.adjacency(7, inputs.cycle(7))
    assert oracle.radius(c7) == 3
    assert oracle.girth_capped(c7, 9) == 7
    assert oracle.girth_capped(c7, 5) == 5
    two = oracle.adjacency(8, inputs.cycle(4) + [(4 + u, 4 + v) for u, v in inputs.cycle(4)])
    assert oracle.radius(two) is None
    petersen = oracle.adjacency(10, inputs.PETERSEN)
    assert (oracle.radius(petersen), oracle.girth_capped(petersen, 9)) == (2, 5)


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        spans.Span(0, "cli.main", None, 0, 0.0, 10.0),
        spans.Span(1, "graph.metric_summary", 0, 0, 1.0, 4.0),
        spans.Span(2, "io.from_graph6", 0, 0, 5.0, 9.0, count=100),
        spans.Span(3, "graph.build_graph", 2, 0, 6.0, 7.5),
        spans.Span(4, "io.from_graph6", None, 1, 20.0, 21.0, count=50),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.5, 1.5, 1.0]
    layers, funcs = spans.rollup(tree)
    assert layers["graph"] == {"calls": 2, "self_s": 4.5}
    assert layers["io"] == {"calls": 2, "self_s": 3.5}
    assert funcs["io.from_graph6"]["count"] == 150
    metrics = spans.per_layer_metrics(tree, 10, 12.0, 10.0)
    assert metrics["io.from_graph6.bytes_per_s"]["value"] == pytest.approx(150 / 3.5)
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(0.2)
    assert metrics["search.graphs_per_s"]["value"] == 0.0
    assert [m for m, _ in spans.PER_LAYER] == list(metrics)


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()
    inner = tracer._wrap("io.from_graph6", lambda data: data.upper())
    outer = tracer._wrap("cli.main", lambda argv: inner(argv[0]))
    tracer.op = 4
    assert outer(["abc"]) == "ABC"
    first, second = tracer.spans
    assert (first.name, first.parent, second.name, second.parent) == ("cli.main", None, "io.from_graph6", 0)
    assert second.count == 3 and second.op == 4
    assert first.start <= second.start <= second.end <= first.end


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER


def test_checks_accept_right_and_reject_wrong_output():
    good = '{"exact": 4, "upper": 11}\n'
    assert run.judge(workloads.check_setup, 0, good, "") == ""
    assert run.judge(workloads.check_setup, 0, '{"exact": 4, "upper": 12}\n', "")
    assert run.judge(workloads.check_setup, 0, "not json\n", "")
    assert run.judge(workloads.check_setup, 1, good, "")
    assert run.judge(workloads.check_setup, 0, good, "Traceback (most recent call last):\nBoom\n")


def test_witness_check_uses_its_own_distances():
    c12 = oracle.adjacency(12, inputs.cycle(12))
    ok = json.dumps({"kind": "witness-general", "claimed": 8, "measured": 12, "pass": True,
                     "witness": [0, 1, 6, 7]})
    workloads._check_witness(ok, c12, 2)
    too_close = json.dumps({"kind": "witness-general", "claimed": 8, "measured": 12, "pass": True,
                            "witness": [0, 2, 6, 7]})
    with pytest.raises(workloads.CheckFailed):
        workloads._check_witness(too_close, c12, 2)


def test_stream_check_rejects_a_wrong_count(tmp_path, small_catalogue):
    stream_ops = workloads.build("stream", 5, tmp_path)
    lines = (tmp_path / "catalogue.g6").read_text().splitlines()
    want = inputs.stream_expected(lines, inputs.line_facts(lines), 2, 4)
    stream_ops[0].check(json.dumps(want))
    want["accepted"] += 1
    with pytest.raises(workloads.CheckFailed):
        stream_ops[0].check(json.dumps(want))
