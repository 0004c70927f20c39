import random
from itertools import combinations

import networkx as nx
import pytest

import radgraph.io
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radgraph import (
    build_graph,
    from_edgelist_text,
    from_graph6,
    graph6_bytes,
    to_dot,
    to_edgelist_text,
)
from radgraph.graph import _from_rows
from radgraph.io import _graph6_body, _graph6_rows, _graph6_size
from conftest import cycle
from oracles import from_graph6_reference, graph6_reference, rows_of


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def assert_rows_of(n, body, G):
    """``_graph6_rows`` gives G's rows and whether it has a triangle, two
    ends of an edge with a common neighbour, and stops at one on request."""
    rows = rows_of(G)
    triangle = any(set(G.adj[u]) & set(G.adj[v]) for u, v in G.edges())
    assert _graph6_rows(n, body, False) == (rows, triangle)
    assert _graph6_rows(n, body, True) == ((None, True) if triangle else (rows, False))


def corpus():
    graphs = [
        build_graph(0, []),
        build_graph(1, []),
        build_graph(2, [(0, 1)]),
        cycle(5),
        cycle(8),
        build_graph(6, [(0, i) for i in range(1, 6)]),
    ]
    graphs += [random_graph(n, p, seed=n * 17 + int(p * 10))
               for n in (3, 7, 10, 13, 62, 63, 70)
               for p in (0.2, 0.5)]
    return graphs


@pytest.mark.parametrize("n", [3, 7, 8, 9, 10, 13, 16])
def test_graph6_slices_encode_the_same_line(monkeypatch, n):
    # slices of 3 or 6 body bytes: bodies of 1 to 15 bytes, ending in every base64 quantum
    G = random_graph(n, 0.5, seed=n)
    expected = graph6_reference(n, list(G.edges()))
    for slice_bytes in (3, 6):
        monkeypatch.setattr(radgraph.io, "_ENCODE_SLICE", slice_bytes)
        assert graph6_bytes(G) == expected


@pytest.mark.parametrize("G", corpus(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_graph6_round_trip(G):
    assert from_graph6(graph6_bytes(G)) == G


@pytest.mark.parametrize("G", corpus(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_graph6_bit_exact_vs_networkx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    expected = nx.to_graph6_bytes(H, header=False).strip()
    assert graph6_bytes(G) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7, 62, 63, 64, 65, 130, 300])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.7, 1.0])
def test_graph6_matches_bit_loop_reference(n, p):
    G = random_graph(n, p, seed=n * 31 + int(p * 10))
    expected = graph6_reference(n, list(G.edges()))
    assert graph6_bytes(G) == expected


@pytest.mark.parametrize("G", corpus(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_graph6_from_rows_matches_graph6_bytes(G):
    # the search keys a leaf by graph6_bytes(_from_rows(rows))
    H = _from_rows(rows_of(G))
    assert H == G and H.edge_count == G.edge_count
    assert all(list(row) == sorted(row) for row in H.adj)
    assert graph6_bytes(H) == graph6_bytes(G)


@st.composite
def graphs_around_the_long_header(draw):
    n = draw(st.integers(55, 70))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=120))
    return build_graph(n, chosen)


@settings(max_examples=60, deadline=None)
@given(graphs_around_the_long_header())
def test_graph6_round_trip_property(G):
    data = graph6_bytes(G)
    assert data == graph6_reference(G.n, list(G.edges()))
    assert (data[0] == 126) == (G.n > 62)
    assert from_graph6(data) == G


@pytest.mark.parametrize("n", [0, 1, 2, 6, 7, 62, 63, 64, 130, 300])  # 300: several decode slices
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_graph6_decoder_matches_bit_loop_reference(n, p):
    G = random_graph(n, p, seed=n * 37 + int(p * 10))
    data = graph6_reference(n, list(G.edges()))
    for form in (data, b" >>graph6<<" + data + b"\n", data.decode("ascii")):
        H = from_graph6(form)
        assert H == from_graph6_reference(form) == G
        assert H.edge_count == G.edge_count
        stripped, order, pos = _graph6_size(form)
        body = _graph6_body(stripped, order, pos)
        # search stream's edge-count floor reads m as the body's popcount
        assert (order, int.from_bytes(body, "big").bit_count()) == (n, G.edge_count)
        assert_rows_of(n, body, G)
        assert all(list(row) == sorted(row) for row in H.adj)


@st.composite
def mutated_encodings(draw):
    """Valid encodings of small graphs with one byte overwritten, inserted or
    removed, so that many draws stay near the valid set."""
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 7, 11, 62, 63, 64]))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    data = bytearray(graph6_bytes(build_graph(n, edges)))
    at = draw(st.integers(0, len(data)))
    byte = draw(st.integers(0, 255))
    kind = draw(st.sampled_from(["keep", "overwrite", "insert", "remove"]))
    if kind == "overwrite" and at < len(data):
        data[at] = byte
    elif kind == "insert":
        data.insert(at, byte)
    elif kind == "remove" and at < len(data):
        del data[at]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=24), mutated_encodings()))
def test_graph6_decoder_property(data):
    """Both decoders return equal graphs, or both raise the same ValueError."""
    try:
        expected = from_graph6_reference(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            from_graph6(data)
        assert str(caught.value) == str(exc)
        return
    H = from_graph6(data)
    assert H == expected and H.edge_count == expected.edge_count


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=24), mutated_encodings(),
                 mutated_encodings().map(lambda data: b">>graph6<<" + data)))
# sparse lines with a padding bit set: malformed, never merely sparse
@example(bytes([65, 0b000001 + 63]))              # n=2, no edge
@example(bytes([66, 0b100001 + 63]))              # n=3, one edge
@example(b"F" + bytes([63] * 3 + [0b000001 + 63]))  # n=7, no edge
def test_graph6_rows_property(data):
    """The size and body steps that ``search stream`` takes one by one raise
    exactly when the decoder does, with the same message, and otherwise give
    the decoded graph's n, rows and, as the body's popcount, m."""
    try:
        G = from_graph6(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            _graph6_body(*_graph6_size(data))
        assert str(caught.value) == str(exc)
        return
    data, n, pos = _graph6_size(data)
    body = _graph6_body(data, n, pos)
    assert (n, int.from_bytes(body, "big").bit_count()) == (G.n, G.edge_count)
    assert_rows_of(n, body, G)


def test_graph6_accepts_format_header():
    G = cycle(5)
    data = b">>graph6<<" + graph6_bytes(G)
    assert from_graph6(data) == G


def test_graph6_accepts_str():
    G = cycle(8)
    assert from_graph6(graph6_bytes(G).decode("ascii")) == G


def test_graph6_extended_size_header():
    G = build_graph(63, [(i, i + 1) for i in range(62)])
    data = graph6_bytes(G)
    assert data[0] == 126
    assert from_graph6(data) == G


@pytest.mark.parametrize(
    "bad",
    [
        b"",
        b"D",          # promises n=5 but no body
        b"Dqq",        # one byte too many
        b"D\x19",      # body byte below offset 63
        bytes([66, 0b111111 + 63]),  # n=3: padding bits must be zero
        b"A\x7f",      # body byte above 126
        "A\u00e9",     # a str that is not ASCII
        b"~??",        # the four-byte size header cut short
        bytes([65, 0b000001 + 63]),  # n=2: one bit, then non-zero padding
    ],
)
def test_graph6_malformed_rejected(bad):
    with pytest.raises(ValueError):
        from_graph6(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        (b"~??", "truncated graph6 size field"),
        (b"F?!??", "invalid graph6 byte 33"),
        (b"F??\x7f?", "invalid graph6 byte 127"),
        (b"F?\xe9??", "invalid graph6 byte 233"),
        (b"F?????", "graph6 body has 5 bytes, expected 4 for n=7"),
        (bytes([65, 0b000001 + 63]), "non-zero padding bits"),
    ],
)
def test_graph6_malformed_message(bad, message):
    with pytest.raises(ValueError, match=message):
        from_graph6(bad)


def test_edgelist_round_trip():
    G = random_graph(9, 0.4, seed=5)
    assert from_edgelist_text(to_edgelist_text(G)) == G


def test_edgelist_header_mismatch_rejected():
    with pytest.raises(ValueError):
        from_edgelist_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        from_edgelist_text("oops\n")
    # a repeated edge, in either orientation, would leave fewer edges than declared
    with pytest.raises(ValueError, match=r"repeats edge \(0, 1\)"):
        from_edgelist_text("3 3\n0 1\n1 2\n0 1\n")
    with pytest.raises(ValueError, match=r"repeats edge \(0, 1\)"):
        from_edgelist_text("3 2\n0 1\n1 0\n")


@pytest.mark.parametrize("text", ["2 0\n", "5 0\n", "3000000 0", "4 2\n0 1\n2 3\n"])
def test_edgelist_order_above_the_edges_plus_one_rejected(text):
    # fewer than n - 1 edges cannot connect n vertices
    with pytest.raises(ValueError, match="too few to connect them"):
        from_edgelist_text(text)


@pytest.mark.parametrize("n,edges", [(0, []), (1, []), (2, [(0, 1)]), (4, [(0, 1), (2, 3), (1, 3)])])
def test_edgelist_order_up_to_the_edges_plus_one_read(n, edges):
    G = build_graph(n, edges)
    assert from_edgelist_text(to_edgelist_text(G)) == G


@pytest.mark.parametrize("n,edges", [(3, []), (2, []), (4, [(0, 1), (1, 2)]), (5, [(0, 1), (1, 2), (0, 2)])])
def test_edgelist_writer_refuses_what_the_reader_refuses(n, edges):
    # a graph with an isolated vertex and fewer than n - 1 edges has no edge list
    with pytest.raises(ValueError, match="at most m \\+ 1 vertices"):
        to_edgelist_text(build_graph(n, edges))


def test_dot_output():
    G = build_graph(4, [(0, 1), (1, 2)])
    text = to_dot(G)
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text and "1 -- 2;" in text
    assert "  3;" in text  # isolated vertex is still declared
