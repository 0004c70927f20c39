"""graph6, plain edge-list and DOT serialisation.

graph6 layout: a size header (byte n+63 for n <= 62, '~' plus three 6-bit
bytes up to n = 258047, '~~' plus six 6-bit bytes beyond), followed by the
upper-triangle adjacency bits in column-major order -- for every column
j = 1..n-1 the bits (0,j), (1,j), ..., (j-1,j) -- packed big-endian into
6-bit groups, each group offset by 63.  Padding bits must be zero.

Both directions of the codec go through base64, whose 6-bit groups map one
to one onto graph6 bytes by ``bytes.translate``.  The one encoder,
``graph6_bytes``, sets the body bit of each edge of ``Graph.adj`` and
encodes the body in slices into one buffer.  There is one decode path too:
``_graph6_size`` checks the header, ``_graph6_body`` the body length, every
body byte and the zero padding (in that order, each with its own
``ValueError``) and decodes the body in one ``b64decode`` call, whose set
bits are the edges, and ``_graph6_rows`` reads the bitmask rows and whether
there is a triangle off a small accumulator fed a slice at a time.
``from_graph6`` takes those three steps and turns the rows into a ``Graph``
with ``graph._from_rows``.  ``search stream`` takes them one by one, so it
reads a line's order before it decodes the rest and applies its edge-count
floor before it builds anything.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from io import BytesIO

from .graph import Graph, _from_rows, build_graph

_HEADER = b">>graph6<<"


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("graph6 cannot encode a negative vertex count")
    if n <= 62:
        return bytes((n + 63,))
    if n <= 258047:
        return bytes((126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63))
    if n <= 68719476735:
        return bytes((126, 126)) + bytes(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    raise ValueError(f"vertex count {n} too large for graph6")


def _size_byte(b: int) -> int:
    if not 63 <= b <= 126:
        raise ValueError(f"invalid graph6 size byte {b!r}")
    return b - 63


def _decode_size(data: bytes) -> tuple:
    if not data:
        raise ValueError("empty graph6 data")
    if data[0] != 126:
        return _size_byte(data[0]), 1
    # '~' then three size bytes, or '~~' then six
    start, end = (2, 8) if data[1:2] in (b"", b"~") else (1, 4)
    if len(data) < end:
        raise ValueError("truncated graph6 size field")
    n = 0
    for b in data[start:end]:
        n = (n << 6) | _size_byte(b)
    return n, end


#: base64 writes each 6-bit group as one character of this alphabet; graph6
#: writes it as the byte 63 + group.
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_BYTES = bytes(range(63, 127))
_SIXBIT = bytes.maketrans(_BASE64_ALPHABET, _GRAPH6_BYTES)
_BASE64 = bytes.maketrans(_GRAPH6_BYTES, _BASE64_ALPHABET)

#: Decoded body bytes per accumulator refill, few: each column shifts it.
_DECODE_SLICE = 512
#: Body bytes per ``b64encode`` call: whole 3-byte quanta, so the encodings join up.
_ENCODE_SLICE = 3 << 16

#: Each byte with its bit order reversed.
_BITREV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def graph6_bytes(G: Graph) -> bytes:
    """Bit-exact graph6 encoding of G (no header, no trailing newline): each
    edge (i, j), i < j, of the sorted ``G.adj`` sets bit p = j(j-1)/2 + i of
    a zeroed body, so absent edges cost nothing and no bitmask rows are
    built; then the size header and the body bits as 6-bit groups, the last
    zero-padded, encoded a slice at a time into one buffer."""
    n = G.n
    body = bytearray((n * (n - 1) // 2 + 7) // 8)
    for j, row in enumerate(G.adj):
        base = j * (j - 1) // 2
        for i in row:
            if i >= j:
                break
            body[(base + i) >> 3] |= 128 >> ((base + i) & 7)
    head = _encode_size(n)
    line = BytesIO()
    line.write(head)
    for start in range(0, len(body), _ENCODE_SLICE):
        line.write(b64encode(body[start:start + _ENCODE_SLICE]).translate(_SIXBIT))
    line.truncate(len(head) + (n * (n - 1) // 2 + 5) // 6)
    return line.getvalue()


def _graph6_size(data) -> tuple:
    """(data, n, pos) of one graph6 value: its bytes, stripped and without
    the format header, its order and where its body starts.  Raises
    ``ValueError`` for a bad header or size field."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    return (data, *_decode_size(data))


def _graph6_body(data: bytes, n: int, pos: int) -> bytes:
    """The adjacency bits of a value from :func:`_graph6_size`, decoded in
    one ``b64decode`` call, so their popcount is the edge count.  Raises
    ``ValueError`` for a bad body length, body byte or non-zero padding,
    checked in that order."""
    expect = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != expect:
        raise ValueError(
            f"graph6 body has {len(data) - pos} bytes, expected {expect} for n={n}"
        )
    # the size bytes are already checked, so only body bytes can be left over
    bad = data.translate(None, _GRAPH6_BYTES)
    if bad:
        raise ValueError(f"invalid graph6 byte {bad[0]!r}")
    # padding bits must be zero for a bit-exact round trip
    if expect and (data[-1] - 63) & ((1 << (6 * expect - n * (n - 1) // 2)) - 1):
        raise ValueError("non-zero padding bits in graph6 data")
    body = data[pos:].translate(_BASE64)
    # zero groups complete the last base64 quantum
    return b64decode(body + b"A" * (-len(body) % 4))


def _graph6_rows(n: int, body: bytes, stop_at_triangle: bool) -> tuple:
    """(rows, triangle): the adjacency bitmasks of a body from
    :func:`_graph6_body` and whether the graph has a triangle.  Read slice by
    slice through :data:`_BITREV` as a little-endian integer, the body's p-th
    bit is bit p, so column j is the low j bits of the accumulator.

    Column j enters its edges (top, j) from the highest top down; rows[top]
    then holds top's neighbours below j, and col j's neighbours below top,
    so one AND per edge finds each triangle at its middle vertex.  With
    ``stop_at_triangle`` the first one returns (None, True)."""
    rows = [0] * n
    acc = fill = pos = 0
    triangle = False
    for j in range(1, n):
        while fill < j:
            chunk = body[pos:pos + _DECODE_SLICE]
            pos += _DECODE_SLICE
            acc |= int.from_bytes(chunk.translate(_BITREV), "little") << fill
            fill += 8 * len(chunk)
        bit = 1 << j
        col = rows[j] = acc & (bit - 1)
        acc >>= j
        fill -= j
        while col:
            top = col.bit_length() - 1
            col ^= 1 << top
            if rows[top] & col:
                if stop_at_triangle:
                    return None, True
                triangle = True
            rows[top] |= bit
    return tuple(rows), triangle


def from_graph6(data) -> Graph:
    """Decode one graph6 value (accepts str or bytes, optional format header)."""
    data, n, pos = _graph6_size(data)
    return _from_rows(_graph6_rows(n, _graph6_body(data, n, pos), False)[0])


def to_edgelist_text(G: Graph) -> str:
    """Plain text form: first line "n m", then one "u v" line per edge.  It
    holds only graphs with n at most m + 1, as ``from_edgelist_text`` reads
    them; a graph with more vertices (say an isolated one) raises ValueError."""
    if G.n > G.edge_count + 1:
        raise ValueError(f"an edge list holds at most m + 1 vertices, not {G.n} with {G.edge_count} edges")
    lines = [f"{G.n} {G.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def from_edgelist_text(text: str) -> Graph:
    """Read the plain text form of ``to_edgelist_text``.  Its n is at most
    m + 1, since fewer edges cannot connect n vertices; a larger n raises
    ValueError before any vertex is allocated.  Graphs with more vertices,
    which are all disconnected, are read from graph6."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad edge-list header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"edge-list declares {m} edges but has {len(lines) - 1}")
    if n > m + 1:
        raise ValueError(f"edge-list declares {n} vertices but only {m} edges, too few to connect them")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        pair = (u, v) if u < v else (v, u)
        if pair in edges:
            # build_graph would merge it, leaving fewer edges than declared
            raise ValueError(f"edge-list repeats edge {pair}")
        edges.add(pair)
    return build_graph(n, edges)


def to_dot(G: Graph) -> str:
    """DOT text for visualisation (write-only format)."""
    body = []
    isolated = [v for v in range(G.n) if not G.adj[v]]
    body.extend(f"  {v};" for v in isolated)
    body.extend(f"  {u} -- {v};" for u, v in G.edges())
    return "graph G {\n" + "\n".join(body) + ("\n" if body else "") + "}\n"
