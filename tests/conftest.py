import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from radgraph import bfs, build_graph, metric_summary
from radgraph.graph import _geodesic


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def barbell(a, ell, b):
    """Two cycles C_a and C_b joined by a path with ell interior vertices.

    Triangle-free for a, b >= 4 with minimum degree 2; useful because its
    centres sit on the connecting path, giving asymmetric geodesic pairs.
    """
    edges = [(i, (i + 1) % a) for i in range(a)]
    prev = 0
    for i in range(ell):
        edges.append((prev, a + i))
        prev = a + i
    boff = a + ell
    edges += [(boff + i, boff + (i + 1) % b) for i in range(b)]
    edges.append((prev, boff))
    return build_graph(a + ell + b, edges)


def geodesic_pair(G, s):
    """Two geodesics (path, vprime_path) from the centre ``centers[0]`` of a
    connected G of radius r, as tuples.

    ``path`` ends at the lowest farthest vertex, so it has r edges, and
    ``vprime_path`` at the lowest v' with d(path[s], v') >= r, which exists
    because every eccentricity is at least r.  The stride-2k witness pattern
    reads this pair at s = 2k and the geodesic observations at s = m.
    """
    ms = metric_summary(G)
    dist0 = bfs(G, ms.centers[0])
    path = _geodesic(G, dist0, dist0.index(ms.radius))
    dist_s = bfs(G, path[s])
    vprime = next(v for v in range(G.n) if dist_s[v] >= ms.radius)
    return tuple(path), tuple(_geodesic(G, dist0, vprime))


@pytest.fixture
def c8():
    return cycle(8)


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


@pytest.fixture
def heawood_lcf():
    """Heawood graph from its LCF word [5, -5]^7, independent of the
    projective-plane construction."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return build_graph(14, edges)


@pytest.fixture
def tutte_coxeter_lcf():
    """Tutte-Coxeter graph from its LCF word [-13, -9, 7, -7, 9, 13]^5."""
    word = [-13, -9, 7, -7, 9, 13]
    edges = [(i, (i + 1) % 30) for i in range(30)]
    edges += [(i, (i + word[i % 6]) % 30) for i in range(30)]
    return build_graph(30, edges)
