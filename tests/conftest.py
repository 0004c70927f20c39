import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import radgraph
from radgraph import build_graph


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def fresh_python(code, *args, cwd=None):
    """Stdout of ``python -c code *args`` in a new interpreter that imports
    the radgraph these tests import."""
    path = [str(Path(radgraph.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


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
