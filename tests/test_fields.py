from itertools import product

import pytest

from radgraph import SUPPORTED_ORDERS, field_make, fields


def test_unsupported_order_names_supported_set():
    with pytest.raises(ValueError) as err:
        field_make(6)
    msg = str(err.value)
    assert "6" in msg and "27" in msg and "16" in msg


@pytest.mark.parametrize("q", [10, 12, 14, 15, 33, 49])
def test_non_members_rejected(q):
    with pytest.raises(ValueError):
        field_make(q)


def test_gf5_inverse_of_two():
    F = field_make(5)
    assert F._mul[1][F._inv[2]] == 3


def test_gf4_generator_square():
    F = field_make(4)
    x = 2  # the polynomial generator: digits (0, 1)
    assert F._mul[x][x] == 3  # digits (1, 1): x^2 = x + 1 under x^2 + x + 1
    assert F._mul[x][x] == F._add[x][1]


def test_structure_constants():
    for q, p, e in [(2, 2, 1), (9, 3, 2), (16, 2, 4), (27, 3, 3), (25, 5, 2)]:
        F = field_make(q)
        assert (F.p, F.e) == (p, e)
        assert len(F.reduction_polynomial) == e + 1
        assert F.reduction_polynomial[-1] == 1  # monic


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS))
def test_field_axioms_exhaustive(q):
    F = field_make(q)
    add, neg, mul, inv = F._add, F._neg, F._mul, F._inv
    elems = range(q)
    # the tables are total and closed over 0..q-1
    for table in (add, mul):
        assert len(table) == q
        assert all(len(row) == q and set(row) <= set(elems) for row in table)
    assert len(neg) == len(inv) == q and set(neg) | set(inv) <= set(elems)
    for a in elems:
        assert add[a][0] == a and mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
    for a, b in product(elems, repeat=2):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
    # associativity and distributivity on all triples
    for a, b, c in product(elems, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS))
def test_multiplicative_group_order(q):
    F = field_make(q)
    for a in range(1, q):
        power = 1
        for _ in range(q - 1):
            power = F._mul[power][a]
        assert power == 1


@pytest.mark.parametrize(
    "q,poly",
    [
        (4, (2, (0, 0, 1))),        # x^2
        (8, (2, (1, 0, 0, 1))),     # x^3 + 1 = (x + 1)(x^2 + x + 1)
        (9, (3, (2, 0, 1))),        # x^2 - 1 = (x - 1)(x + 1)
        (16, (2, (1, 0, 1, 0, 1))),  # (x^2 + x + 1)^2, reducible without a root
        (25, (5, (1, 0, 1))),       # x^2 + 1 = (x - 2)(x + 2)
        (27, (3, (0, 1, 0, 1))),    # x (x^2 + 1)
        # composite characteristic: Z_6, Z_15 and Z_4[x]/(x^2 + x + 1)
        (6, None),
        (15, None),
        (16, (4, (1, 1, 1))),
    ],
)
def test_non_field_rejected(monkeypatch, q, poly):
    """Reducible polynomials and composite orders fail the inverse check."""
    monkeypatch.setattr(fields, "SUPPORTED_ORDERS", fields.SUPPORTED_ORDERS | {q})
    if poly is not None:
        monkeypatch.setitem(fields._REDUCTION, q, poly)
    with pytest.raises(ValueError, match="has no inverse"):
        field_make(q)


def test_degree_must_match_order(monkeypatch):
    """A polynomial of the wrong degree fails the inverse check: element p^e
    has no non-zero digit, so it acts as 0."""
    monkeypatch.setitem(fields._REDUCTION, 8, (2, (1, 1, 1)))  # degree 2, but 8 is 2^3
    with pytest.raises(ValueError, match="element 4 of GF\\(8\\) has no inverse"):
        field_make(8)
