import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radgraph import (
    cage_lower_bound,
    enumerate_extremal,
    exact_radius_formula_g4,
    upper_bound_radius,
)
from radgraph.bounds import answer


class TestExactFormula:
    @pytest.mark.parametrize(
        "n,delta,expected",
        [
            (15, 3, 4),   # delta odd, n = 5*3 with odd multiplier
            (9, 2, 4),    # floor(9/2)
            (8, 3, 3),    # 2d+2 <= 8 < 4d
            (5, 3, None),
            (6, 3, 2),
            (7, 3, 2),
            (4, 2, 2),
            (6, 2, 3),
            (12, 3, 4),   # n = 4*3, even multiplier
            (21, 3, 6),   # 21 = 7*3, odd*odd -> 7 - 1
            (20, 5, 4),   # exactly 4*delta, even multiplier
            (19, 5, 3),   # 2d+2 = 12 <= 19 < 4d = 20
        ],
    )
    def test_values(self, n, delta, expected):
        assert exact_radius_formula_g4(n, delta) == expected

    def test_nonexistent_iff_small(self):
        for delta in range(2, 8):
            for n in range(1, 6 * delta):
                val = exact_radius_formula_g4(n, delta)
                assert (val is None) == (n < 2 * delta)

    def test_degree_floor_validated(self):
        with pytest.raises(ValueError):
            exact_radius_formula_g4(10, 1)

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_order_is_nonexistent(self, n):
        assert exact_radius_formula_g4(n, 3) is None


class TestUpperBound:
    @pytest.mark.parametrize(
        "n,delta,g,expected",
        [
            (14, 3, 6, Fraction(25, 2)),
            (8, 2, 4, Fraction(10)),
            (30, 3, 8, Fraction(17)),
        ],
    )
    def test_values(self, n, delta, g, expected):
        assert upper_bound_radius(n, delta, g) == expected

    def test_odd_girth_rejected(self):
        with pytest.raises(ValueError):
            upper_bound_radius(10, 3, 5)

    def test_tiny_girth_rejected(self):
        with pytest.raises(ValueError):
            upper_bound_radius(10, 3, 2)

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_order_rejected(self, n):
        with pytest.raises(ValueError):
            upper_bound_radius(n, 3, 6)

    def test_formula_consistency_with_exact(self):
        # the exact triangle-free value never exceeds the universal bound
        for delta in range(2, 11):
            for n in range(4 * delta, 201):
                exact = exact_radius_formula_g4(n, delta)
                assert exact <= upper_bound_radius(n, delta, 4)

    def test_monotone_in_n_step_delta(self):
        for delta in range(2, 9):
            for n in range(4 * delta, 120):
                assert (
                    exact_radius_formula_g4(n + delta, delta)
                    >= exact_radius_formula_g4(n, delta)
                )


class TestCageLowerBound:
    @pytest.mark.parametrize(
        "n,delta,g,expected",
        [
            (14, 3, 6, Fraction(0)),
            (84, 3, 6, Fraction(15)),
            (90, 3, 8, Fraction(8)),   # 2*90/15 - 4
            (30, 3, 8, Fraction(0)),
            (2 * 9 * 7, 3, 12, Fraction(0)),  # 3*126/((8+1)*7) - 6
            (4 * 9 * 7, 3, 12, Fraction(6)),  # twice the order, bound 12 - 6
        ],
    )
    def test_values(self, n, delta, g, expected):
        assert cage_lower_bound(n, delta, g) == expected

    def test_unsupported_girth_rejected(self):
        with pytest.raises(ValueError):
            cage_lower_bound(100, 3, 10)

    @pytest.mark.parametrize("n,g", [(0, 8), (-5, 6), (0, 12)])
    def test_empty_order_rejected(self, n, g):
        with pytest.raises(ValueError):
            cage_lower_bound(n, 3, g)

    def test_returns_exact_rationals(self):
        val = cage_lower_bound(15, 3, 6)
        assert isinstance(val, Fraction)
        assert val == Fraction(45, 14) - 3


def moore_bound(delta, g):
    """The least order of a graph of minimum degree delta and girth >= g, by
    the tree around an edge (even g) or a vertex (odd g), summed level by level."""
    k, level, tree = g // 2, 1, 0
    for _ in range(k):
        tree += level
        level *= delta - 1
    return 1 + delta * tree if g % 2 else 2 * tree


class TestAnswer:
    """``bounds.answer``, the one fold that ``bound`` and ``search stream`` read."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_the_enumerated_maximum(self, n):
        for delta in range(2, 5):
            for g in range(3, 10):
                found, got = enumerate_extremal(n, delta, g).max_radius, answer(n, delta, g)
                if got == {"exists": False}:
                    assert found is None, (n, delta, g)
                if "exact" in got:
                    assert got["exact"] == found, (n, delta, g)
                if "upper" in got and found is not None:
                    assert got["upper"] >= found, (n, delta, g)

    def test_empty_exactly_below_the_moore_bound(self):
        for delta in range(2, 7):
            for g in range(3, 17):
                for n in range(1, 200):
                    got = answer(n, delta, g)
                    assert (got == {"exists": False}) == (n < moore_bound(delta, g)), (n, delta, g)
                    assert ("upper" in got) == (g >= 4 and n >= moore_bound(delta, g))

    @pytest.mark.parametrize("delta", [0, 1])
    def test_no_key_below_degree_two(self, delta):
        assert answer(5, delta, 3) == answer(5, delta, 10**12) == {}

    @given(st.integers(1, 10**15), st.integers(2, 12), st.integers(2, 60))
    def test_upper_never_exceeds_the_bound_at_g(self, n, delta, k):
        got = answer(n, delta, 2 * k)
        assert got == {"exists": False} or got["upper"] <= upper_bound_radius(n, delta, 2 * k)

    @given(st.integers(1, 10**15), st.integers(2, 12), st.integers(3, 121))
    def test_upper_is_the_least_over_the_even_girths(self, n, delta, g):
        got = answer(n, delta, g)
        if "upper" in got:
            assert got["upper"] == min(upper_bound_radius(n, delta, ge) for ge in range(4, g + 1, 2))

    def test_huge_girth_at_degree_two_is_answered_at_once(self):
        start = time.perf_counter()
        assert answer(10**12, 2, 10**11) == {"upper": upper_bound_radius(10**12, 2, 4)}
        assert time.perf_counter() - start < 0.5
