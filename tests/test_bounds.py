from fractions import Fraction

import pytest

from radgraph import (
    cage_lower_bound,
    exact_radius_formula_g4,
    upper_bound_radius,
)


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

