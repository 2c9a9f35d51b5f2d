import math

import pytest
from hypothesis import given, strategies as st

from dotent.combinatorics import binomial, double_factorial


class TestBinomial:
    def test_basic_value(self):
        assert binomial(4, 2) == 6

    def test_negative_lower_index_vanishes(self):
        assert binomial(5, -1) == 0

    def test_lower_index_above_upper_vanishes(self):
        assert binomial(3, 5) == 0

    def test_edge_cases(self):
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_negative_upper_index_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(-3, -1)

    @given(st.integers(1, 60), st.integers(-3, 63))
    def test_pascal_identity(self, x, y):
        assert binomial(x, y) == binomial(x - 1, y - 1) + binomial(x - 1, y)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_symmetry(self, x, y):
        if y <= x:
            assert binomial(x, y) == binomial(x, x - y)


class TestDoubleFactorial:
    @pytest.mark.parametrize(
        "x,expected",
        [(-1, 1), (0, 1), (1, 1), (2, 2), (5, 15), (6, 48), (7, 105), (9, 945)],
    )
    def test_values(self, x, expected):
        assert double_factorial(x) == expected

    def test_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-2)

    @given(st.integers(1, 40))
    def test_adjacent_product_is_factorial(self, x):
        assert double_factorial(x) * double_factorial(x - 1) == math.factorial(x)
