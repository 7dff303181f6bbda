import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge.combinatorics import binomial, parse_rational


def test_basic_values():
    assert binomial(5, 2) == 10
    assert binomial(-1, 2) == 1
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(-7, 0) == 1


def test_negative_lower_is_zero():
    for upper in range(-6, 7):
        assert binomial(upper, -1) == 0
        assert binomial(upper, -3) == 0


def test_matches_falling_factorial():
    for upper in range(-8, 9):
        for lower in range(0, 9):
            num = 1
            for j in range(lower):
                num *= upper - j
            assert binomial(upper, lower) * math.factorial(lower) == num


def test_pascal_rule():
    for upper in range(-20, 21):
        for lower in range(0, 21):
            assert binomial(upper, lower) == binomial(upper - 1, lower) + binomial(
                upper - 1, lower - 1
            )


def test_reflection_identity():
    for upper in range(-20, 0):
        for lower in range(0, 21):
            assert binomial(upper, lower) == (-1) ** lower * binomial(
                -upper + lower - 1, lower
            )


def test_vanishing_alternating_sum():
    # The collapse that kills the middle block of the reordering identity.
    for k in range(1, 21):
        assert sum((-1) ** j * binomial(k, j) for j in range(k + 1)) == 0


def test_weighted_alternating_block_vanishes():
    # sum_j (-1)^j C(q+j, j) C(q+k, k-j) = C(q+k, k) sum_j (-1)^j C(k, j) = 0.
    for q in range(0, 8):
        for k in range(1, 8):
            total = sum(
                (-1) ** j * binomial(q + j, j) * binomial(q + k, k - j)
                for j in range(k + 1)
            )
            assert total == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-60, 60), st.integers(-5, 60))
def test_always_integer(upper, lower):
    value = binomial(upper, lower)
    assert isinstance(value, int)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 40))
def test_matches_math_comb_for_nonnegative(upper, lower):
    assert binomial(upper, lower) == math.comb(upper, lower)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 10 / 4 ") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")
