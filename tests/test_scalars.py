from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superw.scalars import format_scalar, parse_scalar


def test_parse_examples():
    assert parse_scalar("3") == 3
    assert parse_scalar("-5/2") == Fraction(-5, 2)
    assert parse_scalar(7) == 7
    assert parse_scalar(Fraction(2, 4)) == Fraction(1, 2)


def test_format_examples():
    assert format_scalar(3) == "3"
    assert format_scalar(Fraction(-5, 2)) == "-5/2"
    # whole fractions collapse to plain integers
    assert format_scalar(Fraction(6, 2)) == "3"


def test_parse_rejects_junk():
    for bad in ("", "two", "1.5.2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    # JSON true/false arrive as bool, which is not read as 1/0
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            parse_scalar(bad)


@given(st.fractions(max_denominator=10**6))
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x
