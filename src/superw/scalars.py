"""Exact scalars: every coefficient is an int or a Fraction.

Parsing and formatting use the "p/q" string form so JSON stays exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

Scalar = int | Fraction
_EXACT = frozenset({int, Fraction})


def check_exact(values: Iterable) -> None:
    """Raise TypeError unless every value is an int or a Fraction, not a bool."""
    stray = set(map(type, values)) - _EXACT
    if stray:
        names = ", ".join(sorted(t.__name__ for t in stray))
        raise TypeError(f"expected exact scalars (int or Fraction), got {names}")


def parse_scalar(text) -> Fraction:
    """Parse "3", "-5/2", 7, or Fraction into a Fraction."""
    if isinstance(text, str):
        return Fraction(text.strip())
    check_exact((text,))
    return Fraction(text)


def format_scalar(v) -> str:
    """Inverse of parse_scalar."""
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
