"""Exact scalars: every coefficient is an int or a Fraction.

Parsing and formatting use the "p/q" string form so JSON stays exact.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction


def parse_scalar(text) -> Fraction:
    """Parse "3", "-5/2", 7, or Fraction into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise TypeError(f"cannot parse scalar from {text!r}")


def format_scalar(v) -> str:
    """Inverse of parse_scalar."""
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
