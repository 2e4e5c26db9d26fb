"""Exact arithmetic for the general linear Lie superalgebra gl(M|N).

Basis indices are boxes: plus boxes 1..M (even) followed by minus boxes
1..N (odd).  A box is the tuple (sign, ordinal) with sign 0 for plus and 1
for minus, so plain tuple order is the basis order 1 < ... < M < 1bar < ...
< Nbar, and boxes sort, hash and compare as tuples.  Elements are sparse
rational combinations of elementary matrices e_{i,j}; the supercommutator
and the supertrace form are computed from the structure constants

    [e_ij, e_kl] = delta_jk e_il - (-1)^{(tp i + tp j)(tp k + tp l)} delta_li e_kj.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Tuple

Scalar = int | Fraction

PLUS = 0
MINUS = 1


class BoxIndex(NamedTuple):
    """One basis index of gl(M|N): sign 0 for a plus box, 1 for a minus box."""

    sign: int
    ordinal: int

    def __str__(self) -> str:
        return str(self.ordinal) if self.sign == PLUS else f"-{self.ordinal}"

    def __repr__(self) -> str:
        return f"box({self})"


def _checked_ordinal(ordinal: int) -> int:
    if ordinal < 1:
        raise ValueError(f"ordinal must be positive, got {ordinal!r}")
    return ordinal


def plus(ordinal: int) -> BoxIndex:
    return BoxIndex(PLUS, _checked_ordinal(ordinal))


def minus(ordinal: int) -> BoxIndex:
    return BoxIndex(MINUS, _checked_ordinal(ordinal))


def parity(i: BoxIndex) -> int:
    """tp(i): 0 for plus boxes, 1 for minus boxes."""
    return i.sign


def pair_parity(i: BoxIndex, j: BoxIndex) -> int:
    """Parity of the elementary matrix e_{i,j}."""
    return (i.sign + j.sign) & 1


Pair = Tuple[BoxIndex, BoxIndex]


class LieSuperElement:
    """Sparse rational combination of elementary matrices e_{i,j}.

    Treated as immutable; zero coefficients are pruned eagerly so equality
    is structural and the empty map is the unique zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Pair, Scalar]):
        self.terms = {pair: c for pair, c in terms.items() if c}

    def __iter__(self) -> Iterator[tuple[Pair, Scalar]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LieSuperElement) and self.terms == other.terms

    def __add__(self, other: "LieSuperElement") -> "LieSuperElement":
        data = dict(self.terms)
        for pair, c in other.terms.items():
            data[pair] = data.get(pair, 0) + c
        return LieSuperElement(data)

    def __neg__(self) -> "LieSuperElement":
        return LieSuperElement({pair: -c for pair, c in self.terms.items()})

    def __sub__(self, other: "LieSuperElement") -> "LieSuperElement":
        return self + (-other)

    def scaled(self, c: Scalar) -> "LieSuperElement":
        return LieSuperElement({pair: c * v for pair, v in self.terms.items()})

    def __rmul__(self, c: Scalar) -> "LieSuperElement":
        return self.scaled(c)

    def homogeneous_parity(self) -> int | None:
        """Common parity of all terms, or None if mixed (0 for the zero element)."""
        parities = {pair_parity(i, j) for (i, j) in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            bits.append(f"{c}*e({i},{j})")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def e(i: BoxIndex, j: BoxIndex, c: Scalar = 1) -> LieSuperElement:
    """The elementary matrix c * e_{i,j}."""
    return LieSuperElement({(i, j): c})


def basis_indices(M: int, N: int) -> list[BoxIndex]:
    return [plus(k) for k in range(1, M + 1)] + [minus(k) for k in range(1, N + 1)]


def bracket_pair(i: BoxIndex, j: BoxIndex, k: BoxIndex, l: BoxIndex) -> LieSuperElement:
    """Supercommutator [e_{i,j}, e_{k,l}] of two basis elements."""
    return bracket(e(i, j), e(k, l))


def bracket(x: LieSuperElement, y: LieSuperElement) -> LieSuperElement:
    """Bilinear supercommutator [x, y]."""
    acc: dict[Pair, Scalar] = {}
    for (i, j), cx in x.terms.items():
        for (k, l), cy in y.terms.items():
            c = cx * cy
            if j == k:
                acc[(i, l)] = acc.get((i, l), 0) + c
            if l == i:
                sgn = -1 if (pair_parity(i, j) and pair_parity(k, l)) else 1
                acc[(k, j)] = acc.get((k, j), 0) - sgn * c
    return LieSuperElement(acc)


def ad_matrix(x: LieSuperElement, src: list[Pair], tgt: list[Pair]) -> list[list[Scalar]] | None:
    """Rows of ad x from span(src) into span(tgt): row k holds the coefficients
    of [x, e(src[k])] on the pairs of tgt.  None when some image leaves span(tgt)."""
    pos = {pair: k for k, pair in enumerate(tgt)}
    rows = []
    for pair in src:
        row: list[Scalar] = [0] * len(tgt)
        for t, c in bracket(x, e(*pair)).terms.items():
            k = pos.get(t)
            if k is None:
                return None
            row[k] = c
        rows.append(row)
    return rows


def superform(x: LieSuperElement, y: LieSuperElement) -> Scalar:
    """Supertrace form (x, y) = str(xy).

    On basis elements (e_ab, e_cd) = delta_bc delta_ad (-1)^{tp a}.
    """
    total: Scalar = 0
    for (a, b), cx in x.terms.items():
        c = y.terms.get((b, a))
        if c:
            total += cx * c if a.sign == PLUS else -cx * c
    return total


def rational_rank(rows: list[list[Scalar]]) -> int:
    """Rank over the rationals by fraction-free elimination on sparse int rows.

    Each row is scaled by the lcm of its denominators to a map {col: int} and
    inserted into an echelon keyed by leading column.  While its leading column
    has a pivot row p, the row becomes a*row - b*p, with a, b the leading
    entries of p and of the row over their gcd, then is divided by its content.
    Scaling by a nonzero integer and subtracting a pivot keep the span over Q,
    and all arithmetic is on ints, so the pivot count is the exact rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {c: v for c, v in enumerate(row) if v}
        den = lcm(*(v.denominator for v in vec.values()))
        vec = {c: v.numerator * (den // v.denominator) for c, v in vec.items()}
        while vec:
            content = gcd(*vec.values())
            if content != 1:
                vec = {c: v // content for c, v in vec.items()}
            lead = min(vec)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = vec
                break
            g = gcd(p[lead], vec[lead])
            a, b = p[lead] // g, vec[lead] // g
            vec = {c: w for c in vec.keys() | p.keys()
                   if (w := a * vec.get(c, 0) - b * p.get(c, 0))}
    return len(pivots)


def centralizer_dims(x: LieSuperElement, M: int, N: int) -> tuple[int, int]:
    """Codimensions (d0, d1) of the centralizer of an even element inside gl(M|N).

    d0 = dim g_even - dim ker(ad x)|_even = rank(ad x)|_even, and d1 likewise on
    the odd part.  Rejects elements with odd terms since ad x then mixes parities.
    """
    for (i, j) in x.terms:
        if pair_parity(i, j):
            raise ValueError(f"centralizer_dims needs an even element; found odd term e({i},{j})")
    idx = basis_indices(M, N)
    even_pairs = [(i, j) for i in idx for j in idx if not pair_parity(i, j)]
    odd_pairs = [(i, j) for i in idx for j in idx if pair_parity(i, j)]
    return (rational_rank(ad_matrix(x, even_pairs, even_pairs)),
            rational_rank(ad_matrix(x, odd_pairs, odd_pairs)))
