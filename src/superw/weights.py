"""Weight calculus on pyramids: the epsilon-basis shift weights eta and
rho_tilde, the weight lambda_A of a tableau, and the criterion for a
diagonal character to define a one-dimensional h-module.

A weight is stored box-indexed: coords[i] is the coefficient of eps_i, so
evaluating on the diagonal matrix e_{i,i} just reads the map.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .gl import BoxIndex, parity
from .pyramid import Pyramid

Scalar = int | Fraction


class Weight:
    """Sparse map BoxIndex -> rational, the coefficients in the eps basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: Mapping[BoxIndex, Scalar]):
        self.coords = {b: c for b, c in coords.items() if c}

    def __getitem__(self, b: BoxIndex) -> Scalar:
        return self.coords.get(b, 0)

    def __iter__(self):
        return iter(sorted(self.coords))

    def __add__(self, other: "Weight") -> "Weight":
        data = dict(self.coords)
        for b, c in other.coords.items():
            data[b] = data.get(b, 0) + c
        return Weight(data)

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight({b: -c for b, c in self.coords.items()})

    def __rmul__(self, c: Scalar) -> "Weight":
        return Weight({b: c * v for b, v in self.coords.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        bits = []
        for b in self:
            c = self.coords[b]
            bits.append(f"{c}*eps({b})")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def _signed(b: BoxIndex, v: Scalar) -> Scalar:
    return -v if parity(b) else v


def lambda_A(A) -> Weight:
    """The weight sum_i a_i eps_i read off a tableau."""
    return Weight(dict(A.entries))


def eta(py: Pyramid) -> Weight:
    """eta(e_ii) = (-1)^{tp i} (h - q_check[col(i)] - ... - q_check[ell])."""
    suffix = _suffix_q(py)
    return Weight({b: _signed(b, py.h_shift - suffix[py.col(b)]) for b in py.boxes})


def _suffix_q(py: Pyramid) -> dict[int, Scalar]:
    """suffix[c] = q_check[c] + ... + q_check[ell], for c = 1..ell+1."""
    out = {py.ell + 1: 0}
    for c in range(py.ell, 0, -1):
        out[c] = out[c + 1] + py.q_check[c - 1]
    return out


def rho_tilde(py: Pyramid) -> Weight:
    """rho_tilde(e_ii) = (-1)^{tp i}(h - row_check(i) - q_check[col(i)] -
    ... - q_check[ell]), which is eta + rho_h."""
    suffix = _suffix_q(py)
    return Weight(
        {
            b: _signed(b, py.h_shift - py.row_check(b) - suffix[py.col(b)])
            for b in py.boxes
        }
    )


def is_onedim_h_weight(py: Pyramid, lam: Weight) -> bool:
    """True iff lam extends to a one-dimensional U(h)-module: per column,
    same-parity boxes carry equal values and mixed-parity boxes carry
    values summing to zero."""
    for c in range(1, py.ell + 1):
        plus_vals = set()
        minus_vals = set()
        for r in py.column_rows(c):
            b = py.box_at(r, c)
            (minus_vals if parity(b) else plus_vals).add(lam[b])
        if len(plus_vals) > 1 or len(minus_vals) > 1:
            return False
        if plus_vals and minus_vals and next(iter(plus_vals)) + next(iter(minus_vals)) != 0:
            return False
    return True
