"""Weight calculus on pyramids: the epsilon-basis weights eta, rho_h,
beta, rho_bar, delta, rho_tilde, the row/column root partitions, and the
criterion for a diagonal character to define a one-dimensional h-module.

A weight is stored box-indexed: coords[i] is the coefficient of eps_i, so
evaluating on the diagonal matrix e_{i,i} just reads the map.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .gl import BoxIndex, pair_parity, parity
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

    def __hash__(self):
        return hash(frozenset(self.coords.items()))

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


def rho_h(py: Pyramid) -> Weight:
    return Weight({b: _signed(b, -py.row_check(b)) for b in py.boxes})


def delta(py: Pyramid) -> Weight:
    # The shift must see M - N through the coordinate's parity sign, or the
    # half-sum expressions for rho_bar and rho_tilde break whenever M != N
    # (checked symbolically across every pyramid at desk scale).
    diff = py.M - py.N
    even_c = Fraction(diff + 1, 2)
    odd_c = Fraction(-diff + 1, 2)
    return Weight({b: odd_c if parity(b) else even_c for b in py.boxes})


def _prefix_q(py: Pyramid) -> dict[int, Scalar]:
    """prefix[c] = q_check[1] + ... + q_check[c-1], for c = 1..ell+1."""
    out = {1: 0}
    for c in range(1, py.ell + 1):
        out[c + 1] = out[c] + py.q_check[c - 1]
    return out


def _suffix_q(py: Pyramid) -> dict[int, Scalar]:
    """suffix[c] = q_check[c] + ... + q_check[ell], for c = 0..ell+1."""
    out = {py.ell + 1: 0}
    for c in range(py.ell, -1, -1):
        out[c] = out[c + 1] + (py.q_check[c - 1] if c >= 1 else 0)
    return out


def beta(py: Pyramid) -> Weight:
    pre = _prefix_q(py)
    suf = _suffix_q(py)
    return Weight(
        {b: _signed(b, pre[py.col(b)] - suf[py.col(b) + 1]) for b in py.boxes}
    )


def rho_bar(py: Pyramid) -> Weight:
    pre = _prefix_q(py)
    return Weight(
        {
            b: _signed(
                b,
                -(
                    pre[py.col(b)]
                    + py.row_check(b)
                    - (py.h_shift - py.q_check[py.col(b) - 1])
                ),
            )
            for b in py.boxes
        }
    )


def rho_tilde(py: Pyramid) -> Weight:
    """rho_tilde = eta + rho_h; directly, (-1)^{tp i}(h - row_check(i) -
    q_check[col(i)] - ... - q_check[ell])."""
    return eta(py) + rho_h(py)


class RootPartition:
    """The roots eps_i - eps_j (as ordered box pairs) split by rows and by
    columns.  cell(col_sign, row_sign) returns the intersection
    Phi(col_sign)^{row_sign}."""

    __slots__ = ("row_plus", "row_zero", "row_minus", "col_plus", "col_zero", "col_minus")

    def __init__(self, py: Pyramid):
        rp, rz, rm = set(), set(), set()
        cp, cz, cm = set(), set(), set()
        for i in py.boxes:
            for j in py.boxes:
                if i == j:
                    continue
                pr = (i, j)
                ri, rj = py.row(i), py.row(j)
                ci, cj = py.col(i), py.col(j)
                (rp if ri < rj else rz if ri == rj else rm).add(pr)
                (cp if ci < cj else cz if ci == cj else cm).add(pr)
        self.row_plus = frozenset(rp)
        self.row_zero = frozenset(rz)
        self.row_minus = frozenset(rm)
        self.col_plus = frozenset(cp)
        self.col_zero = frozenset(cz)
        self.col_minus = frozenset(cm)

    def all_roots(self) -> frozenset:
        return self.row_plus | self.row_zero | self.row_minus

    def cell(self, col_sign: str, row_sign: str) -> frozenset:
        col = {"+": self.col_plus, "0": self.col_zero, "-": self.col_minus}[col_sign]
        row = {"+": self.row_plus, "0": self.row_zero, "-": self.row_minus}[row_sign]
        return col & row


def root_partitions(py: Pyramid) -> RootPartition:
    return RootPartition(py)


def signed_root_sum(roots, scale: Scalar = 1) -> Weight:
    """scale * sum over roots of (-1)^{tp(alpha)} alpha."""
    acc: dict[BoxIndex, Scalar] = {}
    for (i, j) in roots:
        s = -scale if pair_parity(i, j) else scale
        acc[i] = acc.get(i, 0) + s
        acc[j] = acc.get(j, 0) - s
    return Weight(acc)


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
