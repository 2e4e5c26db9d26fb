"""Oracle side of the shift-weight identities (criterion 5 and
test_weights.py): the weights rho_h, delta, beta and rho_bar, and the
row/column root partitions whose signed half-sums they must equal.

superw.weights computes rho_tilde in one pass; these are the separate
expressions it is checked against.
"""

from fractions import Fraction

from superw.gl import BoxIndex, pair_parity, parity
from superw.pyramid import Pyramid
from superw.weights import Scalar, Weight, _signed, _suffix_q


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


def signed_root_sum(roots, scale: Scalar = 1) -> Weight:
    """scale * sum over roots of (-1)^{tp(alpha)} alpha."""
    acc: dict[BoxIndex, Scalar] = {}
    for (i, j) in roots:
        s = -scale if pair_parity(i, j) else scale
        acc[i] = acc.get(i, 0) + s
        acc[j] = acc.get(j, 0) - s
    return Weight(acc)
