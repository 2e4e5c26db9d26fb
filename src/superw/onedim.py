"""Eigenvalue data of one-dimensional modules and its inversion back to
tableaux.

A column-connected tableau A acts on its one-dimensional module with
D_i^{(r)} eigenvalue (-1)^{r|i|} e_r of the row-i entries shifted by
(-1)^{|i|} rhat(i).  In the b-coordinates b_{i,j} = (-1)^{|i|} a_{i,j} +
rhat(i) this collapses to e_r(b_i) = a_i^{(r)}, so the series
a_i(u) = 1 + sum_r a_i^{(r)} u^{-r} is prod_j (1 + b_{i,j} u^{-1}).  Row i
holds the values of row i-1 plus p_i - p_{i-1} new ones, so
a_i(u) = q_i(u) a_{i-1}(u) with q_i a polynomial in u^{-1} of degree
p_i - p_{i-1}.  The solver inverts this by one series division: q_i is
a_i(u)/a_{i-1}(u) cut off after that degree, which the reduced prefix of
row i already fixes, and the new values of row i are the roots of the
monic polynomial with coefficients (-1)^r q_i^{(r)}, factored into
rational linear factors.  Data whose polynomial does not split over the
rationals raises NonSplitError naming the exact factor left over.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Sequence

from .pbw import evaluate_one_dim
from .pyramid import Pyramid
from .scalars import format_scalar, parse_scalar
from .tableau import Tableau, is_column_connected
from .weights import Weight, lambda_A, rho_tilde
from .yangian import D, E, F, series_quotient

Scalar = int | Fraction


class NonSplitError(ValueError):
    """Raised when a row polynomial does not split over the rationals."""


def elementary_symmetric(values: Sequence) -> list:
    """[e_0, ..., e_n] of the n given values, the coefficients of
    prod_v (1 + v z), in one pass."""
    coeffs = [1] + [0] * len(values)
    for n, v in enumerate(values, start=1):
        for k in range(n, 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * v
    return coeffs


def _row_quotients(reduced: Sequence[list]) -> tuple[list[list], list[list]]:
    """From the reduced rows, each quotient q_i(u) = a_i(u)/a_{i-1}(u) of
    degree k = p_i - p_{i-1}, and each full row a_i = q_i·a_{i-1} (a_0 = 1).
    Both are coefficient lists from u^0; the first k + 1 coefficients of
    a_i(u) are 1 and the reduced row itself, and they fix q_i."""
    quotients, full = [], []
    prev = [1]
    for row in reduced:
        k = len(row)
        q = series_quotient([1] + row, prev, k)
        cur = [1] + row
        for r in range(k + 1, k + len(prev)):
            cur.append(sum(q[t] * prev[r - t] for t in range(max(0, r - len(prev) + 1), k + 1)))
        quotients.append(q)
        full.append(cur)
        prev = cur
    return quotients, full


class EigenvalueData:
    """Eigenvalues a_i^{(r)} of the level generators on a one-dimensional
    module: full table (r up to p_i) plus the reduced prefix (r up to
    p_i - p_{i-1}) that already determines it."""

    __slots__ = ("signs", "levels", "full")

    def __init__(self, signs: str, levels: Sequence[int], full: Sequence[Sequence]):
        levels = tuple(int(p) for p in levels)
        if len(signs) != len(levels):
            raise ValueError("sign word and level list must have equal length")
        if list(levels) != sorted(levels) or (levels and levels[0] < 1):
            raise ValueError("levels must be weakly increasing positive integers")
        full = tuple(tuple(row) for row in full)
        if len(full) != len(levels):
            raise ValueError("one eigenvalue row per pyramid row required")
        for i, row in enumerate(full):
            if len(row) != levels[i]:
                raise ValueError(
                    f"row {i+1} must list levels 1..{levels[i]}, got {len(row)} values"
                )
        self.signs = signs
        self.levels = levels
        self.full = full

    @property
    def reduced(self) -> tuple[tuple, ...]:
        prev = 0
        out = []
        for p, row in zip(self.levels, self.full):
            out.append(tuple(row[: p - prev]))
            prev = p
        return tuple(out)

    @classmethod
    def from_reduced(cls, signs: str, levels: Sequence[int], reduced: Sequence[Sequence]) -> "EigenvalueData":
        """Rebuild the full table: row i is q_i·a_{i-1}, with q_i the
        quotient that the reduced prefix of row i fixes."""
        levels = tuple(int(p) for p in levels)
        _, full = _row_quotients(_check_reduced_shape(levels, reduced))
        return cls("".join(signs), levels, [row[1:] for row in full])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EigenvalueData)
            and self.signs == other.signs
            and self.levels == other.levels
            and self.full == other.full
        )

    def __repr__(self):
        return f"EigenvalueData(signs={self.signs!r}, levels={self.levels}, full={self.full})"

    def to_json(self) -> dict:
        return {
            "signs": self.signs,
            "levels": list(self.levels),
            "a": [[format_scalar(v) for v in row] for row in self.full],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EigenvalueData":
        return cls(
            doc["signs"],
            doc["levels"],
            [[parse_scalar(v) for v in row] for row in doc["a"]],
        )


def eigenvalues_of(A: Tableau) -> EigenvalueData:
    """The full eigenvalue table of a tableau, by the shifted elementary
    symmetric formula."""
    py = A.pyramid
    full = []
    for i, row in enumerate(A.rows(), start=1):
        sgn = py.row_sign(i)
        shift = py.row_hat[i - 1] if sgn == 0 else -py.row_hat[i - 1]
        es = elementary_symmetric([v + shift for v in row])
        full.append([-er if (sgn and r % 2) else er for r, er in enumerate(es[1:], start=1)])
    return EigenvalueData(py.signs, py.p, full)


# -- polynomial root extraction -----------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval(coeffs: Sequence, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs: list, root) -> list:
    """Synthetic division by (z - root); exact for Fraction arithmetic."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All roots with multiplicity of a monic rational polynomial, raising
    NonSplitError if it does not split over the rationals."""
    coeffs = [Fraction(c) for c in coeffs]
    deg = len(coeffs) - 1
    roots: list[Fraction] = []
    while deg > 0:
        if coeffs[-1] == 0:
            roots.append(Fraction(0))
            coeffs = coeffs[:-1]
            deg -= 1
            continue
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        ints = [int(c * den) for c in coeffs]
        lead, const = ints[0], ints[-1]
        found = None
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if _poly_eval(coeffs, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise NonSplitError(
                "polynomial does not split over the rationals: "
                + " ".join(format_scalar(c) for c in coeffs)
            )
        while _poly_eval(coeffs, found) == 0 and deg > 0:
            roots.append(found)
            coeffs = _deflate(coeffs, found)
            deg -= 1
    return roots


# -- the inverse problem ------------------------------------------------


def _check_reduced_shape(levels: Sequence[int], reduced: Sequence[Sequence]) -> list[list]:
    """The reduced rows as lists, after checking that row i holds
    p_i - p_{i-1} values, one row per pyramid row."""
    reduced = [list(row) for row in reduced]
    if len(reduced) != len(levels):
        raise ValueError("one reduced row per pyramid row required")
    prev = 0
    for i, row in enumerate(reduced):
        if len(row) != levels[i] - prev:
            raise ValueError(
                f"reduced row {i+1} must have {levels[i] - prev} values, got {len(row)}"
            )
        prev = levels[i]
    return reduced


def _as_reduced_rows(signs: str, levels: Sequence[int], a) -> list[list]:
    if isinstance(a, EigenvalueData):
        if a.signs != "".join(signs) or tuple(a.levels) != tuple(levels):
            raise ValueError("eigenvalue data does not match the given shape")
        return [list(row) for row in a.reduced]
    return _check_reduced_shape(levels, a)


def solve_b_shifted(py: Pyramid, a) -> list[list]:
    """Recover b_{i,j} from reduced eigenvalue data: the new values of row i
    are the roots of q_i, and the inherited values occupy positions
    s_{i,i-1}+1 .. s_{i,i-1}+p_{i-1}, mirroring the column alignment of
    the pyramid."""
    quotients, _ = _row_quotients(_as_reduced_rows(py.signs, py.p, a))
    rows: list[list] = []
    prev: list = []
    for i, q in enumerate(quotients, start=1):
        # prod_n (z - n) = sum_r (-1)^r q^{(r)} z^{k-r}
        new = sorted(_rational_roots([-c if r % 2 else c for r, c in enumerate(q)]))
        if i == 1:
            cur = list(new)
        else:
            off = py.shift.s(i, i - 1)
            cur = [None] * py.p[i - 1]
            for r, v in enumerate(prev):
                cur[off + r] = v
            free = [k for k, v in enumerate(cur) if v is None]
            for k, v in zip(free, new):
                cur[k] = v
        rows.append(cur)
        prev = cur
    return rows


def tableau_from_eigenvalues(py: Pyramid, a) -> Tableau:
    """The column-connected tableau realizing the given reduced data:
    entries a_{i,j} = (-1)^{|i|}(b_{i,j} - rhat(i)) with b from the
    shifted solver."""
    b = solve_b_shifted(py, a)
    rows = []
    for i in range(1, py.nrows + 1):
        sgn = -1 if py.row_sign(i) else 1
        rhat = py.row_hat[i - 1]
        rows.append([sgn * (v - rhat) for v in b[i - 1]])
    A = Tableau.from_rows(py, rows)
    if not is_column_connected(A):
        raise AssertionError("constructed tableau is not column-connected")
    return A


QUOTIENT_EXTRA_TERMS = 2


def quotient_relation_check(a: EigenvalueData) -> bool:
    """The series quotient a_{j+1}(u)/a_j(u) must be polynomial of degree
    at most p_{j+1} - p_j: its coefficients beyond that vanish.  Those up
    to u^{-p_{j+1}} already decide it, since a_{j+1}(u) and a_j(u) times the
    truncated quotient then agree to that order and both have degree at most
    p_{j+1} in u^{-1}; QUOTIENT_EXTRA_TERMS = 2 more are a cheap guard."""
    for j in range(len(a.levels) - 1):
        pj, pj1 = a.levels[j], a.levels[j + 1]
        q = series_quotient((1,) + a.full[j + 1], (1,) + a.full[j], pj1 + QUOTIENT_EXTRA_TERMS)
        if any(q[pj1 - pj + 1 :]):
            return False
    return True


def weight_space_search(py: Pyramid, row_contents: Sequence[Sequence]):
    """Search for a one-dimensional highest weight with the given row content.

    Works entirely on the weight side: lambda - rho_tilde restricted to a
    column must take a single value t on plus boxes and -t on minus boxes,
    so each column contributes one free scalar.  Returns the lambda of a
    matching arrangement as a Weight, or None.  This is deliberately
    independent of the entry-chain search in tableau.find_cc_representative;
    the two must agree on solvability.
    """
    rt = rho_tilde(py)
    counts = [Counter(row) for row in row_contents]
    if len(counts) != py.nrows:
        raise ValueError(f"expected {py.nrows} content rows, got {len(counts)}")
    for i, cnt in enumerate(counts, start=1):
        if sum(cnt.values()) != py.p[i - 1]:
            raise ValueError(f"row {i} content must have {py.p[i - 1]} values")

    columns = sorted(range(1, py.ell + 1), key=lambda c: (-len(py.column_rows(c)), c))
    col_boxes = {c: [py.box_at(r, c) for r in py.column_rows(c)] for c in columns}
    dead: set = set()

    def state_key(pos: int):
        return (pos, tuple(tuple(sorted(c.items())) for c in counts))

    assignment: dict = {}

    def entry_from_t(b, t):
        sgn = -1 if b.sign else 1
        return sgn * t + rt[b]

    def dfs(pos: int) -> bool:
        if pos == len(columns):
            return True
        key = state_key(pos)
        if key in dead:
            return False
        c = columns[pos]
        boxes = col_boxes[c]
        b0 = boxes[0]
        sgn0 = -1 if b0.sign else 1
        seen = set()
        for v, n in counts[py.row(b0) - 1].items():
            if n <= 0:
                continue
            t = sgn0 * (v - rt[b0])
            if t in seen:
                continue
            seen.add(t)
            consumed = []
            ok = True
            for b in boxes:
                a_b = entry_from_t(b, t)
                row_cnt = counts[py.row(b) - 1]
                if row_cnt.get(a_b, 0) <= 0:
                    ok = False
                    break
                row_cnt[a_b] -= 1
                consumed.append((py.row(b) - 1, a_b))
            if ok:
                for b in boxes:
                    assignment[b] = entry_from_t(b, t)
                if dfs(pos + 1):
                    return True
                for b in boxes:
                    del assignment[b]
            for ri, a_b in consumed:
                counts[ri][a_b] += 1
        dead.add(key)
        return False

    if not dfs(0):
        return None
    return Weight(dict(assignment))


def symbolic_module_check(A: Tableau) -> bool:
    """Fully symbolic check that A's one-dimensional module has the
    predicted generator action: each D_i^{(r)} evaluates (through the
    weight lambda_A - rho_tilde) to the formula eigenvalue, and the E/F
    generators at their lowest admissible levels evaluate to zero."""
    py = A.pyramid
    if not is_column_connected(A):
        raise ValueError("symbolic check requires a column-connected tableau")
    data = eigenvalues_of(A)
    lam = lambda_A(A) - rho_tilde(py)
    for i in range(1, py.nrows + 1):
        for r in range(1, py.p[i - 1] + 1):
            got = evaluate_one_dim(py, D(py, i, r), lam)
            if got != data.full[i - 1][r - 1]:
                return False
    for i in range(1, py.nrows):
        if evaluate_one_dim(py, E(py, i, py.shift.s(i, i + 1) + 1), lam) != 0:
            return False
        if evaluate_one_dim(py, F(py, i, py.shift.s(i + 1, i) + 1), lam) != 0:
            return False
    return True
