"""Pyramids of boxes and the good pairs they induce.

A pyramid is determined by a shift matrix sigma, a width ell, and a sign
word over {0,1} (0 = plus row, 1 = minus row).  Rows are numbered top to
bottom, columns 1..ell left to right; row i occupies the consecutive
columns s[last][i]+1 .. ell - s[i][last], and these intervals nest
downward.  Plus boxes are numbered down columns from left to right, minus
boxes independently the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .gl import (
    BoxIndex,
    LieSuperElement,
    Pair,
    ad_matrix,
    bracket,
    minus,
    plus,
    rational_rank,
)


@dataclass(frozen=True)
class ShiftMatrix:
    """Square matrix of nonnegative integers with zero diagonal and
    additive monotone chains: s[i][k] = s[i][j] + s[j][k] whenever
    i <= j <= k or i >= j >= k (indices 1-based in the math, 0-based here)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("shift matrix must be square")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise ValueError(f"shift entries must be nonnegative integers, got {v!r}")
        for i in range(n):
            if self.entries[i][i] != 0:
                raise ValueError("shift matrix must have zero diagonal")
        s = self.entries
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    if s[i][k] != s[i][j] + s[j][k]:
                        raise ValueError(
                            f"shift matrix not additive on chain {i+1}<={j+1}<={k+1}"
                        )
                    if s[k][i] != s[k][j] + s[j][i]:
                        raise ValueError(
                            f"shift matrix not additive on chain {k+1}>={j+1}>={i+1}"
                        )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "ShiftMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def s(self, i: int, j: int) -> int:
        """Entry s_{i,j}, 1-based."""
        return self.entries[i - 1][j - 1]

    def __str__(self) -> str:
        return "[" + ", ".join(str(list(row)) for row in self.entries) + "]"


class Pyramid:
    """Immutable pyramid with all derived combinatorial data precomputed."""

    def __init__(self, shift: ShiftMatrix, ell: int, signs: str):
        if not isinstance(signs, str) or any(ch not in "01" for ch in signs):
            raise ValueError("signs must be a word over {0,1}")
        nrows = shift.size
        if len(signs) != nrows:
            raise ValueError(f"sign word length {len(signs)} != shift matrix size {nrows}")
        if ell < 1:
            raise ValueError("ell must be positive")

        first = tuple(shift.s(nrows, i) + 1 for i in range(1, nrows + 1))
        last = tuple(ell - shift.s(i, nrows) for i in range(1, nrows + 1))
        p = tuple(last[i] - first[i] + 1 for i in range(nrows))
        for i in range(nrows):
            if p[i] < 1:
                raise ValueError(f"ell={ell} too small: row {i+1} would have length {p[i]}")
        for i in range(nrows - 1):
            if p[i] > p[i + 1]:
                raise ValueError("row lengths must weakly increase downward")
            if not (first[i] >= first[i + 1] and last[i] <= last[i + 1]):
                raise ValueError("row intervals must nest downward")

        self.shift = shift
        self.ell = ell
        self.signs = signs
        self.nrows = nrows
        self.p = p
        self.row_first_col = first
        self.row_last_col = last
        self.m = signs.count("0")
        self.n = signs.count("1")
        self.h_shift = self.m - self.n

        # Box numbering: down columns, left to right, each parity independently.
        # The same pass lays out the box grid: row_boxes[i-1] holds row i left
        # to right, column_boxes[c-1] holds column c top to bottom.
        pos_of: dict[BoxIndex, tuple[int, int]] = {}
        rows: list[list[BoxIndex]] = [[] for _ in range(nrows)]
        columns: list[tuple[BoxIndex, ...]] = []
        np_, nm = 0, 0
        for c in range(1, ell + 1):
            column = []
            for r in range(1, nrows + 1):
                if first[r - 1] <= c <= last[r - 1]:
                    if signs[r - 1] == "0":
                        np_ += 1
                        b = plus(np_)
                    else:
                        nm += 1
                        b = minus(nm)
                    pos_of[b] = (r, c)
                    rows[r - 1].append(b)
                    column.append(b)
            columns.append(tuple(column))
        self.M = np_
        self.N = nm
        self._pos = pos_of
        self.row_boxes = tuple(map(tuple, rows))
        self.column_boxes = tuple(columns)
        self.boxes = tuple(sorted(pos_of))  # 1 .. M, then 1bar .. Nbar

        q = [0] * ell
        for b, (_, c) in pos_of.items():
            q[c - 1] += 1 if b.sign == 0 else -1
        self.q_check = tuple(q)

        rh = []
        acc = 0
        for ch in signs:
            acc += 1 if ch == "0" else -1
            rh.append(acc)
        self.row_hat = tuple(rh)

        # The W-algebra state (algebra, memos, eta): superw.yangian fills it
        # on first use.  Not part of __eq__, __hash__ or to_json.
        self.w_state = None

    # -- accessors -------------------------------------------------------

    def row(self, b: BoxIndex) -> int:
        return self._pos[b][0]

    def col(self, b: BoxIndex) -> int:
        return self._pos[b][1]

    def box_at(self, row: int, col: int) -> BoxIndex:
        if not self.has_box(row, col):
            raise KeyError(f"no box at row {row}, column {col}")
        return self.row_boxes[row - 1][col - self.row_first_col[row - 1]]

    def has_box(self, row: int, col: int) -> bool:
        return (
            1 <= row <= self.nrows
            and self.row_first_col[row - 1] <= col <= self.row_last_col[row - 1]
        )

    def col_x_of_col(self, c: int) -> int:
        return 2 * c - self.ell - 1

    def col_x(self, b: BoxIndex) -> int:
        return self.col_x_of_col(self.col(b))

    def row_check(self, b: BoxIndex) -> int:
        return self.row_hat[self.row(b) - 1]

    def degree(self, pair: Pair) -> int:
        """Grading degree of e_{i,j}: col_x(j) - col_x(i)."""
        i, j = pair
        return self.col_x(j) - self.col_x(i)

    def row_sign(self, r: int) -> int:
        """0 for a plus row, 1 for a minus row; written |r| in the math."""
        return int(self.signs[r - 1])

    def column_rows(self, c: int) -> range:
        """Rows occupied by column c, top to bottom; every column ends in
        the bottom row, which spans the full width."""
        if not 1 <= c <= self.ell:
            raise KeyError(f"column {c} out of range")
        return range(self.nrows + 1 - len(self.column_boxes[c - 1]), self.nrows + 1)

    # -- equality / serialization ---------------------------------------

    def _key(self):
        return (self.shift.entries, self.ell, self.signs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Pyramid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Pyramid(shift={self.shift}, ell={self.ell}, signs={self.signs!r})"

    def to_json(self) -> dict:
        return {
            "shift": [list(row) for row in self.shift.entries],
            "ell": self.ell,
            "signs": self.signs,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Pyramid":
        ell = doc["ell"]
        # as for the shift entries: no float, not even 4.0, and no bool
        if isinstance(ell, bool) or not isinstance(ell, int):
            raise ValueError(f"ell must be an integer, got {ell!r}")
        return cls(ShiftMatrix.from_rows(doc["shift"]), ell, doc["signs"])


def from_shift(shift, ell: int, signs) -> Pyramid:
    """Construct a pyramid; `shift` may be a ShiftMatrix or raw rows."""
    if not isinstance(shift, ShiftMatrix):
        shift = ShiftMatrix.from_rows(shift)
    return Pyramid(shift, ell, signs)


def adjacent_pairs(py: Pyramid) -> list[Pair]:
    """Horizontally adjacent same-row box pairs (left, right)."""
    return [pr for boxes in py.row_boxes for pr in zip(boxes, boxes[1:])]


def vertical_adjacent_pairs(py: Pyramid) -> list[Pair]:
    """Vertically adjacent box pairs (upper, lower), column by column."""
    return [pr for boxes in py.column_boxes for pr in zip(boxes, boxes[1:])]


def e_pi(py: Pyramid) -> LieSuperElement:
    return LieSuperElement({pair: 1 for pair in adjacent_pairs(py)})


def h_pi(py: Pyramid) -> LieSuperElement:
    return LieSuperElement({(b, b): -py.col_x(b) for b in py.boxes})


def all_pairs(py: Pyramid) -> list[Pair]:
    return [(i, j) for i in py.boxes for j in py.boxes]


def graded_basis(py: Pyramid, part: str) -> list[Pair]:
    """Ordered basis pairs of one of the subalgebras cut out by the grading.

    The orders are canonical and shared with the PBW engine: within m and
    p_prime by (degree, pair); within h diagonal pairs first, then by pair.
    Pairs compare as tuples of boxes, so "by pair" is lexicographic in the
    basis order.  all_pairs already lists pairs in that order, so filtering
    it keeps the pair order, and sorting by degree alone keeps it within
    each degree because Python's sort is stable.
    """
    pairs = all_pairs(py)
    if part == "m":
        return sorted((pr for pr in pairs if py.degree(pr) < 0), key=py.degree)
    if part == "h":
        diag = [pr for pr in pairs if pr[0] == pr[1]]
        return diag + [pr for pr in pairs if pr[0] != pr[1] and py.degree(pr) == 0]
    if part == "p_prime":
        return sorted((pr for pr in pairs if py.degree(pr) > 0), key=py.degree)
    if part == "p":
        return graded_basis(py, "h") + graded_basis(py, "p_prime")
    raise ValueError(f"unknown part {part!r}; expected one of m, h, p, p_prime")


def good_pair_check(py: Pyramid) -> bool:
    """Verify the good-pair axioms for (e_pi, h_pi) by exact linear algebra:
    [h_pi, e_pi] = 2 e_pi, ad h_pi diagonal with even integer eigenvalues
    matching the column grading, and ad e_pi injective on degrees <= -1 and
    surjective onto degrees >= 1.

    For diagonal h, [h, e_ij] = (h_i - h_j) e_ij, so once h_pi has no
    off-diagonal term its eigenvalues are read off its diagonal rather than
    bracketed out pair by pair.  The identity, a sum of the e_ii that each
    have degree 0, then sits in degree 0 without a bracket of its own.

    Once [h_pi, e_pi] = 2 e_pi holds and every h_i - h_j equals the degree,
    each term e_ij of e_pi has degree h_i - h_j = 2, and degrees add under
    the bracket, so ad e_pi maps each degree block into the block two
    above: ad_matrix cannot return None there.
    """
    ep = e_pi(py)
    hp = h_pi(py)
    if bracket(hp, ep) != 2 * ep:
        return False
    if any(i != j for (i, j) in hp.terms):
        return False
    h = {i: c for (i, _), c in hp.terms.items()}

    by_deg: dict[int, list[Pair]] = {}
    for i, j in all_pairs(py):
        d = py.degree((i, j))
        if d % 2 != 0 or h.get(i, 0) - h.get(j, 0) != d:
            return False
        by_deg.setdefault(d, []).append((i, j))

    for d, block in by_deg.items():
        target = by_deg.get(d + 2, [])
        rows = ad_matrix(ep, block, target)
        assert rows is not None
        rank = rational_rank(rows)
        if d <= -1 and rank != len(block):
            return False
        if d >= -1 and rank != len(target):
            return False
    return True


# -- enumeration -------------------------------------------------------


def _weakly_increasing_rows(total_max: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix: list[int], remaining: int, minlen: int):
        if prefix:
            yield tuple(prefix)
        for v in range(minlen, remaining + 1):
            prefix.append(v)
            yield from rec(prefix, remaining - v, v)
            prefix.pop()

    yield from rec([], total_max, 1)


def enumerate_shapes(max_boxes: int) -> Iterator[tuple[ShiftMatrix, int]]:
    """All pyramid shapes (shift matrix, ell) with at most max_boxes boxes.

    Shapes are enumerated by weakly increasing row lengths plus a choice of
    nested left offsets; the bottom row always spans the full width.
    """
    for p in _weakly_increasing_rows(max_boxes):
        k = len(p)
        ell = p[-1]

        def offsets(i: int, lo_next: int, right_next: int) -> Iterator[list[int]]:
            # choose left offsets bottom-up; row i must nest inside row i+1
            if i < 0:
                yield []
                return
            for li in range(lo_next, right_next - p[i] + 1):
                for rest in offsets(i - 1, li, li + p[i]):
                    yield rest + [li]

        for lefts_top in offsets(k - 2, 0, ell):
            lefts = lefts_top + [0]  # rows 1..k, bottom row offset 0
            s = [[0] * k for _ in range(k)]
            rights = [ell - lefts[i] - p[i] for i in range(k)]
            for i in range(k):
                for j in range(k):
                    if i < j:
                        s[i][j] = rights[i] - rights[j]
                    elif i > j:
                        s[i][j] = lefts[j] - lefts[i]
            yield ShiftMatrix.from_rows(s), ell


def enumerate_pyramids(max_boxes: int) -> Iterator[Pyramid]:
    """All pyramids (shape plus sign word) with at most max_boxes boxes."""
    for shift, ell in enumerate_shapes(max_boxes):
        k = shift.size
        for bits in range(1 << k):
            signs = format(bits, f"0{k}b")
            yield Pyramid(shift, ell, signs)
