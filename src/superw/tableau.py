"""Tableaux on pyramids: row-equivalence, the column-connected criterion,
representative search, and classification of fillings from a finite pool.

Column-connectedness couples each box to the one directly below it:
equal parities differ by 1 going down, mixed parities sum to -1.  Within
one column the whole chain is therefore determined by its top value.
Every column ends in the bottom row, so the columns with one top row
form a group that shares its rows and its chains.  A row-equivalence
class is named by its sorted rows (`_row_class_key`); `classify`
enumerates those names per group, and the representative search tries
each group's tops in ascending order, so it never meets a state twice.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations_with_replacement, product
from typing import Optional

from .gl import BoxIndex, parity
from .pyramid import Pyramid
from .scalars import Scalar, check_exact, format_scalar, parse_scalar


class Tableau:
    """A filling of the boxes of a pyramid by exact scalars (int or Fraction)."""

    __slots__ = ("pyramid", "entries")

    def __init__(self, pyramid: Pyramid, entries: Mapping[BoxIndex, Scalar]):
        missing = [b for b in pyramid.boxes if b not in entries]
        extra = [b for b in entries if b not in pyramid._pos]
        if missing or extra:
            raise ValueError(
                f"tableau entries must cover the boxes exactly (missing {missing}, extra {extra})"
            )
        self.pyramid = pyramid
        self.entries = {b: entries[b] for b in pyramid.boxes}
        check_exact(self.entries.values())

    @classmethod
    def from_rows(cls, py: Pyramid, rows: Iterable[Iterable[object]]) -> "Tableau":
        rows = [list(r) for r in rows]
        if len(rows) != py.nrows:
            raise ValueError(f"expected {py.nrows} rows, got {len(rows)}")
        entries = {}
        for i, (boxes, row) in enumerate(zip(py.row_boxes, rows), start=1):
            if len(row) != len(boxes):
                raise ValueError(f"row {i} must have {len(boxes)} entries, got {len(row)}")
            entries.update(zip(boxes, row))
        return cls(py, entries)

    def rows(self) -> list[list]:
        return [[self.entries[b] for b in boxes] for boxes in self.pyramid.row_boxes]

    def __getitem__(self, b: BoxIndex):
        return self.entries[b]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.pyramid == other.pyramid
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Tableau({self.rows()})"

    def to_json(self) -> dict:
        return {
            "pyramid": self.pyramid.to_json(),
            "rows": [[format_scalar(v) for v in row] for row in self.rows()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Tableau":
        py = Pyramid.from_json(doc["pyramid"])
        rows = [[parse_scalar(v) for v in row] for row in doc["rows"]]
        return cls.from_rows(py, rows)


def _row_class_key(A: Tableau) -> tuple:
    """Each row sorted ascending: the name of the row-equivalence class of A."""
    return tuple(tuple(sorted(row)) for row in A.rows())


def row_equivalent(A: Tableau, B: Tableau) -> bool:
    if A.pyramid != B.pyramid:
        raise ValueError("tableaux live on different pyramids")
    return _row_class_key(A) == _row_class_key(B)


def _chain_next(upper_value, upper_parity: int, lower_parity: int):
    """Value forced directly below a box carrying upper_value."""
    if upper_parity == lower_parity:
        return upper_value - 1
    return -1 - upper_value


def is_column_connected(A: Tableau) -> bool:
    for boxes in A.pyramid.column_boxes:
        for up, low in zip(boxes, boxes[1:]):
            if A[low] != _chain_next(A[up], parity(up), parity(low)):
                return False
    return True


def _column_chain(py: Pyramid, c: int, top_value) -> list:
    """All values of column c, top to bottom, forced by the top value."""
    boxes = py.column_boxes[c - 1]
    vals = [top_value]
    for up, low in zip(boxes, boxes[1:]):
        vals.append(_chain_next(vals[-1], parity(up), parity(low)))
    return vals


def find_cc_representative(A: Tableau) -> Optional[Tableau]:
    """A column-connected tableau row-equivalent to A, or None.

    Each column is a chain determined by its top value, so the search
    matches the row multisets of A against per-column chains, tallest
    columns first.  The columns of one height share their rows and chains,
    so each such group tries its tops in ascending order.  No state can
    repeat: the values consumed so far give back each group's multiset of
    tops, row by row from the top.  The first success has the
    lexicographically smallest tops in the search order.
    """
    py = A.pyramid
    remaining = [{v: row.count(v) for v in row} for row in A.rows()]
    columns = sorted(range(1, py.ell + 1), key=lambda c: (-len(py.column_rows(c)), c))
    assignment: dict[int, list] = {}

    def search(pos: int) -> bool:
        if pos == len(columns):
            return True
        c = columns[pos]
        rows = list(py.column_rows(c))
        tops = sorted(v for v, cnt in remaining[rows[0] - 1].items() if cnt > 0)
        if pos and len(py.column_rows(columns[pos - 1])) == len(rows):
            floor = assignment[columns[pos - 1]][0]
            tops = [v for v in tops if v >= floor]
        for top in tops:
            chain = _column_chain(py, c, top)
            consumed = []
            ok = True
            for r, v in zip(rows, chain):
                if remaining[r - 1].get(v, 0) <= 0:
                    ok = False
                    break
                remaining[r - 1][v] -= 1
                consumed.append((r, v))
            if ok:
                assignment[c] = chain
                if search(pos + 1):
                    return True
                del assignment[c]
            for r, v in consumed:
                remaining[r - 1][v] += 1
        return False

    if not search(0):
        return None
    entries = {}
    for c, chain in assignment.items():
        entries.update(zip(py.column_boxes[c - 1], chain))
    return Tableau(py, entries)


def classify(py: Pyramid, entry_pool: Iterable) -> list[Tableau]:
    """Canonical forms of all column-connected tableaux with entries in the
    pool, one per row-equivalence class, in a deterministic order.

    Enumeration runs per column group, not per column.  Every column ends
    in the bottom row, so columns with the same top row share their rows
    and their pool chains.  Row multisets forget which column a value came
    from, so each group takes a multiset of its chains.
    """
    pool = sorted(set(entry_pool))
    pool_set = set(pool)
    groups: dict[int, list[int]] = {}
    for c in range(1, py.ell + 1):
        groups.setdefault(py.column_rows(c).start, []).append(c)
    options = []
    for top, cols in sorted(groups.items()):
        chains = [_column_chain(py, cols[0], v) for v in pool]
        chains = [ch for ch in chains if pool_set.issuperset(ch)]
        if not chains:
            return []
        # per row, the values one multiset of the group's chains puts there
        above = ((),) * (top - 1)
        combos = combinations_with_replacement(chains, len(cols))
        options.append([above + tuple(zip(*combo)) for combo in combos])
    keys = {
        tuple(tuple(sorted(v for part in row for v in part)) for row in zip(*choice))
        for choice in product(*options)
    }
    return [Tableau.from_rows(py, key) for key in sorted(keys)]
