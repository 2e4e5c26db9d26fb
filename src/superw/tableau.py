"""Tableaux on pyramids: row-equivalence, the column-connected criterion,
representative search, and classification of fillings from a finite pool.

Column-connectedness couples each box to the one directly below it:
equal parities differ by 1 going down, mixed parities sum to -1.  Within
one column the whole chain is therefore determined by its top value.
A row-equivalence class is named by its sorted rows (`_row_class_key`);
`classify` enumerates those names per group of columns with one top row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import combinations_with_replacement, product
from typing import Optional

from .gl import BoxIndex, parity
from .pyramid import Pyramid
from .scalars import format_scalar, parse_scalar


class Tableau:
    """A filling of the boxes of a pyramid by scalars."""

    __slots__ = ("pyramid", "entries")

    def __init__(self, pyramid: Pyramid, entries: Mapping[BoxIndex, object]):
        missing = [b for b in pyramid.boxes if b not in entries]
        extra = [b for b in entries if b not in pyramid._pos]
        if missing or extra:
            raise ValueError(
                f"tableau entries must cover the boxes exactly (missing {missing}, extra {extra})"
            )
        self.pyramid = pyramid
        self.entries = {b: entries[b] for b in pyramid.boxes}

    @classmethod
    def from_rows(cls, py: Pyramid, rows: Iterable[Iterable[object]]) -> "Tableau":
        rows = [list(r) for r in rows]
        if len(rows) != py.nrows:
            raise ValueError(f"expected {py.nrows} rows, got {len(rows)}")
        entries = {}
        for i, row in enumerate(rows, start=1):
            if len(row) != py.p[i - 1]:
                raise ValueError(f"row {i} must have {py.p[i - 1]} entries, got {len(row)}")
            for k, v in enumerate(row):
                entries[py.box_at(i, py.row_first_col[i - 1] + k)] = v
        return cls(py, entries)

    def rows(self) -> list[list]:
        out = []
        for i in range(1, self.pyramid.nrows + 1):
            out.append(
                [
                    self.entries[self.pyramid.box_at(i, c)]
                    for c in range(
                        self.pyramid.row_first_col[i - 1],
                        self.pyramid.row_last_col[i - 1] + 1,
                    )
                ]
            )
        return out

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
    py = A.pyramid
    for c in range(1, py.ell + 1):
        rows = list(py.column_rows(c))
        for upper_r, lower_r in zip(rows, rows[1:]):
            up = py.box_at(upper_r, c)
            low = py.box_at(lower_r, c)
            if A[low] != _chain_next(A[up], parity(up), parity(low)):
                return False
    return True


def _column_chain(py: Pyramid, c: int, top_value) -> list:
    """All values of column c, top to bottom, forced by the top value."""
    rows = list(py.column_rows(c))
    vals = [top_value]
    for upper_r, lower_r in zip(rows, rows[1:]):
        vals.append(
            _chain_next(
                vals[-1],
                py.row_sign(upper_r),
                py.row_sign(lower_r),
            )
        )
    return vals


def find_cc_representative(A: Tableau) -> Optional[Tableau]:
    """A column-connected tableau row-equivalent to A, or None.

    Each column is a chain determined by its top value, so the search
    matches the row multisets of A against per-column chains, tallest
    columns first, with memoized dead states.
    """
    py = A.pyramid
    remaining = [Counter(row) for row in A.rows()]
    columns = sorted(
        range(1, py.ell + 1),
        key=lambda c: (-len(py.column_rows(c)), c),
    )
    assignment: dict[int, list] = {}
    dead: set = set()

    def state_key(pos: int):
        return (pos, tuple(tuple(sorted(r.elements())) for r in remaining))

    def search(pos: int) -> bool:
        if pos == len(columns):
            return True
        key = state_key(pos)
        if key in dead:
            return False
        c = columns[pos]
        rows = list(py.column_rows(c))
        tops = [v for v, cnt in remaining[rows[0] - 1].items() if cnt > 0]
        for top in sorted(tops):
            chain = _column_chain(py, c, top)
            consumed = []
            ok = True
            for r, v in zip(rows, chain):
                if remaining[r - 1][v] <= 0:
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
        dead.add(key)
        return False

    if not search(0):
        return None
    entries = {}
    for c, chain in assignment.items():
        for r, v in zip(py.column_rows(c), chain):
            entries[py.box_at(r, c)] = v
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
