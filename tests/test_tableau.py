"""Column-connectedness, row-equivalence classes, and classification."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from superw.onedim import weight_space_search
from superw.pyramid import enumerate_pyramids, from_shift
from superw.tableau import (
    Tableau,
    _column_chain,
    classify,
    find_cc_representative,
    is_column_connected,
    row_equivalent,
)


def test_worked_tableau_is_column_connected(gl36, worked_tableau):
    assert is_column_connected(worked_tableau)


def test_column_chain_rules():
    # same-parity column: drop by one going down
    same = from_shift([[0, 0], [0, 0]], 1, "00")
    assert is_column_connected(Tableau.from_rows(same, [[1], [0]]))
    assert not is_column_connected(Tableau.from_rows(same, [[1], [1]]))
    # mixed column: reflect through -1 instead
    mixed = from_shift([[0, 0], [0, 0]], 1, "01")
    assert is_column_connected(Tableau.from_rows(mixed, [[0], [-1]]))
    assert is_column_connected(Tableau.from_rows(mixed, [[-3], [2]]))
    assert not is_column_connected(Tableau.from_rows(mixed, [[1], [0]]))


def test_rearranged_row_recovers_connectedness(gl36, worked_tableau):
    rows = worked_tableau.rows()
    rows[2] = [-2, 3, -2, -2]
    scrambled = Tableau.from_rows(gl36, rows)
    assert not is_column_connected(scrambled)
    wit = find_cc_representative(scrambled)
    assert wit is not None
    assert is_column_connected(wit)
    assert row_equivalent(wit, worked_tableau)


def test_no_representative_when_contents_cannot_chain(gl36):
    bad = Tableau.from_rows(gl36, [[0, 0], [1, 1, 1], [0, 0, 0, 0]])
    assert find_cc_representative(bad) is None


def test_canonical_row_form_and_equivalence(gl36, worked_tableau):
    canon = Tableau.from_rows(gl36, [sorted(row) for row in worked_tableau.rows()])
    assert canon.rows() == [[-2, -2], [1, 1, 1], [-2, -2, -2, 3]]
    assert row_equivalent(worked_tableau, canon)
    rows = worked_tableau.rows()
    rows[1] = rows[1][::-1]
    assert row_equivalent(worked_tableau, Tableau.from_rows(gl36, rows))
    rows[0] = [-2, 5]
    assert not row_equivalent(worked_tableau, Tableau.from_rows(gl36, rows))


def test_entries_addressable_by_box(gl36, worked_tableau):
    assert worked_tableau[gl36.box_at(3, 1)] == 3
    assert worked_tableau[gl36.box_at(1, 3)] == -2


def test_tableau_json_round_trip(gl36):
    A = Tableau.from_rows(
        gl36, [[Fraction(1, 2), -2], [1, 1, 1], [3, -2, -2, Fraction(-5, 3)]]
    )
    doc = A.to_json()
    back = Tableau.from_json(doc)
    assert back.rows() == A.rows()
    # scalars travel as exact strings
    assert isinstance(doc["rows"][0][0], str)


def test_from_rows_validates_shape(gl36):
    with pytest.raises(ValueError):
        Tableau.from_rows(gl36, [[1], [1, 1, 1], [0, 0, 0, 0]])


@pytest.mark.parametrize(
    "rows",
    [
        [[-2.0, -2.0], [1.0] * 3, [3.0, -2.0, -2.0, -2.0]],
        [[-2, -2], [True, 1, 1], [3, -2, -2, -2]],
        [[-2, -2], [1, False, 1], [3, -2, -2, -2]],
        [[-2, -2], [1, 1, "1"], [3, -2, -2, -2]],
    ],
    ids=["float", "true", "false", "str"],
)
def test_entries_must_be_exact(gl36, rows):
    # the worked tableau with inexact entries: both routes refuse it
    with pytest.raises(TypeError):
        Tableau.from_rows(gl36, rows)
    with pytest.raises(TypeError):
        weight_space_search(gl36, rows)


def test_classify_single_box():
    py = next(p for p in enumerate_pyramids(1) if p.signs == "0")
    out = classify(py, [0, 1])
    assert [t.rows() for t in out] == [[[0]], [[1]]]


def test_classify_two_box_columns():
    same = from_shift([[0, 0], [0, 0]], 1, "00")
    out = classify(same, [0, 1])
    assert [t.rows() for t in out] == [[[1], [0]]]
    mixed = from_shift([[0, 0], [0, 0]], 1, "01")
    out = classify(mixed, [0, -1])
    assert sorted(t.rows() for t in out) == [[[-1], [0]], [[0], [-1]]]


def test_classify_is_deterministic(gl36):
    pool = (-2, 1, 3)
    first = [t.rows() for t in classify(gl36, pool)]
    second = [t.rows() for t in classify(gl36, pool)]
    assert first == second
    # regression count; the per-class verdicts behind it are validated
    # against brute force in the exhaustive test below
    assert len(first) == 18
    for t in first:
        assert find_cc_representative(Tableau.from_rows(gl36, t)) is not None


def _brute_force_first_cc(py, rows):
    """Among the column-connected arrangements of the rows, the one whose
    column tops, read in (height desc, column) order, are lexicographically
    smallest; None if there is none."""
    order = sorted(range(1, py.ell + 1), key=lambda c: (-len(py.column_rows(c)), c))
    tops = [py.column_boxes[c - 1][0] for c in order]
    arrangements = [sorted(set(permutations(r))) for r in rows]
    tableaux = (Tableau.from_rows(py, arr) for arr in product(*arrangements))
    return min(
        (T for T in tableaux if is_column_connected(T)),
        key=lambda T: [T[b] for b in tops],
        default=None,
    )


def test_find_cc_representative_vs_brute_force_exhaustive():
    pool = (-1, 0, 1)
    for py in enumerate_pyramids(4):
        nb = len(py.boxes)
        positives = set()
        for filling in product(pool, repeat=nb):
            rows, k = [], 0
            for p in py.p:
                rows.append(list(filling[k : k + p]))
                k += p
            A = Tableau.from_rows(py, rows)
            wit = find_cc_representative(A)
            # the search returns the arrangement with the smallest tops
            assert wit == _brute_force_first_cc(py, rows), (py.p, py.signs, rows)
            if wit is not None:
                assert is_column_connected(wit)
                assert row_equivalent(wit, A)
                positives.add(tuple(tuple(sorted(r)) for r in rows))
        # classify must return exactly one representative per positive class
        found = {
            tuple(tuple(sorted(r)) for r in t.rows()) for t in classify(py, pool)
        }
        assert found == positives


def test_verdict_is_class_invariant(gl36):
    rng = random.Random(23)
    pool = [-2, -1, 0, 1, 2]
    samples = [[[rng.choice(pool) for _ in range(p)] for p in gl36.p] for _ in range(60)]
    # few random rows can be arranged column-connected; every class that
    # classify returns can
    samples += [t.rows() for t in classify(gl36, pool)]
    for rows in samples:
        A = Tableau.from_rows(gl36, rows)
        verdict = find_cc_representative(A) is not None
        shuffled = [r[:] for r in rows]
        for r in shuffled:
            rng.shuffle(r)
        B = Tableau.from_rows(gl36, shuffled)
        assert (find_cc_representative(B) is not None) == verdict
        # the weight route tries values in sorted order, so the order
        # within a row changes neither its verdict nor its witness
        weight = weight_space_search(gl36, rows)
        assert (weight is not None) == verdict
        assert weight_space_search(gl36, shuffled) == weight


def _classify_per_column(py, entry_pool):
    """Classification by the product over columns, one chain per column
    and two Tableaux per combination: slow, but it shares no grouping
    with classify, so it serves as its oracle."""
    pool = sorted(set(entry_pool))
    pool_set = set(pool)
    chains_per_col: list[list[list]] = []
    for c in range(1, py.ell + 1):
        chains = []
        for top in pool:
            chain = _column_chain(py, c, top)
            if all(v in pool_set for v in chain):
                chains.append(chain)
        if not chains:
            return []
        chains_per_col.append(chains)

    seen = set()
    out = []
    for combo in product(*chains_per_col):
        entries = {}
        for c, chain in enumerate(combo, start=1):
            for r, v in zip(py.column_rows(c), chain):
                entries[py.box_at(r, c)] = v
        A = Tableau(py, entries)
        canon = Tableau.from_rows(py, [sorted(row) for row in A.rows()])
        key = tuple(tuple(row) for row in canon.rows())
        if key not in seen:
            seen.add(key)
            out.append(canon)
    out.sort(key=lambda t: tuple(tuple(row) for row in t.rows()))
    return out


@pytest.mark.parametrize(
    "pool",
    [(-2, -1, 0, 1), (Fraction(-1, 2), -1, 0, Fraction(1, 2), 2)],
    ids=["integers", "fractions"],
)
def test_classify_matches_per_column_product(pool):
    pyramids = list(enumerate_pyramids(6))
    assert len(pyramids) == 524
    for py in pyramids:
        got = [t.rows() for t in classify(py, pool)]
        assert got == [t.rows() for t in _classify_per_column(py, pool)], py
